"""Online BO model-quality diagnostics: is the surrogate healthy?

The paper's cost analysis (Figure 7, §IV-B3) answers *where time goes*;
this module answers the companion production question — *can the model
be trusted* — with the standard online checks from the probabilistic-
forecasting literature, computed one step ahead of each ``tell`` so
every score is a genuine out-of-sample test:

* **Standardized residuals** ``z = (y − μ) / σ`` of each measurement
  against the surrogate's pre-tell predictive distribution (noise
  included).  A healthy GP keeps them ~N(0, 1); drifting mean signals
  bias, |z| persistently > 2 signals overconfidence.
* **95% predictive-interval coverage** — the fraction of measurements
  inside ``μ ± 1.96σ``.  Miscalibration here is exactly how a GP
  silently wastes budget on stream-processor response surfaces
  (Jamshidi & Casale, PAPERS.md).
* **NLPD** (negative log predictive density) — the proper scoring rule
  that punishes both bias and bad variance.
* **Acquisition-value decay** — EI's own estimate of remaining
  improvement; a decayed series is the surrogate's convergence claim.
* **Incumbent regret vs the noise-free analytic reference** — for
  objectives backed by the analytic engine, the incumbent is re-scored
  noise-free against a fixed Latin-hypercube reference pool's optimum
  (the same construction :mod:`repro.experiments.drift` judges recovery
  with), giving a ground-truth convergence curve no noisy observation
  can fake.

Pure computation layer: no :mod:`repro.obs` imports.  Emission lives in
:mod:`repro.obs.diagnostics`; :class:`~repro.core.loop.TuningLoop`
instantiates a tracker only when an obs session is active (or the
caller opts in), so the disabled path stays a single ``None`` check.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Mapping

import numpy as np

#: ±zσ bounds of the central 95% interval of a normal distribution.
Z_95 = 1.959964

#: Latin-hypercube pool size for the noise-free reference optimum.
REFERENCE_POOL = 512


@dataclass
class StepDiagnostics:
    """Model-quality scores for one tell (one measured configuration)."""

    step: int
    value: float
    best_value: float
    failed: bool = False
    #: Pre-tell predictive distribution at the measured config
    #: (objective units, observation noise included).  None while the
    #: surrogate is unfitted or the optimizer has no GP.
    predicted_mean: float | None = None
    predicted_std: float | None = None
    residual_z: float | None = None
    in_interval_95: bool | None = None
    nlpd: float | None = None
    #: Running 95%-interval coverage over all scored tells so far.
    coverage_95: float | None = None
    acquisition_value: float | None = None
    #: Noise-free analytic score of the incumbent configuration, and
    #: its relative regret vs the reference-pool optimum.  None when no
    #: analytic reference exists.
    incumbent_noise_free: float | None = None
    reference_optimum: float | None = None
    incumbent_regret: float | None = None

    def as_attrs(self) -> dict[str, object]:
        """Flat attribute dict with None entries dropped (event payload)."""
        return {k: v for k, v in asdict(self).items() if v is not None}


class DiagnosticsTracker:
    """Accumulate per-tell diagnostics over one tuning run.

    Call :meth:`observe` once per completed evaluation, *before* the
    matching ``optimizer.tell`` — the one-step-ahead residual is only
    honest while the measurement is still out of sample.

    Parameters
    ----------
    optimizer:
        Any optimizer.  Model-quality fields light up only when it
        exposes ``predict_config`` (the fitted-GP path of
        :class:`~repro.core.optimizer.BayesianOptimizer`); grid/random
        baselines still get value/best/regret tracking.
    objective:
        When it quacks like :class:`~repro.storm.objective.StormObjective`
        with an analytic engine (``codec`` + ``engine.evaluate_noise_free``),
        the tracker lazily builds the noise-free reference optimum and
        scores the incumbent against it each tell.  Anything else —
        plain callables, DES-backed objectives — degrades to regret-free
        diagnostics.
    """

    def __init__(
        self,
        optimizer: object,
        *,
        objective: object | None = None,
        reference_pool: int = REFERENCE_POOL,
        reference_seed: int = 0,
    ) -> None:
        self.optimizer = optimizer
        self.objective = objective
        self.reference_pool = reference_pool
        self.reference_seed = reference_seed
        self.n_tells = 0
        self.n_scored = 0
        self.n_in_interval = 0
        self._nlpd_sum = 0.0
        self._z_sum = 0.0
        self._z_sq_sum = 0.0
        self._abs_z_sum = 0.0
        self._acq_first: float | None = None
        self._acq_last: float | None = None
        self._best_value = -math.inf
        self._best_config: Mapping[str, object] | None = None
        self._reference: float | None = None
        self._reference_built = False
        self._incumbent_score: float | None = None
        self._incumbent_dirty = False
        self._final: StepDiagnostics | None = None

    # ------------------------------------------------------------------
    # Noise-free analytic reference (drift.reference_optima construction)
    # ------------------------------------------------------------------
    def _reference_optimum(self) -> float | None:
        """Reference-pool optimum, built lazily on the first scored tell.

        Evaluated at the objective's *current* workload time; a
        per-epoch drifting reference is the continuous loop's concern
        (:func:`repro.experiments.drift.reference_optima`), not this
        per-run tracker's.
        """
        if self._reference_built:
            return self._reference
        self._reference_built = True
        codec = getattr(self.objective, "codec", None)
        engine = getattr(self.objective, "engine", None)
        batch_eval = getattr(engine, "evaluate_noise_free_batch", None)
        if codec is None or not callable(batch_eval):
            return None
        try:
            rng = np.random.default_rng(self.reference_seed)
            points = codec.space.latin_hypercube(self.reference_pool, rng)
            configs = [
                codec.decode(codec.space.decode(np.asarray(point)))
                for point in codec.space.round_trip_batch(points)
            ]
            runs = batch_eval(
                configs,
                workload_time_s=float(
                    getattr(self.objective, "workload_time_s", 0.0)
                ),
            )
            values = [run.throughput_tps for run in runs if not run.failed]
        except Exception:  # never let diagnostics kill a tuning run
            return None
        if values:
            self._reference = max(values)
        return self._reference

    def _incumbent_noise_free(self) -> float | None:
        """Noise-free analytic score of the current incumbent config.

        Cached between tells: the incumbent only moves on improvement
        steps, so most tells reuse the previous score and the analytic
        engine is touched a handful of times per run, not per tell.
        """
        if self._best_config is None:
            return None
        if not self._incumbent_dirty:
            return self._incumbent_score
        self._incumbent_dirty = False
        self._incumbent_score = None
        codec = getattr(self.objective, "codec", None)
        engine = getattr(self.objective, "engine", None)
        evaluate = getattr(engine, "evaluate_noise_free", None)
        if codec is None or not callable(evaluate):
            return None
        try:
            run = evaluate(
                codec.decode(self._best_config),
                workload_time_s=float(
                    getattr(self.objective, "workload_time_s", 0.0)
                ),
            )
        except Exception:
            return None
        if not run.failed:
            self._incumbent_score = float(run.throughput_tps)
        return self._incumbent_score

    # ------------------------------------------------------------------
    # Per-tell scoring
    # ------------------------------------------------------------------
    def observe(
        self,
        *,
        step: int,
        config: Mapping[str, object],
        value: float,
        failed: bool = False,
    ) -> StepDiagnostics:
        """Score one completed evaluation (call *before* the tell)."""
        self.n_tells += 1
        if not failed and math.isfinite(value):
            if value > self._best_value:
                self._best_value = value
                self._best_config = dict(config)
                self._incumbent_dirty = True
        best = self._best_value if math.isfinite(self._best_value) else value
        diag = StepDiagnostics(
            step=step, value=value, best_value=best, failed=failed
        )
        predict = getattr(self.optimizer, "predict_config", None)
        prediction = (
            predict(config, include_noise=True)
            if callable(predict) and not failed
            else None
        )
        if prediction is not None:
            mu, sd = prediction
            if sd > 0.0 and math.isfinite(mu) and math.isfinite(sd):
                z = (value - mu) / sd
                diag.predicted_mean = mu
                diag.predicted_std = sd
                diag.residual_z = z
                diag.in_interval_95 = bool(abs(z) <= Z_95)
                diag.nlpd = 0.5 * (math.log(2.0 * math.pi * sd * sd) + z * z)
                self.n_scored += 1
                self.n_in_interval += int(diag.in_interval_95)
                self._nlpd_sum += diag.nlpd
                self._z_sum += z
                self._z_sq_sum += z * z
                self._abs_z_sum += abs(z)
        if self.n_scored:
            diag.coverage_95 = self.n_in_interval / self.n_scored
        acq = getattr(self.optimizer, "last_acquisition_value", None)
        if isinstance(acq, (int, float)) and math.isfinite(acq):
            diag.acquisition_value = float(acq)
            if self._acq_first is None:
                self._acq_first = float(acq)
            self._acq_last = float(acq)
        reference = self._reference_optimum()
        if reference is not None:
            diag.reference_optimum = reference
            incumbent = self._incumbent_noise_free()
            if incumbent is not None:
                diag.incumbent_noise_free = incumbent
                gap = reference - incumbent
                diag.incumbent_regret = (
                    gap / abs(reference) if reference else gap
                )
        self._final = diag
        return diag

    # ------------------------------------------------------------------
    # Run-level summary
    # ------------------------------------------------------------------
    @property
    def coverage_95(self) -> float | None:
        return self.n_in_interval / self.n_scored if self.n_scored else None

    def summary(self) -> dict[str, object]:
        """Run-level aggregate for ``TuningResult.metadata['diagnostics']``."""
        out: dict[str, object] = {
            "n_tells": self.n_tells,
            "n_scored": self.n_scored,
        }
        if self.n_scored:
            n = self.n_scored
            z_mean = self._z_sum / n
            z_var = max(0.0, self._z_sq_sum / n - z_mean * z_mean)
            out.update(
                {
                    "coverage_95": self.n_in_interval / n,
                    "nlpd_mean": self._nlpd_sum / n,
                    "residual_z_mean": z_mean,
                    "residual_z_std": math.sqrt(z_var),
                    "abs_residual_z_mean": self._abs_z_sum / n,
                }
            )
        if self._acq_first is not None:
            out["acquisition_first"] = self._acq_first
            out["acquisition_last"] = self._acq_last
            if self._acq_first > 0:
                out["acquisition_decay"] = 1.0 - (
                    (self._acq_last or 0.0) / self._acq_first
                )
        final = self._final
        if final is not None:
            out["best_value"] = final.best_value
            if final.reference_optimum is not None:
                out["reference_optimum"] = final.reference_optimum
            if final.incumbent_regret is not None:
                out["incumbent_regret"] = final.incumbent_regret
            if final.incumbent_noise_free is not None:
                out["incumbent_noise_free"] = final.incumbent_noise_free
        return out
