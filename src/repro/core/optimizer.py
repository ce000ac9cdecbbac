"""The Bayesian optimizer: Spearmint's loop, from scratch.

An *ask/tell* interface: :meth:`BayesianOptimizer.ask` proposes the next
configuration (initial design first, then acquisition maximization over
the GP posterior), :meth:`~BayesianOptimizer.tell` feeds back the
measured objective.  State serializes to JSON so an optimization can be
paused and resumed across processes — the Spearmint feature the paper
calls out as important for its cluster-scale evaluations (§III-C).
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Callable, Mapping

import numpy as np

from repro.core.acquisition import AcquisitionOptimizer
from repro.core.baselines import Optimizer
from repro.core.gp import GaussianProcess
from repro.core.parameters import ParameterSpace
from repro.obs import runtime as obs_runtime


class BayesianOptimizer(Optimizer):
    """GP + acquisition-function optimizer over a :class:`ParameterSpace`.

    Parameters
    ----------
    space:
        The search space.
    acquisition:
        'ei' (the paper's choice), 'pi', or 'ucb'.
    kernel:
        'matern52' (Spearmint's default), 'matern32', or 'rbf'.
    ard:
        Per-dimension lengthscales.  Defaults to isotropic for spaces
        above ``ard_max_dim`` dimensions, where 60 samples cannot
        identify 100 lengthscales.
    init_points:
        Size of the Latin-hypercube initial design.  Defaults to
        ``max(4, min(dim + 1, 10))``.
    initial_configs:
        Known configurations evaluated before the random design (e.g.
        the deployment's current defaults) — standard practice when
        tuning a production system from a known-good starting point.
    refit_every:
        Full ML-II refit schedule: every this many ``tell`` steps the
        hyperparameters are re-optimized and the posterior refactored
        from scratch (O(n³)); in between, each observation is folded in
        with an O(n²) rank-1 Cholesky update under frozen
        hyperparameters.  During the warm-up phase (seeded configs +
        initial design) every step refits, since small-n refits are
        cheap and early hyperparameter adaptation matters most.
        ``refit_every=1`` recovers the refit-everything-always
        behaviour.
    maximize:
        True for throughput-style objectives.
    liar:
        Fantasy strategy for pending (submitted-but-unmeasured)
        proposals, used by :meth:`ask_batch` to emit ``q > 1`` diverse
        suggestions per batch.  ``"constant"`` (the constant liar of
        Ginsbourger et al.): pending points are imputed the *worst*
        observed value, deterring the acquisition from re-proposing
        nearby while keeping it honest about unexplored regions.
        ``"mean"`` (the kriging believer): pending points are imputed
        the GP posterior mean, which collapses predictive variance at
        the pending point without biasing the mean surface.  Either
        way the surrogate is reconditioned (hyperparameters frozen) so
        the next proposal steers away from in-flight configurations —
        the Spearmint pending-job machinery the paper leaned on for
        cluster-scale evaluations (§III-C).
    hyper_inference:
        ``"ml2"`` (default): point-estimate hyperparameters by marginal
        likelihood.  ``"mcmc"``: slice-sample the hyperparameter
        posterior and average the acquisition over ``mcmc_samples``
        draws — Spearmint's integrated acquisition (§III-C's toolkit).
    screener:
        Optional candidate feasibility screen forwarded to the
        acquisition optimizer: a callable mapping the ``(M, dim)``
        unit-cube candidate pool to a boolean keep-mask, applied after
        acquisition scoring and *before* ranking/refinement.  Use
        :func:`repro.storm.analytic_batch.make_analytic_screener` to
        drop configurations the batch analytic model proves infeasible
        (executor capacity, batch timeout, memory) without spending GP
        refinement on them.  Opt-in and deliberately not serialized:
        :meth:`state_dict` round-trips produce an unscreened optimizer
        (reattach via ``optimizer.acq.screen = ...`` after
        :meth:`from_state_dict`), so checkpoint/resume behaviour of
        existing studies is unchanged.
    """

    def __init__(
        self,
        space: ParameterSpace,
        *,
        acquisition: str = "ei",
        kernel: str = "matern52",
        ard: bool | None = None,
        ard_max_dim: int = 25,
        init_points: int | None = None,
        initial_configs: list[Mapping[str, object]] | None = None,
        refit_every: int = 5,
        n_restarts: int = 2,
        maximize: bool = True,
        liar: str = "constant",
        seed: int | None = None,
        acq_candidates: int = 1024,
        hyper_inference: str = "ml2",
        mcmc_samples: int = 5,
        mcmc_burn_in: int = 10,
        screener: Callable[[np.ndarray], np.ndarray] | None = None,
    ) -> None:
        self.space = space
        if ard is None:
            ard = space.dim <= ard_max_dim
        self._kernel_name = kernel
        self._ard = ard
        self.gp = GaussianProcess(kernel, space.dim, ard=ard)
        if hyper_inference not in ("ml2", "mcmc"):
            raise ValueError(
                f"unknown hyper_inference {hyper_inference!r}; use 'ml2' or 'mcmc'"
            )
        self.hyper_inference = hyper_inference
        self.mcmc_samples = mcmc_samples
        self.mcmc_burn_in = mcmc_burn_in
        if hyper_inference == "mcmc":
            from repro.core.mcmc import IntegratedAcquisitionOptimizer

            self.acq: AcquisitionOptimizer = IntegratedAcquisitionOptimizer(
                acquisition=acquisition,
                n_candidates=acq_candidates,
                screen=screener,
            )
        else:
            self.acq = AcquisitionOptimizer(
                acquisition=acquisition,
                n_candidates=acq_candidates,
                screen=screener,
            )
        self.init_points = (
            init_points
            if init_points is not None
            else max(4, min(space.dim + 1, 10))
        )
        if self.init_points < 1:
            raise ValueError("init_points must be >= 1")
        if refit_every < 1:
            raise ValueError("refit_every must be >= 1")
        self.refit_every = refit_every
        self.n_restarts = n_restarts
        self.maximize = maximize
        if liar not in ("constant", "mean"):
            raise ValueError(f"unknown liar {liar!r}; use 'constant' or 'mean'")
        self.liar = liar
        self._seed = seed
        self._rng = np.random.default_rng(seed)
        self.X: list[np.ndarray] = []
        self.y: list[float] = []
        #: Aligned with ``y``: True where the target is a penalized
        #: imputation of a failed evaluation rather than a measurement.
        #: Imputations condition the GP (EI steers away from crash-prone
        #: regions) but are excluded from the statistics future
        #: imputations derive from — otherwise each failure would drag
        #: the "worst seen" down and spiral.
        self._failure_mask: list[bool] = []
        self._last_failure_reason = ""
        #: Aligned with ``y``: extra GP variance (standardized units)
        #: assigned to each observation.  Zero for fresh measurements;
        #: :meth:`retune_from_incumbent` inflates the entries of
        #: pre-drift observations so they inform without anchoring the
        #: posterior (docs/DRIFT.md).
        self._stale_var: list[float] = []
        self._trust_center: np.ndarray | None = None
        self._trust_radius: float | None = None
        self._initial_configs: list[np.ndarray] = []
        for config in initial_configs or []:
            space.validate(config)
            self._initial_configs.append(space.encode(config))
        self._init_design: list[np.ndarray] = []
        self._pending: np.ndarray | None = None
        #: In-flight proposals and their imputed (fantasy) values, in
        #: raw objective units.  Transient batch state — not serialized
        #: by :meth:`state_dict`, since the evaluations they stand in
        #: for cannot survive a pause/resume anyway.
        self._pending_X: list[np.ndarray] = []
        self._pending_y: list[float] = []
        self._n_fantasies_total = 0
        self._steps_since_refit = 0
        self._fit_seconds_total = 0.0
        self._last_pool_size = 0
        self._pool_size_total = 0
        self._n_proposals = 0
        self._refined_total = 0
        self._refine_iterations_total = 0
        self._last_acq_value: float | None = None

    # ------------------------------------------------------------------
    # Ask / tell
    # ------------------------------------------------------------------
    @property
    def n_observed(self) -> int:
        return len(self.y)

    def ask(self) -> dict[str, object]:
        """Propose the next configuration (idempotent until ``tell``).

        Order: seeded ``initial_configs``, then the Latin-hypercube
        design, then acquisition maximization over the GP posterior.
        In-flight proposals registered via :meth:`tell_pending` count
        toward the warm-up budget, so a batch drawn during warm-up
        hands out *distinct* design points rather than one point ``q``
        times.
        """
        if self._pending is not None:
            return self.space.decode(self._pending)
        n_seeded = len(self._initial_configs)
        n_known = len(self.X) + len(self._pending_X)
        if n_known < n_seeded:
            x = self._initial_configs[n_known]
        elif n_known < n_seeded + self.init_points:
            if not self._init_design:
                design = self.space.latin_hypercube(self.init_points, self._rng)
                self._init_design = [row for row in design]
            x = self._init_design[n_known - n_seeded]
        elif not self.gp.is_fitted:
            # Whole warm-up still in flight (large batch, no tells yet):
            # explore randomly rather than consult an unfitted surrogate.
            x = self.space.round_trip(self._rng.random(self.space.dim))
        else:
            x = self._propose()
        self._pending = np.asarray(x, dtype=float)
        return self.space.decode(self._pending)

    def ask_batch(self, n: int) -> list[dict[str, object]]:
        """Propose ``n`` diverse configurations for concurrent evaluation.

        Each proposal is conditioned on the previous ones through the
        ``liar`` fantasy strategy, so one batch spreads across the
        acquisition landscape instead of piling onto its argmax.
        """
        if n < 1:
            raise ValueError("n must be >= 1")
        batch: list[dict[str, object]] = []
        for _ in range(n):
            config = self.ask()
            self.tell_pending(config)
            batch.append(config)
        return batch

    def tell_pending(self, config: Mapping[str, object]) -> None:
        """Register an in-flight proposal with a fantasized value.

        The surrogate is reconditioned on observations + fantasies
        (hyperparameters frozen) whenever it is past warm-up, so the
        next :meth:`ask` proposes away from pending points.  The
        fantasy is retired by the matching :meth:`tell`.
        """
        self.space.validate(config)
        x = np.asarray(self.space.encode(config), dtype=float)
        self._pending_X.append(x)
        self._pending_y.append(self._fantasy_value(x))
        self._n_fantasies_total += 1
        self._pending = None
        past_warmup = len(self.X) >= len(self._initial_configs) + self.init_points
        if past_warmup and len(self.X) >= 2:
            with obs_runtime.current().tracer.span(
                "gp.fantasy_condition", n_pending=len(self._pending_X)
            ):
                self._fit_gp(optimize_hyperparams=False)

    def _fantasy_value(self, x: np.ndarray) -> float:
        """Imputed objective value for a pending point (raw units)."""
        if not self.y:
            return 0.0
        if self.liar == "mean" and self.gp.is_fitted:
            mean = float(self.gp.predict(x[None, :], return_std=False)[0])
            return mean if self.maximize else -mean
        # Constant liar: the worst observed value (also the "mean"
        # fallback while the GP is unfitted).
        return min(self.y) if self.maximize else max(self.y)

    def _remove_pending(self, x: np.ndarray) -> bool:
        """Retire the fantasy matching ``x``, if one is in flight."""
        for i, pending in enumerate(self._pending_X):
            if np.allclose(pending, x):
                del self._pending_X[i]
                del self._pending_y[i]
                return True
        return False

    def tell(self, config: Mapping[str, object], value: float) -> None:
        """Record a measurement and refresh the GP.

        Full ML-II refits follow the ``refit_every`` schedule; other
        steps fold the new observation into the cached Cholesky factor
        in O(n²) (:meth:`GaussianProcess.update`).  While fantasies are
        active the posterior mixes real and imputed targets, so those
        steps recondition on everything instead of rank-1 updating.

        A non-finite ``value`` is never fed to the GP — NaNs poison the
        whole posterior through the normalization statistics — and is
        rerouted to :meth:`tell_failure` instead.
        """
        if not np.isfinite(value):
            self.tell_failure(
                config, reason=f"non_finite: objective returned {value!r}"
            )
            return
        self._record(config, float(value), failed=False)

    def tell_failure(self, config: Mapping[str, object], reason: str = "") -> None:
        """Record a failed evaluation as a penalized imputation.

        The config enters the GP with the worst *real* observation
        minus a margin (plus, for minimization) — a finite, smooth
        penalty that steers EI away from crash-prone regions without
        the pathologies of the alternatives: dropping failures leaves
        the optimizer re-proposing them forever, and telling a literal
        0.0 wrecks the target normalization when real throughputs live
        in the millions (ContTune-style failures-as-signals treatment).
        """
        self._last_failure_reason = str(reason)
        self._record(config, self._failure_imputation(), failed=True)

    def _failure_imputation(self) -> float:
        """Penalized target for a failed evaluation (raw units)."""
        real = [v for v, bad in zip(self.y, self._failure_mask) if not bad]
        if not real:
            # Nothing measured yet: no scale to impute from.  Zero is
            # the natural floor for throughput-style objectives.
            return 0.0
        worst = min(real) if self.maximize else max(real)
        spread = max(real) - min(real)
        margin = 0.1 * spread if spread > 0 else max(1.0, 0.1 * abs(worst))
        return worst - margin if self.maximize else worst + margin

    def _record(
        self, config: Mapping[str, object], value: float, *, failed: bool
    ) -> None:
        self.space.validate(config)
        x = self.space.encode(config)
        self._remove_pending(np.asarray(x, dtype=float))
        self.X.append(x)
        self.y.append(float(value))
        self._failure_mask.append(failed)
        self._stale_var.append(0.0)
        self._pending = None
        if len(self.X) < 2:
            return
        tracer = obs_runtime.current().tracer
        t0 = time.perf_counter()
        self._steps_since_refit += 1
        in_warmup = len(self.X) <= len(self._initial_configs) + self.init_points + 1
        refit = (
            in_warmup
            or self._steps_since_refit >= self.refit_every
            or self.gp.n_observations == 0
        )
        if refit:
            self._steps_since_refit = 0
            with tracer.span("gp.refit", n_obs=len(self.X), warmup=in_warmup):
                self._fit_gp(optimize_hyperparams=True)
        elif not self._pending_X and self.gp.n_observations == len(self.X) - 1:
            with tracer.span("gp.rank1_update", n_obs=len(self.X)):
                self.gp.update(x, float(value) if self.maximize else -float(value))
        else:
            # Posterior covers fantasies, or history and posterior are
            # out of sync (manual surgery on X/y): recondition on
            # everything without touching hyperparameters.
            with tracer.span("gp.recondition", n_obs=len(self.X)):
                self._fit_gp(optimize_hyperparams=False)
        self._fit_seconds_total += time.perf_counter() - t0

    @property
    def done(self) -> bool:
        return False  # BO never exhausts its space

    @property
    def telemetry(self) -> dict[str, object]:
        """Per-run counters for the suggest fast path (Figure 7 style).

        Threaded into :class:`~repro.core.history.TuningResult.metadata`
        by :class:`~repro.core.loop.TuningLoop`.
        """
        return {
            "gp_fit_seconds_total": self._fit_seconds_total,
            "gp_full_refits": self.gp.n_full_fits,
            "gp_incremental_updates": self.gp.n_incremental_updates,
            "refit_every": self.refit_every,
            "acq_pool_size_last": self._last_pool_size,
            "acq_pool_size_mean": (
                self._pool_size_total / self._n_proposals
                if self._n_proposals
                else 0.0
            ),
            "n_proposals": self._n_proposals,
            "acq_refined_total": self._refined_total,
            "acq_refine_iterations_total": self._refine_iterations_total,
            "liar": self.liar,
            "fantasies_active": len(self._pending_X),
            "fantasies_total": self._n_fantasies_total,
            "failed_observations": sum(self._failure_mask),
            "last_failure_reason": self._last_failure_reason,
            "stale_observations": sum(1 for v in self._stale_var if v > 0.0),
            "trust_radius": self._trust_radius,
            "last_acquisition_value": self._last_acq_value,
        }

    @property
    def last_acquisition_value(self) -> float | None:
        """Acquisition value of the most recent model-driven proposal.

        ``None`` until the first post-warm-up :meth:`ask`.  A decaying
        series signals convergence (the surrogate sees no remaining
        expected improvement); :mod:`repro.core.diagnostics` tracks it
        per tell.
        """
        return self._last_acq_value

    def predict_config(
        self, config: Mapping[str, object], *, include_noise: bool = False
    ) -> tuple[float, float] | None:
        """Posterior predictive ``(mean, std)`` for one raw config.

        Values are in objective units with the ``maximize`` sign undone,
        so callers compare directly against measured values.  With
        ``include_noise`` the std covers the fitted observation noise —
        the right predictive interval for a *measurement* rather than
        the latent function.  Returns ``None`` while the surrogate is
        unfitted (warm-up), or when the config fails validation.
        """
        if not self.gp.is_fitted:
            return None
        try:
            self.space.validate(config)
        except (KeyError, ValueError):
            return None
        x = np.asarray(self.space.encode(config), dtype=float)[None, :]
        mean, std = self.gp.predict(x)
        sd = float(std[0])
        if include_noise:
            sd = float(np.hypot(sd, self.gp.observation_noise_std))
        mu = float(mean[0])
        return (mu if self.maximize else -mu, sd)

    def best(self) -> tuple[dict[str, object], float]:
        if not self.y:
            raise RuntimeError("no observations yet")
        idx = int(np.argmax(self.y) if self.maximize else np.argmin(self.y))
        return self.space.decode(self.X[idx]), self.y[idx]

    # ------------------------------------------------------------------
    # Continuous tuning (docs/DRIFT.md)
    # ------------------------------------------------------------------
    def retune_from_incumbent(
        self,
        config: Mapping[str, object],
        *,
        trust_radius: float | None = 0.15,
        stale_inflation: float = 4.0,
    ) -> None:
        """Prepare a conservative re-tune around ``config`` after drift.

        Every existing observation was measured under the *pre-drift*
        workload, so it is kept — the response surface moved, it did not
        vanish — but down-weighted by adding ``stale_inflation``
        standardized variance units to its GP noise term.  New proposals
        are confined to a unit-cube box of half-width ``trust_radius``
        around the (encoded) incumbent, so the loop keeps serving close
        to the last known-good configuration while it re-explores.
        ``trust_radius=None`` skips the box entirely — stale observations
        are still down-weighted, but proposals roam the full space; the
        right response when the shift is mild and the surface mostly
        intact.

        Repeated drift events compound: each call adds another
        ``stale_inflation`` to observations that were already stale.
        Call :meth:`clear_trust_region` to return to global search.
        """
        if trust_radius is not None and trust_radius <= 0.0:
            raise ValueError("trust_radius must be > 0")
        if stale_inflation < 0.0:
            raise ValueError("stale_inflation must be >= 0")
        center = np.asarray(self.space.encode(config), dtype=float)
        self._stale_var = [v + stale_inflation for v in self._stale_var]
        if trust_radius is None:
            self.clear_trust_region()
        else:
            self._trust_center = center
            self._trust_radius = float(trust_radius)
            self.acq.trust_region = (center, float(trust_radius))
        if self.X:
            self._fit_gp(optimize_hyperparams=len(self.X) >= 3)
            self._steps_since_refit = 0

    def clear_trust_region(self) -> None:
        """Drop the trust region; proposals roam the full space again."""
        self._trust_center = None
        self._trust_radius = None
        self.acq.trust_region = None

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _signed_y(self) -> np.ndarray:
        y = np.asarray(self.y, dtype=float)
        return y if self.maximize else -y

    def _signed_pending_y(self) -> np.ndarray:
        y = np.asarray(self._pending_y, dtype=float)
        return y if self.maximize else -y

    def _stale_y_err(self, n_pending: int) -> np.ndarray | None:
        """Per-point extra GP variance, or ``None`` when all fresh."""
        if not any(v > 0.0 for v in self._stale_var):
            return None
        return np.asarray(
            self._stale_var + [0.0] * n_pending, dtype=float
        )

    def _fit_gp(self, *, optimize_hyperparams: bool) -> None:
        """Condition the GP on real observations plus active fantasies."""
        X = np.vstack(self.X + self._pending_X)
        y = np.concatenate([self._signed_y(), self._signed_pending_y()])
        self.gp.fit(
            X,
            y,
            optimize_hyperparams=optimize_hyperparams,
            n_restarts=self.n_restarts,
            rng=self._rng,
            y_err=self._stale_y_err(len(self._pending_X)),
        )
        if self.hyper_inference == "mcmc" and optimize_hyperparams:
            from repro.core.mcmc import (
                IntegratedAcquisitionOptimizer,
                sample_gp_hyperparameters,
            )

            assert isinstance(self.acq, IntegratedAcquisitionOptimizer)
            post = self.gp._posterior
            if post is not None and len(post.y) >= 3:
                thetas = sample_gp_hyperparameters(
                    self.gp,
                    post.X,
                    post.y,
                    self.mcmc_samples,
                    burn_in=self.mcmc_burn_in,
                    rng=self._rng,
                )
                self.acq.set_theta_samples(thetas)

    def _propose(self) -> np.ndarray:
        y = self._signed_y()
        # EI's incumbent must be *achievable*: after a drift re-tune the
        # stale pre-drift maximum may sit far above anything the new
        # conditions allow, flattening the acquisition surface.  Rank
        # only fresh observations when any are stale (falling back to
        # the global best while none have been re-measured yet).
        fresh = np.flatnonzero(
            np.asarray([v == 0.0 for v in self._stale_var], dtype=bool)
        )
        if 0 < fresh.size < y.size:
            best_idx = int(fresh[np.argmax(y[fresh])])
        else:
            best_idx = int(np.argmax(y))
        with obs_runtime.current().tracer.span(
            "acq.propose", n_obs=len(self.X)
        ) as span:
            proposal = self.acq.propose(
                self.gp,
                self.space,
                best_x=self.X[best_idx],
                best_y=float(y[best_idx]),
                rng=self._rng,
            )
            span.set_attribute("n_candidates", proposal.n_candidates)
            span.set_attribute("n_refined", proposal.n_refined)
            span.set_attribute("refine_iterations", proposal.refine_iterations)
        self._last_pool_size = proposal.n_candidates
        self._pool_size_total += proposal.n_candidates
        self._n_proposals += 1
        self._refined_total += proposal.n_refined
        self._refine_iterations_total += proposal.refine_iterations
        self._last_acq_value = float(proposal.acquisition_value)
        x = proposal.x
        # Avoid re-sampling an already-measured grid point (or one
        # already in flight) exactly: perturb if the proposal
        # duplicates history or the pending set.
        seen = np.vstack(self.X + self._pending_X)
        seen_tol = 1e-8 + 1e-5 * np.abs(seen)
        if _matches_any_row(x, seen, seen_tol):
            for _ in range(16):
                jittered = np.clip(
                    x + self._rng.normal(0.0, 0.1, size=self.space.dim), 0.0, 1.0
                )
                jittered = self.space.round_trip(jittered)
                if not _matches_any_row(jittered, seen, seen_tol):
                    return jittered
            return self.space.round_trip(self._rng.random(self.space.dim))
        return x

    # ------------------------------------------------------------------
    # Pause / resume (Spearmint feature, §III-C)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, object]:
        """Full serializable optimizer state (see ``from_state_dict``)."""
        return {
            "space": self.space.as_dict(),
            "acquisition": self.acq.acquisition,
            "kernel": self._kernel_name,
            "ard": self._ard,
            "init_points": self.init_points,
            "refit_every": self.refit_every,
            "n_restarts": self.n_restarts,
            "maximize": self.maximize,
            "liar": self.liar,
            "seed": self._seed,
            "acq_candidates": self.acq.n_candidates,
            "hyper_inference": self.hyper_inference,
            "mcmc_samples": self.mcmc_samples,
            "mcmc_burn_in": self.mcmc_burn_in,
            "X": [list(map(float, x)) for x in self.X],
            "y": list(map(float, self.y)),
            "failure_mask": [bool(b) for b in self._failure_mask],
            "initial_configs": [list(map(float, x)) for x in self._initial_configs],
            "init_design": [list(map(float, x)) for x in self._init_design],
            "rng_state": self._rng.bit_generator.state,
            "kernel_theta": list(map(float, self.gp.kernel.theta)),
            "log_noise": self.gp._log_noise,
            "steps_since_refit": self._steps_since_refit,
            "y_mean": self.gp._y_mean,
            "y_std": self.gp._y_std,
            "stale_variance": list(map(float, self._stale_var)),
            "trust_center": (
                None
                if self._trust_center is None
                else list(map(float, self._trust_center))
            ),
            "trust_radius": self._trust_radius,
        }

    @classmethod
    def from_state_dict(cls, state: Mapping[str, object]) -> "BayesianOptimizer":
        space = ParameterSpace.from_dict(state["space"])  # type: ignore[arg-type]
        optimizer = cls(
            space,
            acquisition=str(state["acquisition"]),
            kernel=str(state["kernel"]),
            ard=bool(state["ard"]),
            init_points=int(state["init_points"]),  # type: ignore[arg-type]
            refit_every=int(state["refit_every"]),  # type: ignore[arg-type]
            n_restarts=int(state["n_restarts"]),  # type: ignore[arg-type]
            maximize=bool(state["maximize"]),
            liar=str(state.get("liar", "constant")),
            seed=state["seed"],  # type: ignore[arg-type]
            acq_candidates=int(state["acq_candidates"]),  # type: ignore[arg-type]
            hyper_inference=str(state.get("hyper_inference", "ml2")),
            mcmc_samples=int(state.get("mcmc_samples", 5)),  # type: ignore[arg-type]
            mcmc_burn_in=int(state.get("mcmc_burn_in", 10)),  # type: ignore[arg-type]
        )
        optimizer.X = [np.asarray(x, dtype=float) for x in state["X"]]  # type: ignore[union-attr]
        optimizer.y = [float(v) for v in state["y"]]  # type: ignore[union-attr]
        optimizer._failure_mask = [
            bool(b)
            for b in state.get("failure_mask", [False] * len(optimizer.y))  # type: ignore[arg-type]
        ]
        optimizer._initial_configs = [
            np.asarray(x, dtype=float) for x in state.get("initial_configs", [])  # type: ignore[union-attr]
        ]
        optimizer._init_design = [
            np.asarray(x, dtype=float) for x in state["init_design"]  # type: ignore[union-attr]
        ]
        optimizer._rng.bit_generator.state = state["rng_state"]
        optimizer.gp.kernel.theta = np.asarray(state["kernel_theta"], dtype=float)
        optimizer.gp._log_noise = float(state["log_noise"])  # type: ignore[arg-type]
        optimizer._steps_since_refit = int(state.get("steps_since_refit", 0))  # type: ignore[arg-type]
        optimizer._stale_var = [
            float(v)
            for v in state.get("stale_variance", [0.0] * len(optimizer.y))  # type: ignore[arg-type]
        ]
        trust_center = state.get("trust_center")
        if trust_center is not None:
            optimizer._trust_center = np.asarray(trust_center, dtype=float)
            optimizer._trust_radius = float(state["trust_radius"])  # type: ignore[arg-type]
            optimizer.acq.trust_region = (
                optimizer._trust_center,
                optimizer._trust_radius,
            )
        if optimizer.X:
            if "y_mean" in state:
                # Recondition under the exact normalization the paused
                # run was using (it may be frozen mid-refit-cycle), so
                # resumed trajectories match the uninterrupted ones.
                gp = optimizer.gp
                gp._y_mean = float(state["y_mean"])  # type: ignore[arg-type]
                gp._y_std = float(state["y_std"])  # type: ignore[arg-type]
                gp._y_err = optimizer._stale_y_err(0)
                z = (optimizer._signed_y() - gp._y_mean) / gp._y_std
                gp._refresh_posterior(np.vstack(optimizer.X), z)
            else:  # states saved before normalization was serialized
                optimizer._fit_gp(optimize_hyperparams=False)
        return optimizer

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.state_dict(), default=_json_default))

    @classmethod
    def load(cls, path: str | Path) -> "BayesianOptimizer":
        return cls.from_state_dict(json.loads(Path(path).read_text()))


def _json_default(obj: object) -> object:
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def _matches_any_row(x: np.ndarray, seen: np.ndarray, seen_tol: np.ndarray) -> bool:
    """``any(np.allclose(x, row) for row in seen)`` in one comparison.

    ``seen_tol`` is ``1e-8 + 1e-5 * np.abs(seen)``: ``np.allclose``'s
    default ``atol + rtol * |row|``, computed once per proposal.  All
    coordinates are finite, so its inf/NaN special cases never apply.
    """
    return bool((np.abs(x - seen) <= seen_tol).all(axis=1).any())
