"""Continuous tuning across workload drift (docs/DRIFT.md).

One :class:`~repro.core.loop.TuningLoop` pass answers the paper's
question — find a good configuration for *this* workload.  A deployed
tuner faces the follow-up: the workload moves (diurnal load, flash
crowds, skew migration — :mod:`repro.storm.schedule`), and yesterday's
incumbent slowly stops being good.  :class:`ContinuousTuningLoop`
structures tuning into *epochs* along workload time.  At each epoch
boundary it re-measures the incumbent under current conditions and
feeds the measurement to a drift detector
(:class:`~repro.core.drift.PageHinkleyDetector`).  On detection it
either

* **continuous** (the interesting mode): conservatively re-tunes from
  the incumbent — a trust region confines new proposals near the last
  known-good configuration, stale pre-drift observations stay in the
  GP but with inflated noise
  (:meth:`~repro.core.optimizer.BayesianOptimizer.
  retune_from_incumbent`), and the fresh incumbent measurement anchors
  the posterior at current conditions; or
* **cold**: throws the optimizer away and restarts from scratch, the
  paper's re-run-the-campaign answer and this module's baseline.

``benchmarks/bench_drift.py`` compares the two by recovery time —
observations spent after a drift event before the tuner is back within
5% of the post-drift optimum.

Each epoch's inner loop checkpoints through an open
:class:`~repro.store.base.StudyStore` handed in as ``store=`` (run
names ``epoch-NNNN``), and the epoch-level state — detector,
incumbent, detections — lands in the store's ``continuous`` state
document (the *sidecar*), written atomically at each epoch boundary.
The loop never opens or closes the store: its caller owns the handle.
A SIGKILL at any point resumes byte-identically: completed epochs reload
from their checkpoints, the partial epoch resumes exactly via the inner
loop's optimizer snapshot, and the epoch-boundary work (monitor
measurement, detection, re-tune) is deterministic given the sidecar
state, so re-doing it reproduces the uninterrupted run.  A finished
campaign also saves its renumbered observations as the cell's results,
so ``store ls`` reads it as done.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Mapping

from repro.core.baselines import Optimizer
from repro.core.drift import PageHinkleyDetector
from repro.core.executor import call_objective
from repro.core.history import Observation, TuningResult
from repro.core.loop import Objective, TuningLoop
from repro.core.seeding import derive_seed
from repro.obs import runtime as obs_runtime

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core ≤ store)
    from repro.store.base import StudyStore

SIDECAR_VERSION = 1
#: Name of the epoch-state document (the sidecar) in the store.
STATE_NAME = "continuous"

MODES = ("continuous", "cold")


@dataclass
class EpochRecord:
    """One epoch's boundary events plus its tuning observations."""

    index: int
    workload_time_s: float
    monitor_value: float | None = None
    drift_detected: bool = False
    detector_statistic: float = 0.0
    retuned: bool = False
    restarted: bool = False
    #: True when this epoch's best observation replaced the incumbent.
    adopted: bool = False
    observations: list[Observation] = field(default_factory=list)

    @property
    def best_value(self) -> float:
        values = [o.value for o in self.observations if not o.failed]
        return max(values) if values else float("nan")

    def boundary_as_dict(self) -> dict[str, object]:
        """The epoch-boundary fields (observations live in the epoch's
        own checkpoint, not the sidecar)."""
        return {
            "index": self.index,
            "workload_time_s": self.workload_time_s,
            "monitor_value": self.monitor_value,
            "drift_detected": self.drift_detected,
            "detector_statistic": self.detector_statistic,
            "retuned": self.retuned,
            "restarted": self.restarted,
            "adopted": self.adopted,
        }

    @classmethod
    def from_boundary_dict(cls, data: Mapping[str, object]) -> "EpochRecord":
        monitor = data.get("monitor_value")
        return cls(
            index=int(data["index"]),  # type: ignore[arg-type]
            workload_time_s=float(data["workload_time_s"]),  # type: ignore[arg-type]
            monitor_value=None if monitor is None else float(monitor),  # type: ignore[arg-type]
            drift_detected=bool(data.get("drift_detected", False)),
            detector_statistic=float(data.get("detector_statistic", 0.0)),  # type: ignore[arg-type]
            retuned=bool(data.get("retuned", False)),
            restarted=bool(data.get("restarted", False)),
            adopted=bool(data.get("adopted", False)),
        )


@dataclass
class ContinuousTuningResult:
    """The outcome of a multi-epoch continuous-tuning run."""

    mode: str
    strategy: str
    epochs: list[EpochRecord] = field(default_factory=list)
    #: All tuning observations, globally renumbered across epochs — the
    #: stream :func:`~repro.core.checkpoint.canonical_history` compares
    #: for the kill-and-resume acceptance criterion.
    observations: list[Observation] = field(default_factory=list)
    detections: list[int] = field(default_factory=list)
    metadata: dict[str, object] = field(default_factory=dict)

    @property
    def n_steps(self) -> int:
        return len(self.observations)

    @property
    def best_value(self) -> float:
        values = [o.value for o in self.observations if not o.failed]
        if not values:
            raise ValueError("no successful observations")
        return max(values)


class ContinuousTuningLoop:
    """Epoch-structured tuning with drift detection and re-tuning.

    ``make_optimizer`` builds a fresh optimizer from a seed; it is
    called once at the start and, in cold mode, again after every
    detection.  ``objective`` should expose ``set_workload_time`` (as
    :class:`~repro.storm.objective.StormObjective` does when built with
    a :class:`~repro.storm.schedule.WorkloadSchedule`); objectives
    without it simply tune a stationary surface.  Epoch ``e`` runs at
    workload time ``start_time_s + e * epoch_duration_s``.

    ``steps_per_epoch`` bounds each epoch's inner tuning loop;
    ``initial_steps`` (default ``steps_per_epoch``) lets the first
    epoch — the only one that starts from nothing in continuous mode —
    spend a larger warm-up budget.

    ``store`` (an open :class:`~repro.store.base.StudyStore`, owned and
    closed by the caller) makes the loop resumable: epochs checkpoint
    under ``(study, cell)``; without it the loop keeps nothing.
    """

    def __init__(
        self,
        objective: Objective,
        make_optimizer: Callable[[int | None], Optimizer],
        *,
        epochs: int = 6,
        epoch_duration_s: float = 600.0,
        steps_per_epoch: int = 8,
        initial_steps: int | None = None,
        mode: str = "continuous",
        detector: PageHinkleyDetector | None = None,
        seed: int | None = None,
        store: "StudyStore | None" = None,
        study: str = "continuous",
        cell: str = "",
        strategy_name: str | None = None,
        trust_radius: float = 0.15,
        mild_trust_radius: float | None = None,
        stale_inflation: float = 4.0,
        severe_deviation: float = 0.35,
        start_time_s: float = 0.0,
    ) -> None:
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        if epochs < 1:
            raise ValueError("epochs must be >= 1")
        if epoch_duration_s <= 0:
            raise ValueError("epoch_duration_s must be > 0")
        if steps_per_epoch < 1:
            raise ValueError("steps_per_epoch must be >= 1")
        if initial_steps is not None and initial_steps < 1:
            raise ValueError("initial_steps must be >= 1")
        self.objective = objective
        self.make_optimizer = make_optimizer
        self.epochs = epochs
        self.epoch_duration_s = float(epoch_duration_s)
        self.steps_per_epoch = steps_per_epoch
        self.initial_steps = (
            steps_per_epoch if initial_steps is None else initial_steps
        )
        self.mode = mode
        self.detector = detector if detector is not None else PageHinkleyDetector()
        self.seed = seed
        self.study = study
        self.cell = cell
        self.store = store
        self.strategy_name = strategy_name or f"continuous-{mode}"
        self.trust_radius = float(trust_radius)
        self.mild_trust_radius = (
            None if mild_trust_radius is None else float(mild_trust_radius)
        )
        self.stale_inflation = float(stale_inflation)
        self.severe_deviation = float(severe_deviation)
        self.start_time_s = float(start_time_s)

    # ------------------------------------------------------------------
    # Seeds and paths
    # ------------------------------------------------------------------
    def _opt_seed(self, epoch: int) -> int | None:
        if self.seed is None:
            return None
        return derive_seed(self.seed, "optimizer", epoch)

    def _epoch_seed(self, epoch: int) -> int | None:
        if self.seed is None:
            return None
        return derive_seed(self.seed, "epoch", epoch)

    def _monitor_seed(self, epoch: int) -> int | None:
        if self.seed is None:
            return None
        return derive_seed(self.seed, "monitor", epoch)

    @staticmethod
    def _epoch_run(epoch: int) -> str:
        return f"epoch-{epoch:04d}"

    def _epoch_slot(self, epoch: int):
        if self.store is None:
            return None
        return self.store.checkpoint_slot(
            self.study, self.cell, self._epoch_run(epoch)
        )

    # ------------------------------------------------------------------
    # Epoch boundary
    # ------------------------------------------------------------------
    def _set_workload_time(self, t_s: float) -> None:
        set_time = getattr(self.objective, "set_workload_time", None)
        if callable(set_time):
            set_time(t_s)

    def _monitor_incumbent(
        self, config: Mapping[str, object], epoch: int
    ) -> tuple[float, bool]:
        """Re-measure the incumbent under current conditions."""
        value, run, _ = call_objective(
            self.objective, config, self._monitor_seed(epoch)
        )
        failed = bool(getattr(run, "failed", False)) or not math.isfinite(value)
        return (value if math.isfinite(value) else 0.0), failed

    def _epoch_boundary(
        self,
        epoch: int,
        record: EpochRecord,
        optimizer: Optimizer,
        incumbent: Mapping[str, object],
        incumbent_value: float,
        result: ContinuousTuningResult,
    ) -> tuple[Optimizer, float]:
        """Monitor the incumbent, update the detector, react to drift."""
        ctx = obs_runtime.current()
        value, failed = self._monitor_incumbent(incumbent, epoch)
        # A failed incumbent measurement reads as a collapse to zero:
        # the strongest possible drift signal.
        drifted = self.detector.update(0.0 if failed else value)
        record.monitor_value = None if failed else value
        record.detector_statistic = float(self.detector.statistic)
        ctx.tracer.event(
            "drift.monitor",
            epoch=epoch,
            value=value,
            failed=failed,
            statistic=record.detector_statistic,
        )
        ctx.metrics.counter("drift.monitors").inc()
        if not drifted:
            # The trust region is a *recovery* device: it confines the
            # epoch right after a detection.  Once the incumbent
            # re-measures clean, release the optimizer back to global
            # search — under slow drift (diurnal) the optimum keeps
            # walking, and a permanent box around the old incumbent
            # would pin tuning to its ceiling.
            clear = getattr(optimizer, "clear_trust_region", None)
            if callable(clear):
                clear()
            return optimizer, incumbent_value
        record.drift_detected = True
        result.detections.append(epoch)
        ctx.tracer.event(
            "drift.detected",
            epoch=epoch,
            statistic=record.detector_statistic,
            mode=self.mode,
        )
        ctx.metrics.counter("drift.detections").inc()
        # Re-anchor the incumbent's value estimate at post-drift
        # conditions — the pre-drift estimate may now be unreachable,
        # and keeping it would freeze the incumbent forever.
        incumbent_value = 0.0 if failed else value
        if self.mode == "continuous":
            retune = getattr(optimizer, "retune_from_incumbent", None)
            if callable(retune):
                # Grade the response by severity.  A severe collapse
                # (flash crowd, skew migration) gets the tight trust
                # region: the incumbent's neighborhood is the best known
                # starting point and serving quality matters.  A mild
                # shift (early diurnal drift) skips the box — the
                # surface is mostly intact, so down-weighted stale
                # observations plus global search recover faster than a
                # box capped at the old incumbent's ceiling.
                severity = -float(getattr(self.detector, "last_deviation", 0.0))
                radius = (
                    self.trust_radius
                    if severity >= self.severe_deviation
                    else self.mild_trust_radius
                )
                retune(
                    incumbent,
                    trust_radius=radius,
                    stale_inflation=self.stale_inflation,
                )
                record.retuned = True
            if not failed:
                # Anchor the posterior at post-drift conditions: the
                # monitor measurement is the one fresh data point.
                optimizer.tell(incumbent, value)
        else:
            optimizer = self.make_optimizer(self._opt_seed(epoch))
            record.restarted = True
        self.detector.reset()
        # Seed the re-armed test with the post-drift measurement so the
        # next boundary has a reference under current conditions.
        self.detector.update(0.0 if failed else value)
        return optimizer, incumbent_value

    # ------------------------------------------------------------------
    # Sidecar checkpointing
    # ------------------------------------------------------------------
    def _write_sidecar(
        self,
        epochs_completed: int,
        incumbent: Mapping[str, object] | None,
        incumbent_value: float,
        result: ContinuousTuningResult,
    ) -> None:
        state_dict = getattr(self.detector, "state_dict", None)
        data = {
            "version": SIDECAR_VERSION,
            "mode": self.mode,
            "strategy": self.strategy_name,
            "seed": self.seed,
            "epochs": self.epochs,
            "epochs_completed": epochs_completed,
            "detector": dict(state_dict()) if callable(state_dict) else None,
            "incumbent_config": None if incumbent is None else dict(incumbent),
            "incumbent_value": (
                None if incumbent is None else float(incumbent_value)
            ),
            "detections": list(result.detections),
            "epoch_records": [
                rec.boundary_as_dict() for rec in result.epochs
            ],
        }
        assert self.store is not None
        self.store.save_state(self.study, self.cell, STATE_NAME, data)

    def _resume(
        self, result: ContinuousTuningResult, optimizer: Optimizer
    ) -> tuple[int, Optimizer, dict[str, object] | None, float]:
        """Restore epoch-level state from the sidecar, if present.

        Returns ``(next_epoch, optimizer, incumbent_config,
        incumbent_value)``.
        Completed epochs reload their observations from the retained
        per-epoch checkpoints; the optimizer is rebuilt from the last
        completed epoch's snapshot (exact resume).  The partially-run
        epoch, if any, is re-entered normally — its inner loop resumes
        from its own checkpoint.
        """
        assert self.store is not None
        data = self.store.load_state(self.study, self.cell, STATE_NAME)
        if data is None:
            return 0, optimizer, None, float("-inf")
        if data.get("version") != SIDECAR_VERSION:
            return 0, optimizer, None, float("-inf")
        if data.get("mode") != self.mode or data.get("seed") != self.seed:
            sidecar = self.store.address(self.study, self.cell, STATE_NAME)
            raise ValueError(
                f"sidecar {sidecar} was written by a run "
                f"with mode={data.get('mode')!r} seed={data.get('seed')!r}; "
                f"this run has mode={self.mode!r} seed={self.seed!r}"
            )
        completed = int(data.get("epochs_completed", 0))
        if completed < 1:
            return 0, optimizer, None, float("-inf")
        load = getattr(self.detector, "load_state_dict", None)
        if callable(load) and data.get("detector") is not None:
            load(data["detector"])
        result.detections.extend(int(e) for e in data.get("detections", []))
        for boundary in data.get("epoch_records", [])[:completed]:
            record = EpochRecord.from_boundary_dict(boundary)
            checkpoint = self.store.load_checkpoint(
                self.study, self.cell, self._epoch_run(record.index)
            )
            if checkpoint is None:
                raise RuntimeError(
                    f"sidecar lists epoch {record.index} as completed but "
                    f"its checkpoint "
                    f"{self._epoch_slot(record.index).describe()} is "
                    "missing or unreadable"
                )
            record.observations = list(checkpoint.observations)
            self._append_epoch(result, record)
        last = self.store.load_checkpoint(
            self.study, self.cell, self._epoch_run(completed - 1)
        )
        if last is not None and last.optimizer_state is not None:
            from_state = getattr(type(optimizer), "from_state_dict", None)
            if callable(from_state):
                optimizer = from_state(last.optimizer_state)
        incumbent = data.get("incumbent_config")
        raw_value = data.get("incumbent_value")
        incumbent_value = float("-inf") if raw_value is None else float(raw_value)
        obs_runtime.current().tracer.event(
            "drift.resume", epochs_completed=completed
        )
        return completed, optimizer, incumbent, incumbent_value

    # ------------------------------------------------------------------
    def _append_epoch(
        self, result: ContinuousTuningResult, record: EpochRecord
    ) -> None:
        result.epochs.append(record)
        base = len(result.observations)
        result.observations.extend(
            dataclasses.replace(obs, step=base + i)
            for i, obs in enumerate(record.observations)
        )

    @staticmethod
    def _epoch_best(
        record: EpochRecord,
    ) -> tuple[float, Mapping[str, object]] | None:
        best: tuple[float, Mapping[str, object]] | None = None
        for obs in record.observations:
            if obs.failed:
                continue
            if best is None or obs.value > best[0]:
                best = (obs.value, obs.config)
        return best

    def run(self) -> ContinuousTuningResult:
        ctx = obs_runtime.current()
        result = ContinuousTuningResult(mode=self.mode, strategy=self.strategy_name)
        optimizer = self.make_optimizer(self._opt_seed(0))
        incumbent: dict[str, object] | None = None
        incumbent_value = float("-inf")
        start_epoch = 0
        if self.store is not None:
            start_epoch, optimizer, incumbent, incumbent_value = self._resume(
                result, optimizer
            )
        for epoch in range(start_epoch, self.epochs):
            t_epoch = self.start_time_s + epoch * self.epoch_duration_s
            with ctx.tracer.span(
                "drift.epoch", epoch=epoch, workload_time_s=t_epoch
            ) as span:
                self._set_workload_time(t_epoch)
                record = EpochRecord(index=epoch, workload_time_s=t_epoch)
                if epoch > 0 and incumbent is not None:
                    optimizer, incumbent_value = self._epoch_boundary(
                        epoch, record, optimizer, incumbent, incumbent_value,
                        result,
                    )
                inner = TuningLoop(
                    self.objective,
                    optimizer,
                    max_steps=(
                        self.initial_steps if epoch == 0 else self.steps_per_epoch
                    ),
                    strategy_name=self.strategy_name,
                    seed=self._epoch_seed(epoch),
                    checkpoint=self._epoch_slot(epoch),
                )
                epoch_result = inner.run()
                # Exact resume may have rebuilt the optimizer object.
                optimizer = inner.optimizer
                record.observations = list(epoch_result.observations)
                self._append_epoch(result, record)
                # The incumbent is *sticky*: it changes only when an
                # epoch produces something measurably better.  The
                # monitor series tracks re-measurements of one fixed
                # configuration, so adopting a new incumbent restarts
                # the series (seeded with the adoption value as its
                # reference) — otherwise the detector would fire on the
                # tuner's own improvements instead of on the workload.
                best = self._epoch_best(record)
                if best is not None and best[0] > incumbent_value:
                    incumbent = dict(best[1])
                    incumbent_value = float(best[0])
                    record.adopted = True
                    self.detector.reset()
                    self.detector.update(incumbent_value)
                span.set_attribute("drift_detected", record.drift_detected)
                span.set_attribute("best_value", record.best_value)
            ctx.metrics.counter("drift.epochs").inc()
            if ctx.enabled:
                # Intermediate snapshot + flush: a long-running campaign's
                # trace always ends (so far) with a current metrics record,
                # which `obs export --format openmetrics` serves to a
                # textfile scraper while the loop is still tuning.
                ctx.emit({"type": "metrics", "snapshot": ctx.metrics.snapshot()})
                for sink in ctx.sinks:
                    flush = getattr(sink, "flush", None)
                    if callable(flush):
                        flush()
            if self.store is not None:
                self._write_sidecar(epoch + 1, incumbent, incumbent_value, result)
        if not result.observations:
            raise RuntimeError("continuous tuning produced no observations")
        result.metadata.update(
            {
                "mode": self.mode,
                "epochs": self.epochs,
                "epoch_duration_s": self.epoch_duration_s,
                "steps_per_epoch": self.steps_per_epoch,
                "initial_steps": self.initial_steps,
                "trust_radius": self.trust_radius,
                "stale_inflation": self.stale_inflation,
                "severe_deviation": self.severe_deviation,
                "start_time_s": self.start_time_s,
                "n_detections": len(result.detections),
                "resumed_epochs": start_epoch,
            }
        )
        # A re-run of a finished campaign writes nothing, unless the
        # campaign finished before its results were saved.
        if self.store is not None and (
            start_epoch < self.epochs
            or not self.store.has_results(self.study, self.cell)
        ):
            self.store.save_results(
                self.study,
                self.cell,
                [
                    TuningResult(
                        strategy=self.strategy_name,
                        observations=list(result.observations),
                        metadata=dict(result.metadata),
                    )
                ],
            )
        return result
