"""The tuning loop: drive an optimizer against a black-box objective.

Mirrors the paper's experimental procedure (§V-A): up to ``max_steps``
evaluation runs per pass (60, or 180 for the bo180 runs); per-step
optimizer wall time recorded (Figure 7); the best configuration
re-measured ``repeat_best`` times at the end (30 in the paper) to give
the mean/min/max bars of Figures 4 and 8.

The loop is a *pending-set event loop* over a pluggable evaluation
executor (:mod:`repro.core.executor`): a fill phase tops the in-flight
set up to ``batch_size`` proposals (via the optimizer's batch ask/tell
protocol), then a collect phase waits for any one evaluation to finish
and tells its result back.  With the default serial executor and
``batch_size=1`` this degenerates to the classic one-ask/one-evaluate/
one-tell cycle — identical objective call order, identical results.
With a concurrent executor the suggest and evaluate phases overlap, the
way the paper's Spearmint driver proposed configurations while earlier
cluster runs were still in flight.

Every run reports through :mod:`repro.obs`: the whole pass runs inside
a ``tuning.run`` span; each fill emits a ``tuning.suggest`` span and
each completion a ``tuning.step`` span wrapping ``tuning.evaluate`` /
``tuning.tell``.  Per-step timings, the in-flight gauge
(``tuning.pending``) and executor queue histograms land in a per-run
metrics registry whose snapshot becomes
``TuningResult.metadata["obs_metrics"]`` (and merges into the active
session registry, so studies aggregate across cells).  With no session
active all of this is the no-op fast path.
"""

from __future__ import annotations

import dataclasses
import math
import time
from typing import Callable, Mapping

from repro.core.baselines import Optimizer
from repro.core.checkpoint import CheckpointSlot, TuningCheckpoint
from repro.core.executor import EvaluationExecutor, SerialExecutor
from repro.core.history import Observation, TuningResult
from repro.core.resilience import ResilientExecutor, RetryPolicy
from repro.core.seeding import derive_seed
from repro.obs import runtime as obs_runtime
from repro.obs.metrics import MetricsRegistry

Objective = Callable[[Mapping[str, object]], float]


def _coerce_telemetry(telemetry: object) -> dict[str, object] | None:
    """Best-effort view of an optimizer's telemetry as a plain dict.

    Accepts mappings, dataclasses, and attribute-bag objects; returns
    None only when no dict view exists at all (so non-conforming
    telemetry is preserved rather than silently dropped).
    """
    if telemetry is None:
        return None
    if isinstance(telemetry, Mapping):
        return dict(telemetry)
    if dataclasses.is_dataclass(telemetry) and not isinstance(telemetry, type):
        return dataclasses.asdict(telemetry)
    try:
        return dict(vars(telemetry))
    except TypeError:
        return None


def _failure_fields(run: object) -> dict[str, object]:
    """Diagnosable failure detail from one measurement record.

    ``run`` is the record the evaluation returned alongside its scalar
    (a :class:`~repro.storm.metrics.MeasuredRun` for Storm objectives;
    None for plain callables).  Extracts the failure reason plus the
    bottleneck detail the engine reported — the argmax of per-operator
    stage times when available, else the binding throughput cap.
    """
    if run is None:
        return {}
    fields: dict[str, object] = {}
    if getattr(run, "failed", False):
        fields["failed"] = True
        fields["failure_reason"] = str(getattr(run, "failure_reason", ""))
    details = getattr(run, "details", None)
    if isinstance(details, Mapping):
        stage_times = details.get("stage_times_ms")
        if isinstance(stage_times, Mapping) and stage_times:
            fields["bottleneck"] = max(stage_times, key=stage_times.get)  # type: ignore[arg-type]
        elif details.get("limiting_cap"):
            fields["bottleneck"] = str(details["limiting_cap"])
    return fields


class TuningLoop:
    """Run one optimizer against one objective for a step budget.

    ``patience`` optionally stops the loop once the best observed value
    has not improved by more than ``min_improvement`` (relative) for
    that many consecutive steps — a convergence cut-off for production
    use.  The paper's experiments always spend the full budget
    (``patience=None``), which Figure 5 then analyses post hoc.

    ``executor`` selects where evaluations run (default: inline on the
    calling thread).  ``batch_size`` bounds the in-flight proposal set;
    it defaults to the executor's worker count, so a threaded executor
    with 4 workers keeps 4 evaluations in flight.  At ``batch_size=1``
    proposals come from plain ``ask()`` — bit-identical to the classic
    serial loop; larger batches use ``ask_batch`` and the optimizer's
    pending-point machinery.  ``seed`` enables per-evaluation noise
    seeds (derived per submission index via
    :func:`~repro.core.seeding.derive_seed`), which make a concurrent
    run's observations an order-independent replay of the serial run.
    """

    def __init__(
        self,
        objective: Objective,
        optimizer: Optimizer,
        *,
        max_steps: int = 60,
        repeat_best: int = 0,
        strategy_name: str | None = None,
        patience: int | None = None,
        min_improvement: float = 0.01,
        executor: EvaluationExecutor | None = None,
        batch_size: int | None = None,
        seed: int | None = None,
        resilience: RetryPolicy | None = None,
        checkpoint: CheckpointSlot | None = None,
        diagnostics: bool | None = None,
    ) -> None:
        if max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if repeat_best < 0:
            raise ValueError("repeat_best must be >= 0")
        if patience is not None and patience < 1:
            raise ValueError("patience must be >= 1")
        if min_improvement < 0:
            raise ValueError("min_improvement must be >= 0")
        if batch_size is not None and batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.objective = objective
        self.optimizer = optimizer
        self.max_steps = max_steps
        self.repeat_best = repeat_best
        self.strategy_name = strategy_name or type(optimizer).__name__
        self.patience = patience
        self.min_improvement = min_improvement
        self.executor = executor
        self.batch_size = batch_size
        self.seed = seed
        #: When set, evaluations run under retry/timeout/circuit-breaker
        #: policy (:mod:`repro.core.resilience`): the loop wraps its
        #: executor in a :class:`ResilientExecutor`.
        self.resilience = resilience
        #: When set, the loop checkpoints history + optimizer state to
        #: this slot after every tell, and resumes from it when it holds
        #: one (docs/ROBUSTNESS.md) — typically a study-store address
        #: (:meth:`repro.store.base.StudyStore.checkpoint_slot`).
        self.checkpoint: CheckpointSlot | None = checkpoint
        #: Online model-quality diagnostics (docs/OBSERVABILITY.md
        #: §diagnostics).  ``None`` (default) follows the obs session:
        #: active when one is, off when not — keeping the no-session
        #: path inside the <2% overhead budget.  ``True``/``False``
        #: force it either way.
        self.diagnostics = diagnostics

    def _eval_seed(self, stream: str, index: int) -> int | None:
        if self.seed is None:
            return None
        return derive_seed(self.seed, stream, index)

    # ------------------------------------------------------------------
    # Crash-safe checkpointing (docs/ROBUSTNESS.md)
    # ------------------------------------------------------------------
    def _resume(self, result: TuningResult) -> int:
        """Restore state from the checkpoint slot; completed step count.

        Exact resume when the checkpoint carries an optimizer snapshot
        and the optimizer type can rebuild from it (same RNG stream,
        same surrogate state — the next proposal is the one the
        uninterrupted run would have made); otherwise every completed
        observation is re-told into the fresh optimizer (replay
        resume).  Per-evaluation seeds key off the *issued index*, so
        post-resume evaluations draw the same noise and fault streams
        either way.
        """
        if self.checkpoint is None:
            return 0
        checkpoint = self.checkpoint.load()
        if checkpoint is None or not checkpoint.observations:
            return 0
        restored = False
        if checkpoint.optimizer_state is not None:
            from_state = getattr(type(self.optimizer), "from_state_dict", None)
            if callable(from_state):
                self.optimizer = from_state(checkpoint.optimizer_state)
                restored = True
        if not restored:
            for obs in checkpoint.observations:
                if obs.failed:
                    self.optimizer.tell_failure(
                        obs.config, reason=obs.failure_reason
                    )
                else:
                    self.optimizer.tell(obs.config, obs.value)
        result.observations.extend(checkpoint.observations)
        return len(checkpoint.observations)

    def _write_checkpoint(self, result: TuningResult) -> None:
        state_dict = getattr(self.optimizer, "state_dict", None)
        self.checkpoint.save(
            TuningCheckpoint(
                strategy=self.strategy_name,
                seed=self.seed,
                max_steps=self.max_steps,
                observations=list(result.observations),
                optimizer_state=(
                    dict(state_dict()) if callable(state_dict) else None
                ),
            ),
        )

    def run(self) -> TuningResult:
        ctx = obs_runtime.current()
        tracer = ctx.tracer
        run_metrics = MetricsRegistry()
        result = TuningResult(strategy=self.strategy_name)
        tracker = None
        if self.diagnostics if self.diagnostics is not None else ctx.enabled:
            # Imported here so the no-session path never pays for it.
            from repro.core.diagnostics import DiagnosticsTracker
            from repro.obs.diagnostics import emit_step

            tracker = DiagnosticsTracker(
                self.optimizer, objective=self.objective
            )
        executor = self.executor
        if executor is None:
            # The loop owns this one; SerialExecutor.close() is a no-op
            # so no try/finally plumbing is needed.
            executor = SerialExecutor(self.objective)
        if self.resilience is not None and not isinstance(
            executor, ResilientExecutor
        ):
            executor = ResilientExecutor(
                executor, self.resilience, seed=self.seed
            )
        batch_size = self.batch_size or max(1, executor.max_workers)
        with tracer.span(
            "tuning.run",
            strategy=self.strategy_name,
            max_steps=self.max_steps,
            executor=executor.kind,
            batch_size=batch_size,
        ) as run_span:
            best_seen = float("-inf")
            stale_steps = 0
            issued = 0
            completed = 0
            stop_issuing = False
            resumed = self._resume(result)
            if resumed:
                tracer.event(
                    "tuning.resume",
                    completed=resumed,
                    checkpoint=self.checkpoint.describe(),
                )
                run_metrics.counter("tuning.resumed_steps").inc(resumed)
                issued = completed = resumed
                # Rebuild the patience state the uninterrupted run would
                # have reached, so resuming never changes when (or if)
                # early stopping fires.
                for obs in result.observations:
                    improved = best_seen == float("-inf") or obs.value > (
                        best_seen + abs(best_seen) * self.min_improvement
                    )
                    best_seen = max(best_seen, obs.value)
                    stale_steps = 0 if improved else stale_steps + 1
            #: eval_id -> (amortized suggest seconds) for in-flight work.
            pending: dict[int, float] = {}
            while completed < self.max_steps:
                can_issue = (
                    not stop_issuing
                    and issued < self.max_steps
                    and not self.optimizer.done
                )
                if (
                    can_issue
                    and self.patience is not None
                    and stale_steps >= self.patience
                ):
                    tracer.event(
                        "tuning.early_stop", step=completed, patience=self.patience
                    )
                    stop_issuing = True
                    can_issue = False
                if can_issue:
                    want = min(self.max_steps - issued, batch_size - len(pending))
                    if want > 0:
                        t0 = time.perf_counter()
                        with tracer.span("tuning.suggest", want=want):
                            if batch_size == 1:
                                # Exact legacy path: plain ask() keeps
                                # single-point optimizers on the same
                                # code trajectory as the serial loop.
                                batch = [self.optimizer.ask()]
                            else:
                                batch = self.optimizer.ask_batch(want)
                        suggest_seconds = (time.perf_counter() - t0) / max(
                            1, len(batch)
                        )
                        for config in batch:
                            executor.submit(
                                issued, config, seed=self._eval_seed("eval", issued)
                            )
                            pending[issued] = suggest_seconds
                            issued += 1
                        run_metrics.counter("executor.submitted").inc(len(batch))
                        run_metrics.gauge("tuning.pending").set(len(pending))
                if not pending:
                    break
                with tracer.span("tuning.step", step=completed):
                    with tracer.span("tuning.evaluate", pending=len(pending)):
                        outcome = executor.wait_one()
                    suggest_seconds = pending.pop(outcome.eval_id)
                    failure = _failure_fields(outcome.run)
                    value = outcome.value
                    if not math.isfinite(value):
                        # Never feed NaN/inf to a surrogate: it poisons
                        # the GP through the normalization statistics.
                        failure = {
                            "failed": True,
                            "failure_reason": (
                                f"non_finite: objective returned {value!r}"
                            ),
                            "bottleneck": failure.get("bottleneck", ""),
                        }
                        value = 0.0
                    # Score *before* the tell: the one-step-ahead
                    # residual needs the surrogate's pre-update view of
                    # this measurement.
                    diag = None
                    if tracker is not None:
                        with tracer.span("tuning.diagnose", step=completed):
                            diag = tracker.observe(
                                step=completed,
                                config=outcome.config,
                                value=value,
                                failed=bool(failure.get("failed", False)),
                            )
                    t2 = time.perf_counter()
                    with tracer.span("tuning.tell"):
                        if failure.get("failed"):
                            self.optimizer.tell_failure(
                                outcome.config,
                                reason=str(failure.get("failure_reason", "")),
                            )
                        else:
                            self.optimizer.tell(outcome.config, value)
                    tell_seconds = time.perf_counter() - t2
                    if diag is not None:
                        emit_step(tracer, run_metrics, diag)
                run_metrics.gauge("tuning.pending").set(len(pending))
                if failure.get("failed"):
                    run_metrics.counter("tuning.failed_evaluations").inc()
                    tracer.event(
                        "tuning.evaluation_failure",
                        step=completed,
                        reason=failure.get("failure_reason", ""),
                        bottleneck=failure.get("bottleneck", ""),
                    )
                run_metrics.counter("tuning.steps").inc()
                run_metrics.counter("executor.completed").inc()
                run_metrics.histogram("tuning.suggest_seconds").record(
                    suggest_seconds
                )
                run_metrics.histogram("tuning.evaluate_seconds").record(
                    outcome.seconds
                )
                run_metrics.histogram("tuning.tell_seconds").record(tell_seconds)
                run_metrics.histogram("executor.run_seconds").record(
                    outcome.seconds
                )
                run_metrics.histogram("executor.turnaround_seconds").record(
                    outcome.turnaround_seconds
                )
                result.observations.append(
                    Observation(
                        step=completed,
                        config=outcome.config,
                        value=value,
                        suggest_seconds=suggest_seconds,
                        evaluate_seconds=outcome.seconds,
                        failed=bool(failure.get("failed", False)),
                        failure_reason=str(failure.get("failure_reason", "")),
                        bottleneck=str(failure.get("bottleneck", "")),
                    )
                )
                completed += 1
                if self.checkpoint is not None:
                    self._write_checkpoint(result)
                # Staleness counts off the thresholded comparison, while
                # best_seen always tracks the running max: a run of
                # sub-threshold gains must neither reset patience nor leave
                # the baseline stale below the actual best.
                improved = best_seen == float("-inf") or value > (
                    best_seen + abs(best_seen) * self.min_improvement
                )
                best_seen = max(best_seen, value)
                if improved:
                    stale_steps = 0
                else:
                    stale_steps += 1
            if not result.observations:
                raise RuntimeError("optimizer produced no observations")
            if self.repeat_best > 0:
                best_config = result.best_config
                for i in range(self.repeat_best):
                    executor.submit(
                        self.max_steps + i,
                        best_config,
                        seed=self._eval_seed("rerun", i),
                    )
                reruns: list[float] = []
                for _ in range(self.repeat_best):
                    with tracer.span("tuning.evaluate", rerun=True):
                        reruns.append(executor.wait_one().value)
                result.best_rerun_values = reruns
            run_span.set_attribute("steps_run", result.n_steps)
            run_span.set_attribute("best_value", result.best_value)
        result.metadata.update(
            {
                "max_steps": self.max_steps,
                "steps_run": result.n_steps,
                "repeat_best": self.repeat_best,
                "stopped_early": result.n_steps < self.max_steps,
                "executor": executor.kind,
                "batch_size": batch_size,
            }
        )
        if resumed:
            result.metadata["resumed_steps"] = resumed
        resilience_stats = getattr(executor, "stats", None)
        if isinstance(resilience_stats, dict):
            result.metadata["resilience"] = dict(resilience_stats)
            for name, count in resilience_stats.items():
                if count:
                    run_metrics.counter(f"resilience.{name}").inc(int(count))
        # Thread per-run telemetry from the optimizer (GP fit timing,
        # refit-vs-update counts, candidate-pool sizes) and the
        # objective (evaluation-cache hit rate) into the result so
        # Figure 7-style benches can report where time goes.  Non-dict
        # telemetry (e.g. a dataclass) is coerced, not dropped.
        telemetry = _coerce_telemetry(getattr(self.optimizer, "telemetry", None))
        if telemetry is not None:
            result.metadata["optimizer_telemetry"] = telemetry
        if tracker is not None:
            result.metadata["diagnostics"] = tracker.summary()
        cache_info = getattr(self.objective, "cache_info", None)
        if callable(cache_info):
            cache = dict(cache_info())
            result.metadata["objective_cache"] = cache
            run_metrics.counter("objective.cache_hits").inc(
                int(cache.get("hits", 0))
            )
            run_metrics.counter("objective.cache_misses").inc(
                int(cache.get("misses", 0))
            )
        # The per-run registry snapshot replaces ad-hoc dict plumbing as
        # the structured report; merged into the session registry so
        # studies aggregate across cells.
        result.metadata["obs_metrics"] = run_metrics.snapshot()
        ctx.metrics.merge_snapshot(result.metadata["obs_metrics"])  # type: ignore[arg-type]
        return result

