"""Deterministic fault injection for the simulated Storm substrate.

The paper tuned a real 80-machine cluster where multi-minute measurement
windows routinely hit worker crashes, stragglers, and replayed batches;
our engines are otherwise perfectly healthy, so none of the resilience
machinery (:mod:`repro.core.resilience`) would ever be exercised.  This
module makes the substrate misbehave *reproducibly*:

* a :class:`FaultSpec` fixes the fault rates and magnitudes;
* a :class:`FaultPlan` turns (spec, evaluation identity) into a
  :class:`FaultDecision` via :func:`repro.core.seeding.derive_seed`, so
  the same evaluation seed always hits the same faults — in any
  process, under any executor, at any batch size;
* the engines apply the decision: crashes and hangs surface as
  ``MeasuredRun.failed`` with a recognizable ``failure_reason``,
  stragglers and tuple loss degrade throughput.

Fault taxonomy (docs/ROBUSTNESS.md):

``worker_crash``
    A worker process dies mid-window.  Trident replays its batches, but
    the measurement window is ruined — the run fails.  *Transient*: a
    retry under a fresh seed usually succeeds.
``measurement_window_hang``
    The measurement window never makes progress (a wedged worker, a
    stuck Zookeeper session).  The evaluation blocks for
    ``hang_seconds`` of real wall-clock — precisely what per-evaluation
    timeouts exist to cut short — then fails.  *Transient*.
``straggler``
    One machine runs slow (co-tenant interference, thermal throttling).
    Trident's per-batch barrier makes every batch wait for the slowest
    task, so the whole pipeline runs at the straggler's speed: observed
    throughput scales by ``straggler_slowdown``.
``tuple_loss``
    Transient tuple loss makes the acker time batches out and replay
    them; replayed batches consume window time without contributing, so
    throughput scales by ``1 - tuple_loss_fraction``.

Degradations are *not* failures: they come back as valid (lower)
measurements, which is how the noisy substrate teaches the optimizer to
prefer robust regions — the ContTune-style treatment of backpressured
configurations as first-class signals.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from repro.core.seeding import derive_seed
from repro.storm.metrics import MeasuredRun

#: ``failure_reason`` prefixes of injected *transient* faults.  The
#: resilience layer retries these; anything else (scheduling, memory,
#: batch-timeout infeasibility) is persistent.  Kept here so the engines
#: and :func:`repro.core.resilience.classify_failure` agree by
#: construction.
TRANSIENT_FAULT_MARKERS: tuple[str, ...] = (
    "worker_crash",
    "measurement_window_hang",
)


@dataclass(frozen=True)
class FaultSpec:
    """Fault rates and magnitudes for one chaos scenario.

    All rates are per-evaluation probabilities in ``[0, 1]``; a single
    evaluation can draw several faults at once (a straggler *and* tuple
    loss compose multiplicatively; a crash or hang preempts the rest).

    ``hang_seconds`` is real wall-clock the evaluation blocks for when
    a hang fires — keep it small in tests, or rely on the resilient
    executor's timeout to cut it short.  ``seed`` names the fault
    stream; it is mixed with each evaluation's identity, so two plans
    with different seeds fault different evaluations at the same rates.
    """

    crash_rate: float = 0.0
    straggler_rate: float = 0.0
    straggler_slowdown: float = 0.35
    tuple_loss_rate: float = 0.0
    tuple_loss_fraction: float = 0.08
    hang_rate: float = 0.0
    hang_seconds: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("crash_rate", "straggler_rate", "tuple_loss_rate", "hang_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if not 0.0 < self.straggler_slowdown <= 1.0:
            raise ValueError("straggler_slowdown must be in (0, 1]")
        if not 0.0 <= self.tuple_loss_fraction < 1.0:
            raise ValueError("tuple_loss_fraction must be in [0, 1)")
        if self.hang_seconds < 0.0:
            raise ValueError("hang_seconds must be >= 0")

    @property
    def active(self) -> bool:
        return (
            self.crash_rate > 0
            or self.straggler_rate > 0
            or self.tuple_loss_rate > 0
            or self.hang_rate > 0
        )

    @classmethod
    def chaos(cls, rate: float = 0.1, *, seed: int = 0) -> "FaultSpec":
        """A mixed scenario with total disruption probability ≈ ``rate``.

        Splits the budget evenly over crash, straggler, tuple loss, and
        hang (with an instantaneous hang, so wall-clock stays bounded
        even without a timeout) — the shape the chaos-smoke CI job and
        ``benchmarks/bench_resilience.py`` exercise.
        """
        share = rate / 4.0
        return cls(
            crash_rate=share,
            straggler_rate=share,
            tuple_loss_rate=share,
            hang_rate=share,
            hang_seconds=0.0,
            seed=seed,
        )


@dataclass(frozen=True)
class FaultDecision:
    """The faults one evaluation draws (all absent by default)."""

    crash: bool = False
    straggler_factor: float = 1.0
    replay_fraction: float = 0.0
    hang: bool = False

    @property
    def any(self) -> bool:
        return (
            self.crash
            or self.hang
            or self.straggler_factor < 1.0
            or self.replay_fraction > 0.0
        )

    def labels(self) -> list[str]:
        """Names of the faults that fired, in severity order."""
        fired: list[str] = []
        if self.hang:
            fired.append("measurement_window_hang")
        if self.crash:
            fired.append("worker_crash")
        if self.straggler_factor < 1.0:
            fired.append("straggler")
        if self.replay_fraction > 0.0:
            fired.append("tuple_loss")
        return fired


#: The no-fault decision, shared to keep the hot path allocation-free.
NO_FAULTS = FaultDecision()


class FaultPlan:
    """Seed-derived fault decisions plus their application to a run.

    Construction is cheap and the object is immutable state-wise, so it
    can be shared by every worker thread evaluating the objective.
    """

    def __init__(self, spec: FaultSpec) -> None:
        self.spec = spec

    @property
    def active(self) -> bool:
        return self.spec.active

    def decide(self, seed: int | None, key: object = "") -> FaultDecision:
        """The faults the evaluation identified by ``seed`` draws.

        ``seed`` is the per-evaluation noise seed; when the caller runs
        without per-evaluation seeds (classic serial loop), ``key`` — a
        stable description of the configuration — names the stream
        instead, so identical configurations still fault identically.
        The decision is a pure function of (spec.seed, identity): the
        order evaluations complete in can never change who faults,
        which is what keeps a ``batch_size=4`` run a replay of the
        serial one.
        """
        if not self.spec.active:
            return NO_FAULTS
        identity = seed if seed is not None else key
        rng = np.random.default_rng(derive_seed(self.spec.seed, "fault", identity))
        # Fixed draw order so adding a fault type later cannot silently
        # reshuffle existing streams.
        u_hang, u_crash, u_straggler, u_loss = rng.random(4)
        hang = u_hang < self.spec.hang_rate
        crash = not hang and u_crash < self.spec.crash_rate
        straggler = u_straggler < self.spec.straggler_rate
        loss = u_loss < self.spec.tuple_loss_rate
        if not (hang or crash or straggler or loss):
            return NO_FAULTS
        return FaultDecision(
            crash=crash,
            straggler_factor=self.spec.straggler_slowdown if straggler else 1.0,
            replay_fraction=self.spec.tuple_loss_fraction if loss else 0.0,
            hang=hang,
        )

    def preempt(
        self, decision: FaultDecision, *, total_tasks: int = 0
    ) -> MeasuredRun | None:
        """The failed run a preempting fault produces, or None.

        Hangs block for ``hang_seconds`` of real wall-clock first —
        the evaluation is genuinely stuck, which is what per-evaluation
        timeouts (the thread backend abandons the hung evaluation) exist
        for.
        """
        if decision.hang:
            if self.spec.hang_seconds > 0:
                time.sleep(self.spec.hang_seconds)
            return MeasuredRun.failure(
                "measurement_window_hang: no batches completed before the "
                "window was abandoned",
                total_tasks=total_tasks,
            )
        if decision.crash:
            return MeasuredRun.failure(
                "worker_crash: a worker died mid-measurement and its "
                "batches replayed past the window",
                total_tasks=total_tasks,
            )
        return None

    def degrade(self, run: MeasuredRun, decision: FaultDecision) -> MeasuredRun:
        """Apply throughput-degrading faults to a successful run.

        Stragglers gate the per-batch barrier (slowest task paces every
        batch); replayed batches burn window time without contributing.
        The two compose multiplicatively.  Failed runs pass through
        untouched.
        """
        factor = decision.straggler_factor * (1.0 - decision.replay_fraction)
        if run.failed or factor >= 1.0:
            return run
        details = dict(run.details)
        details["injected_faults"] = decision.labels()
        details["fault_factor"] = factor
        return replace(
            run, throughput_tps=run.throughput_tps * factor, details=details
        )


def inject_faults(
    plan: "FaultPlan | None",
    run_mechanics: "callable",
    *,
    config_key: object,
    seed: int | None,
    tracer,
    engine: str,
) -> MeasuredRun:
    """Shared engine hook: decide, preempt or degrade, and trace.

    ``run_mechanics`` is the engine's noise-free evaluation thunk; it
    is only invoked when no preempting fault fires, so hung/crashed
    windows cost nothing but the (intentional) hang sleep.  Every
    failed run, preempted or mechanically infeasible, emits exactly one
    ``engine.failure`` event here.  This hook is the deployment path
    only: noise-free reference evaluations (diagnostics pools, drift
    optima, sensitivity sweeps) call the engine's ``evaluate_noise_free``
    directly and emit none.
    """
    if plan is None or not plan.active:
        run = run_mechanics()
    else:
        decision = plan.decide(seed, key=config_key)
        if decision.any:
            tracer.event(
                "engine.fault_injected",
                engine=engine,
                faults=",".join(decision.labels()),
            )
        preempted = plan.preempt(decision)
        if preempted is not None:
            run = preempted
        else:
            run = plan.degrade(run_mechanics(), decision)
    if run.failed:
        tracer.event("engine.failure", engine=engine, reason=run.failure_reason)
    return run
