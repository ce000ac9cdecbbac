"""Resilient evaluation: retries, timeouts, backoff, circuit breaking.

The paper's evaluations were multi-minute measurement windows on a real
80-machine cluster, where workers crash, windows hang, and whole
configurations are reliably lethal.  This module wraps any
:class:`~repro.core.executor.EvaluationExecutor` in the policy layer a
production tuner needs (docs/ROBUSTNESS.md):

* **timeouts** — each evaluation gets a wall-clock budget; on expiry it
  is abandoned at the backend (a hung thread is orphaned — not even
  the executor's ``close()`` waits for it — and its late result
  discarded) and surfaces as a ``evaluation_timeout`` failure;
* **bounded retries with exponential backoff + jitter** — *transient*
  failures (injected crashes/hangs, timeouts, worker exceptions) are
  retried up to ``max_retries`` times under a fresh derived seed, so a
  retry re-draws its fault decision instead of replaying the crash;
* **transient vs persistent classification** — mechanical
  infeasibilities (scheduling, memory, batch timeout) are *persistent*:
  retrying them wastes budget, so they pass straight through to the
  optimizer as failures to learn from;
* **circuit breaker** — a configuration that fails persistently
  ``breaker_threshold`` times is short-circuited: further submissions
  return an immediate synthesized failure without touching the
  substrate.  With ``breaker_cooldown_seconds`` set, a rested circuit
  goes *half-open*: one probe submission runs for real, and its success
  re-closes the circuit (a failed probe re-opens it for another
  cooldown).

Everything is deterministic given the objective's fault plan and the
loop's per-evaluation seeds: retry seeds derive from the original seed
via :func:`~repro.core.seeding.derive_seed`, and jitter only perturbs
wall-clock sleeps, never observed values — which is what keeps a
checkpoint-resumed campaign byte-identical to an uninterrupted one.

The wrapper emits ``resilience.*`` tracer events live and accumulates a
``stats`` dict the tuning loop folds into ``resilience.*`` metrics
counters (docs/OBSERVABILITY.md).
"""

from __future__ import annotations

import dataclasses
import json
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.core.executor import (
    EvaluationExecutor,
    EvaluationOutcome,
)
from repro.core.seeding import derive_seed
from repro.obs import runtime as obs_runtime

#: ``failure_reason`` prefixes classified as transient.  The first two
#: match the injected faults of :mod:`repro.storm.faults`; the last two
#: are synthesized by :class:`ResilientExecutor` itself.
TRANSIENT_MARKERS: tuple[str, ...] = (
    "worker_crash",
    "measurement_window_hang",
    "evaluation_timeout",
    "worker_exception",
)


def classify_failure(reason: str) -> str:
    """``"transient"`` (worth retrying) or ``"persistent"`` (is not).

    Persistent failures are properties of the configuration — executor
    capacity, memory, the batch-latency cliff — that no retry can fix;
    transient ones are properties of the *measurement* and usually
    vanish under a fresh seed.
    """
    reason = str(reason)
    if any(reason.startswith(marker) for marker in TRANSIENT_MARKERS):
        return "transient"
    return "persistent"


@dataclass(frozen=True)
class RetryPolicy:
    """Knobs of the resilient evaluation layer.

    ``timeout_seconds`` bounds an evaluation's submit-to-collect wall
    clock on concurrent backends; the serial backend runs evaluations
    inline, so there the budget is checked post-hoc against the
    in-worker seconds.  ``None`` disables timeouts.  Backoff before
    retry ``n`` (1-based) sleeps
    ``backoff_base_seconds * backoff_multiplier**(n-1)``, scaled by a
    uniform jitter in ``[1, 1 + backoff_jitter]`` so simultaneous
    retries of a shared substrate decorrelate.
    """

    max_retries: int = 2
    timeout_seconds: float | None = None
    backoff_base_seconds: float = 0.05
    backoff_multiplier: float = 2.0
    backoff_jitter: float = 0.25
    breaker_threshold: int = 3
    #: After an open circuit has rested this long, the next submission
    #: of that configuration runs as a *half-open probe*: success
    #: re-closes the circuit, another persistent failure re-opens it
    #: for a fresh cooldown.  ``None`` (the default) keeps the classic
    #: behavior: an open circuit never recovers within a run.
    breaker_cooldown_seconds: float | None = None

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.timeout_seconds is not None and self.timeout_seconds <= 0:
            raise ValueError("timeout_seconds must be > 0 (or None)")
        if self.backoff_base_seconds < 0:
            raise ValueError("backoff_base_seconds must be >= 0")
        if self.backoff_multiplier < 1.0:
            raise ValueError("backoff_multiplier must be >= 1")
        if self.backoff_jitter < 0:
            raise ValueError("backoff_jitter must be >= 0")
        if self.breaker_threshold < 1:
            raise ValueError("breaker_threshold must be >= 1")
        if (
            self.breaker_cooldown_seconds is not None
            and self.breaker_cooldown_seconds <= 0
        ):
            raise ValueError("breaker_cooldown_seconds must be > 0 (or None)")

    def as_dict(self) -> dict[str, object]:
        """JSON-safe form (campaign specs serialize their policy)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "RetryPolicy":
        """Rebuild from :meth:`as_dict` output (re-validates fields)."""
        return cls(**dict(data))  # type: ignore[arg-type]

    def backoff_seconds(
        self, attempt: int, rng: np.random.Generator | None = None
    ) -> float:
        """Sleep before retry ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        base = self.backoff_base_seconds * self.backoff_multiplier ** (attempt - 1)
        if rng is not None and self.backoff_jitter > 0:
            base *= 1.0 + self.backoff_jitter * float(rng.random())
        return base


@dataclass(frozen=True)
class FailedEvaluation:
    """Synthesized measurement record for a failure the substrate never
    reported (timeout, worker exception, open circuit).

    Duck-type compatible with the fields the tuning loop reads off a
    :class:`~repro.storm.metrics.MeasuredRun` (``failed``,
    ``failure_reason``, ``throughput_tps``, ``details``) without a
    core → storm import.
    """

    failure_reason: str
    failed: bool = True
    throughput_tps: float = 0.0
    details: Mapping[str, object] = field(default_factory=dict)


def config_key(config: Mapping[str, object]) -> str:
    """Stable identity of a configuration for the circuit breaker."""
    return json.dumps(sorted(config.items()), default=str)


class ReplicatedObjective:
    """Median-of-k measurement replication against *silent* degradation.

    Crashes, hangs and timeouts surface as failures and flow into the
    retry layer above — but stragglers and tuple loss silently depress
    the measured value, and a single degraded window can send the
    optimizer exploiting the wrong basin for the rest of the campaign.
    The only defence is replication: measure each configuration
    ``replicates`` times under derived seeds and keep the run with the
    median throughput, so a lone outlier window never decides what the
    optimizer learns.

    Replicate 0 reuses the caller's seed unchanged; if it fails, that
    failure is returned as-is so the ordinary retry/backoff and
    failure-imputation paths see exactly what they would without the
    wrapper.  Failed extra replicates are dropped from the median.
    Everything stays a pure function of (config, seed), which keeps
    checkpoint-resumed campaigns byte-identical.
    """

    def __init__(self, objective, replicates: int = 3) -> None:
        if replicates < 1:
            raise ValueError(f"replicates must be >= 1, got {replicates}")
        self.objective = objective
        self.replicates = int(replicates)

    def __getattr__(self, name: str):
        return getattr(self.objective, name)

    def measure(self, params: Mapping[str, object], *, seed: int | None = None):
        first = self.objective.measure(params, seed=seed)
        if first.failed or self.replicates == 1:
            return first
        runs = [first]
        for rep in range(1, self.replicates):
            rep_seed = (
                None if seed is None else derive_seed(seed, "replicate", rep)
            )
            run = self.objective.measure(params, seed=rep_seed)
            if not run.failed:
                runs.append(run)
        runs.sort(key=lambda r: float(r.throughput_tps))
        # Upper median: with one clean and one degraded window the
        # clean one wins, and for odd counts it is the true median.
        return runs[len(runs) // 2]


@dataclass
class _Attempt:
    """In-flight bookkeeping for one logical evaluation."""

    config: dict[str, object]
    seed: int | None  # the *original* seed; retries derive from it
    attempts: int = 0  # retries performed so far
    deadline: float | None = None
    first_submitted_at: float = field(default_factory=time.perf_counter)


class ResilientExecutor(EvaluationExecutor):
    """Retry/timeout/circuit-breaker wrapper over any executor.

    One logical evaluation (``eval_id``) may cost several physical
    attempts; the caller only ever sees one outcome per submission, so
    the tuning loop drives this exactly like the backend it wraps.
    Failed outcomes keep ``value == 0.0`` and carry the (last) failure
    record, so the loop's failure accounting and the optimizer's
    failure-aware tell work unchanged.
    """

    def __init__(
        self,
        inner: EvaluationExecutor,
        policy: RetryPolicy | None = None,
        *,
        seed: int | None = None,
    ) -> None:
        super().__init__(inner.objective, max_workers=inner.max_workers)
        self.inner = inner
        self.policy = policy or RetryPolicy()
        self.kind = f"resilient+{inner.kind}"
        self._rng = np.random.default_rng(seed)  # jitter only, never values
        self._attempts: dict[int, _Attempt] = {}
        self._ready: deque[EvaluationOutcome] = deque()
        self._breaker: dict[str, int] = {}
        self._breaker_opened: dict[str, float] = {}
        self._clock = time.perf_counter  # patchable in tests
        self.stats: dict[str, int] = {
            "retries": 0,
            "timeouts": 0,
            "worker_exceptions": 0,
            "transient_failures": 0,
            "persistent_failures": 0,
            "circuit_opens": 0,
            "circuit_half_opens": 0,
            "circuit_closes": 0,
            "short_circuits": 0,
            "gave_up": 0,
        }

    # ------------------------------------------------------------------
    def submit(
        self,
        eval_id: int,
        config: Mapping[str, object],
        seed: int | None = None,
    ) -> None:
        config = dict(config)
        key = config_key(config)
        if self._breaker.get(key, 0) >= self.policy.breaker_threshold:
            if self._cooldown_elapsed(key):
                # Half-open probe: let exactly this submission through
                # and re-arm the cooldown, so a failed probe waits a
                # full rest before the next one.
                self._breaker_opened[key] = self._clock()
                self.stats["circuit_half_opens"] += 1
                obs_runtime.current().tracer.event(
                    "resilience.circuit_half_open", eval_id=eval_id
                )
            else:
                self.stats["short_circuits"] += 1
                obs_runtime.current().tracer.event(
                    "resilience.short_circuit", eval_id=eval_id
                )
                self._ready.append(
                    self._synthesize(
                        eval_id,
                        config,
                        seed,
                        "circuit_open: configuration failed persistently "
                        f"{self._breaker[key]} times",
                        turnaround=0.0,
                    )
                )
                return
        record = _Attempt(config=config, seed=seed)
        self._arm_deadline(record)
        self._attempts[eval_id] = record
        self.inner.submit(eval_id, config, seed)

    def wait_one(self) -> EvaluationOutcome:
        while True:
            if self._ready:
                return self._ready.popleft()
            if self.inner.n_pending == 0:
                raise RuntimeError("no pending evaluations")
            try:
                outcome = self.inner.try_wait_one(self._nearest_timeout())
            except Exception as exc:  # noqa: BLE001 - reclassified below
                resolved = self._resolve_exception(exc)
                if resolved is not None:
                    return resolved
                continue
            if outcome is None:
                self._expire_overdue()
                continue
            resolved = self._resolve(self._post_check(outcome))
            if resolved is not None:
                return resolved

    @property
    def n_pending(self) -> int:
        return len(self._attempts) + len(self._ready)

    def cancel_pending(self) -> int:
        cancelled = self.inner.cancel_pending() + len(self._ready)
        self._ready.clear()
        self._attempts.clear()
        return cancelled

    def close(self) -> None:
        self.inner.close()

    # ------------------------------------------------------------------
    def _cooldown_elapsed(self, key: str) -> bool:
        """True when an open circuit has rested long enough to probe."""
        cooldown = self.policy.breaker_cooldown_seconds
        if cooldown is None:
            return False
        opened = self._breaker_opened.get(key)
        if opened is None:
            # Opened before cooldowns were tracked (or state was
            # externally seeded): treat the rest as already served.
            return True
        return self._clock() - opened >= cooldown

    def _arm_deadline(self, record: _Attempt) -> None:
        if self.policy.timeout_seconds is not None:
            record.deadline = time.perf_counter() + self.policy.timeout_seconds
        else:
            record.deadline = None

    def _nearest_timeout(self) -> float | None:
        """Seconds until the earliest in-flight deadline (None: block)."""
        deadlines = [
            rec.deadline
            for rec in self._attempts.values()
            if rec.deadline is not None
        ]
        if not deadlines:
            return None
        return max(0.0, min(deadlines) - time.perf_counter())

    def _expire_overdue(self) -> None:
        """Abandon every evaluation past its deadline and rule on it."""
        now = time.perf_counter()
        overdue = [
            eval_id
            for eval_id, rec in self._attempts.items()
            if rec.deadline is not None and rec.deadline <= now
        ]
        for eval_id in overdue:
            rec = self._attempts[eval_id]
            self.inner.abandon(eval_id)
            self.stats["timeouts"] += 1
            obs_runtime.current().tracer.event(
                "resilience.timeout", eval_id=eval_id, attempt=rec.attempts
            )
            outcome = self._synthesize(
                eval_id,
                rec.config,
                rec.seed,
                "evaluation_timeout: exceeded "
                f"{self.policy.timeout_seconds:g}s wall clock",
                turnaround=now - rec.first_submitted_at,
            )
            resolved = self._resolve(outcome)
            if resolved is not None:
                self._ready.append(resolved)

    def _post_check(self, outcome: EvaluationOutcome) -> EvaluationOutcome:
        """Post-hoc timeout for backends that cannot preempt (serial)."""
        budget = self.policy.timeout_seconds
        if budget is None or outcome.seconds <= budget:
            return outcome
        self.stats["timeouts"] += 1
        obs_runtime.current().tracer.event(
            "resilience.timeout", eval_id=outcome.eval_id, post_hoc=True
        )
        return self._synthesize(
            outcome.eval_id,
            outcome.config,
            outcome.seed,
            f"evaluation_timeout: ran {outcome.seconds:.2f}s against a "
            f"{budget:g}s budget",
            turnaround=outcome.turnaround_seconds,
        )

    def _resolve_exception(self, exc: Exception) -> EvaluationOutcome | None:
        """Convert an identifiable worker exception into a failure.

        Unattributable exceptions (no ticket — e.g. a broken pool
        surfacing through an unrelated future) propagate: swallowing
        them would retry the wrong evaluation.
        """
        ticket = getattr(exc, "_repro_ticket", None)
        if ticket is None:
            raise exc
        self.stats["worker_exceptions"] += 1
        obs_runtime.current().tracer.event(
            "resilience.worker_exception",
            eval_id=ticket.eval_id,
            error=f"{type(exc).__name__}: {exc}",
        )
        outcome = self._synthesize(
            ticket.eval_id,
            dict(ticket.config),
            ticket.seed,
            f"worker_exception: {type(exc).__name__}: {exc}",
            turnaround=time.perf_counter() - ticket.submitted_at,
        )
        return self._resolve(outcome)

    def _resolve(self, outcome: EvaluationOutcome) -> EvaluationOutcome | None:
        """Rule on one finished attempt: pass through, retry, or break.

        Returns the outcome to hand the caller, or None when the
        evaluation was resubmitted (retry) and nothing surfaces yet.
        """
        record = self._attempts.pop(outcome.eval_id, None)
        failed = bool(getattr(outcome.run, "failed", False))
        if not failed:
            key = config_key(outcome.config)
            if (
                self.policy.breaker_cooldown_seconds is not None
                and self._breaker.get(key, 0) >= self.policy.breaker_threshold
            ):
                # A successful half-open probe: the configuration
                # recovered, re-close the circuit.  Classic mode
                # (cooldown None) never issues probes, so a success
                # here is an evaluation that was already in flight
                # when the circuit opened — it must not re-close a
                # circuit documented to stay open for the whole run.
                self._breaker[key] = 0
                self._breaker_opened.pop(key, None)
                self.stats["circuit_closes"] += 1
                obs_runtime.current().tracer.event(
                    "resilience.circuit_close", eval_id=outcome.eval_id
                )
            return outcome
        reason = str(getattr(outcome.run, "failure_reason", ""))
        kind = classify_failure(reason)
        if kind == "persistent":
            self.stats["persistent_failures"] += 1
            key = config_key(outcome.config)
            count = self._breaker.get(key, 0) + 1
            self._breaker[key] = count
            if count >= self.policy.breaker_threshold:
                # Newly opened (== threshold) or a failed half-open
                # probe (> threshold): either way the circuit is open
                # as of *now*.
                self._breaker_opened[key] = self._clock()
            if count == self.policy.breaker_threshold:
                self.stats["circuit_opens"] += 1
                obs_runtime.current().tracer.event(
                    "resilience.circuit_open", failures=count, reason=reason
                )
            return outcome
        self.stats["transient_failures"] += 1
        if record is None or record.attempts >= self.policy.max_retries:
            # Out of retries (or a short-circuited submission that never
            # had a record): the failure stands.
            self.stats["gave_up"] += 1
            return outcome
        record.attempts += 1
        retry_seed = (
            derive_seed(record.seed, "retry", record.attempts)
            if record.seed is not None
            else None
        )
        self.stats["retries"] += 1
        obs_runtime.current().tracer.event(
            "resilience.retry",
            eval_id=outcome.eval_id,
            attempt=record.attempts,
            reason=reason,
        )
        backoff = self.policy.backoff_seconds(record.attempts, self._rng)
        if backoff > 0:
            time.sleep(backoff)
        self._arm_deadline(record)
        self._attempts[outcome.eval_id] = record
        self.inner.submit(outcome.eval_id, record.config, retry_seed)
        return None

    def _synthesize(
        self,
        eval_id: int,
        config: dict[str, object],
        seed: int | None,
        reason: str,
        *,
        turnaround: float,
    ) -> EvaluationOutcome:
        return EvaluationOutcome(
            eval_id=eval_id,
            config=config,
            value=0.0,
            run=FailedEvaluation(failure_reason=reason),
            seconds=0.0,
            turnaround_seconds=turnaround,
            seed=seed,
        )
