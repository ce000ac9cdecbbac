"""Pluggable evaluation executors: run objective evaluations in flight.

The tuning loop (:class:`~repro.core.loop.TuningLoop`) is an ask /
evaluate / tell cycle; this module decouples *where* the evaluate phase
runs from the loop's control flow.  An executor is bound to one
objective at construction and exposes a submit/collect interface:

``submit(eval_id, config, seed)``
    Queue one evaluation.  ``seed``, when given, selects an independent
    observation-noise stream for exactly this evaluation (derive it
    with :func:`repro.core.seeding.derive_seed` from the run seed and
    the evaluation index), which makes a concurrent run's observations
    a *set-equal, bitwise-identical* replay of the serial run — values
    depend only on (config, seed), never on completion order.

``wait_one()``
    Block until some submitted evaluation finishes and return its
    :class:`EvaluationOutcome`.  Completion order is unspecified for
    the thread backend.

Two interchangeable backends share one batch path
(:func:`_measure_batch`) and one outcome constructor
(:meth:`_Ticket.outcome`):

:class:`SerialExecutor`
    FIFO, runs each evaluation inline inside ``wait_one`` on the
    calling thread.  The zero-dependency default — a loop using it is
    step-for-step identical to the classic serial loop.

:class:`ThreadPoolExecutor`
    Worker threads.  Right whenever evaluations spend wall-clock time
    off the GIL — real cluster runs, simulated measurement windows,
    NumPy-heavy engines — which is precisely the paper's regime of
    multi-minute cluster evaluations.

Objectives are called through one duck-typed contract: objects with a
``measure(params, seed=...)`` method (e.g. :class:`~repro.storm.
objective.StormObjective`) return their full measurement record, which
the loop uses for failure diagnosis; plain callables are invoked as
``objective(config)`` and yield only the scalar.
"""

from __future__ import annotations

import abc
import inspect
import time
from collections import deque
from concurrent import futures as _futures
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

Objective = Callable[[Mapping[str, object]], float]


@dataclass(frozen=True)
class EvaluationOutcome:
    """One finished evaluation, as returned by ``wait_one``."""

    eval_id: int
    config: dict[str, object]
    value: float
    #: The objective's full measurement record (a ``MeasuredRun`` for
    #: Storm objectives), or None for plain-callable objectives.
    run: object | None
    #: In-worker evaluation wall time.
    seconds: float
    #: Submit-to-collect wall time (a batch's outcomes stop the clock
    #: when the batch finishes); includes queueing, so the queue wait
    #: is approximately ``turnaround_seconds - seconds``.
    turnaround_seconds: float
    seed: int | None = None


@dataclass
class _Ticket:
    """Book-keeping for one submitted evaluation."""

    eval_id: int
    config: dict[str, object]
    seed: int | None
    submitted_at: float = field(default_factory=time.perf_counter)

    def outcome(
        self, value: float, run: object | None, seconds: float
    ) -> EvaluationOutcome:
        """This evaluation's outcome, its turnaround clocked now."""
        return EvaluationOutcome(
            eval_id=self.eval_id,
            config=self.config,
            value=value,
            run=run,
            seconds=seconds,
            turnaround_seconds=time.perf_counter() - self.submitted_at,
            seed=self.seed,
        )


def _attribute(exc: BaseException, ticket: _Ticket) -> None:
    """Tag a worker exception with its submission (``_repro_ticket``).

    Lets wrappers like :class:`~repro.core.resilience.ResilientExecutor`
    tell *which* evaluation died.
    """
    try:
        exc._repro_ticket = ticket  # type: ignore[attr-defined]
    except AttributeError:  # pragma: no cover - exotic exceptions
        pass


def _accepts_seed(fn: object) -> bool:
    try:
        return "seed" in inspect.signature(fn).parameters  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return False


def call_objective(
    objective: Objective, config: Mapping[str, object], seed: int | None
) -> tuple[float, object | None, float]:
    """Evaluate ``config``, returning (value, measurement record, seconds).

    Prefers ``objective.measure(config, seed=...)`` when available so
    the full measurement record (failure reason, bottleneck detail)
    travels back with the scalar; falls back to plain ``__call__`` —
    in which case ``seed`` is ignored, because a bare callable offers
    nowhere to thread it.
    """
    t0 = time.perf_counter()
    measure = getattr(objective, "measure", None)
    if callable(measure):
        if seed is not None and _accepts_seed(measure):
            run = measure(config, seed=seed)
        else:
            run = measure(config)
        value = float(run.throughput_tps)
    else:
        run = None
        value = float(objective(config))
    return value, run, time.perf_counter() - t0


def supports_batch_measurement(objective: object) -> bool:
    """Whether ``objective`` advertises a vectorized ``measure_batch``.

    The executor fast paths only engage when the objective both has the
    method *and* declares it a true fast path
    (``supports_batch_fast_path``) — a DES objective could implement
    ``measure_batch`` as a loop, where batching would only serialize
    work a pool should overlap.
    """
    return bool(getattr(objective, "supports_batch_fast_path", False)) and callable(
        getattr(objective, "measure_batch", None)
    )


def _measure_batch(
    objective: Objective, tickets: Sequence[_Ticket]
) -> list[EvaluationOutcome]:
    """Evaluate ``tickets`` in one ``measure_batch`` call, in order.

    The batch's wall time is amortized evenly across its outcomes so
    aggregate ``seconds`` telemetry stays comparable with the scalar
    path.
    """
    t0 = time.perf_counter()
    runs = objective.measure_batch(  # type: ignore[attr-defined]
        [t.config for t in tickets], seeds=[t.seed for t in tickets]
    )
    per_eval = (time.perf_counter() - t0) / len(tickets)
    return [
        ticket.outcome(float(run.throughput_tps), run, per_eval)
        for ticket, run in zip(tickets, runs)
    ]


class EvaluationExecutor(abc.ABC):
    """Submit/collect interface over one objective.

    Context-manager use closes the backend (and cancels anything still
    queued) on exit.
    """

    #: Backend name ("serial" / "thread"), for telemetry.
    kind: str = "serial"

    def __init__(self, objective: Objective, *, max_workers: int = 1) -> None:
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.objective = objective
        self.max_workers = max_workers

    @abc.abstractmethod
    def submit(
        self,
        eval_id: int,
        config: Mapping[str, object],
        seed: int | None = None,
    ) -> None:
        """Queue one evaluation of ``config``."""

    @abc.abstractmethod
    def wait_one(self) -> EvaluationOutcome:
        """Block until some submitted evaluation finishes; return it.

        Raises ``RuntimeError`` if nothing is pending; re-raises the
        objective's exception if the evaluation failed with one.  A
        re-raised worker exception carries its submission on a
        ``_repro_ticket`` attribute (a :class:`_Ticket`) so wrappers
        like :class:`~repro.core.resilience.ResilientExecutor` can tell
        *which* evaluation died.
        """

    def try_wait_one(self, timeout: float | None = None) -> EvaluationOutcome | None:
        """``wait_one`` with a deadline; None when nothing finished.

        The default implementation blocks: inline backends (serial)
        cannot observe an evaluation mid-flight, so their timeouts are
        necessarily post-hoc — the resilience layer compares the
        outcome's in-worker seconds against the budget after the fact.
        """
        return self.wait_one()

    def abandon(self, eval_id: int) -> bool:
        """Detach a submitted evaluation; its result is discarded.

        Returns whether the evaluation was found and detached.  A
        not-yet-started evaluation is cancelled; a running one cannot
        be interrupted (the thread backend orphans its thread), so its
        result is dropped when it arrives.
        """
        return False

    @property
    @abc.abstractmethod
    def n_pending(self) -> int:
        """Evaluations submitted but not yet collected."""

    def cancel_pending(self) -> int:
        """Cancel not-yet-started evaluations; returns how many."""
        return 0

    def close(self) -> None:
        """Release backend resources (idempotent)."""

    def __enter__(self) -> "EvaluationExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.cancel_pending()
        self.close()


class SerialExecutor(EvaluationExecutor):
    """FIFO inline execution on the calling thread.

    ``submit`` only queues; the evaluation runs inside ``wait_one``, so
    a loop driving this executor is operation-for-operation identical
    to the classic serial ask/evaluate/tell cycle (same objective call
    order, same shared-RNG draw order, same tracer span nesting).

    **Batch fast path** — when the objective advertises a vectorized
    ``measure_batch`` (see :func:`supports_batch_measurement`) and more
    than one evaluation is queued, ``wait_one`` drains the whole queue
    through :func:`_measure_batch` and serves the outcomes FIFO.  Values
    are bit-identical to the scalar path (the batch engine's
    equivalence contract), so this is purely a throughput win for
    batch-emitting optimizers (grid/random/pla ``ask_batch``).  If a
    batch call raises, the queue is kept, batching is disabled for
    this executor, and evaluation falls back to the scalar path so the
    exception is re-raised with its precise ticket attribution.
    """

    kind = "serial"

    def __init__(self, objective: Objective) -> None:
        super().__init__(objective)
        self._queue: list[_Ticket] = []
        self._completed: deque[EvaluationOutcome] = deque()
        self._batch_disabled = False

    def submit(
        self,
        eval_id: int,
        config: Mapping[str, object],
        seed: int | None = None,
    ) -> None:
        self._queue.append(_Ticket(eval_id, dict(config), seed))

    def wait_one(self) -> EvaluationOutcome:
        if self._completed:
            return self._completed.popleft()
        if not self._queue:
            raise RuntimeError("no pending evaluations")
        if (
            len(self._queue) > 1
            and not self._batch_disabled
            and supports_batch_measurement(self.objective)
        ):
            try:
                self._completed.extend(_measure_batch(self.objective, self._queue))
            except Exception:
                # Replay serially below for exact ticket attribution.
                self._batch_disabled = True
            else:
                self._queue.clear()
                return self._completed.popleft()
        ticket = self._queue.pop(0)
        try:
            value, run, seconds = call_objective(
                self.objective, ticket.config, ticket.seed
            )
        except Exception as exc:
            _attribute(exc, ticket)
            raise
        return ticket.outcome(value, run, seconds)

    @property
    def n_pending(self) -> int:
        return len(self._queue) + len(self._completed)

    def abandon(self, eval_id: int) -> bool:
        for i, ticket in enumerate(self._queue):
            if ticket.eval_id == eval_id:
                del self._queue[i]
                return True
        for i, outcome in enumerate(self._completed):
            if outcome.eval_id == eval_id:
                del self._completed[i]
                return True
        return False

    def cancel_pending(self) -> int:
        cancelled = len(self._queue)
        self._queue.clear()
        return cancelled


class ThreadPoolExecutor(EvaluationExecutor):
    """Evaluations on worker threads sharing the objective object.

    The objective must be concurrency-safe under threading (Storm
    objectives lock their memo cache and counters).  Worker threads
    share the process-wide observability context, so per-evaluation
    spans from inside the engines may interleave in the trace; the
    loop-level span tree stays correct because the loop itself always
    runs on one thread (see docs/OBSERVABILITY.md).

    **Batch fast path** — for objectives advertising a vectorized
    ``measure_batch``, submissions are buffered instead of dispatched
    one future per evaluation; the first collect flushes the buffer as
    a *single* pool task running :func:`_measure_batch`.  With
    per-evaluation seeds the values are a pure function of (config,
    seed), so outcomes are bit-identical to the one-future-per-eval
    path — there are just N-1 fewer task hops.  A failed batch disables
    the fast path and resubmits its tickets as singles, preserving
    per-ticket exception attribution.
    """

    kind = "thread"

    def __init__(self, objective: Objective, *, max_workers: int = 4) -> None:
        super().__init__(objective, max_workers=max_workers)
        self._pool = _futures.ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-eval"
        )
        self._tickets: dict[_futures.Future, _Ticket] = {}
        self._batch_tickets: dict[_futures.Future, list[_Ticket]] = {}
        self._buffer: list[_Ticket] = []
        self._ready: deque[EvaluationOutcome] = deque()
        self._abandoned: set[int] = set()
        self._batch_disabled = False

    def submit(
        self,
        eval_id: int,
        config: Mapping[str, object],
        seed: int | None = None,
    ) -> None:
        ticket = _Ticket(eval_id, dict(config), seed)
        if not self._batch_disabled and supports_batch_measurement(self.objective):
            self._buffer.append(ticket)
        else:
            self._submit_single(ticket)

    def _submit_single(self, ticket: _Ticket) -> None:
        future = self._pool.submit(
            call_objective, self.objective, ticket.config, ticket.seed
        )
        self._tickets[future] = ticket

    def _flush_buffer(self) -> None:
        tickets, self._buffer = self._buffer, []
        if len(tickets) == 1:
            self._submit_single(tickets[0])
        elif tickets:
            future = self._pool.submit(_measure_batch, self.objective, tickets)
            self._batch_tickets[future] = tickets

    def _collect_batch(self, future: _futures.Future) -> None:
        tickets = self._batch_tickets.pop(future)
        abandoned = self._abandoned & {t.eval_id for t in tickets}
        self._abandoned -= abandoned
        try:
            outcomes = future.result()
        except Exception:
            # Disable batching and replay the batch as singles so the
            # failing evaluation re-raises with its own ticket attached.
            self._batch_disabled = True
            for ticket in tickets:
                if ticket.eval_id not in abandoned:
                    self._submit_single(ticket)
            return
        self._ready.extend(o for o in outcomes if o.eval_id not in abandoned)

    def _collect_single(self, future: _futures.Future) -> EvaluationOutcome:
        ticket = self._tickets.pop(future)
        try:
            value, run, seconds = future.result()  # re-raises worker errors
        except Exception as exc:
            _attribute(exc, ticket)
            raise
        return ticket.outcome(value, run, seconds)

    def wait_one(self) -> EvaluationOutcome:
        outcome = self.try_wait_one(None)
        assert outcome is not None  # timeout=None blocks until done
        return outcome

    def try_wait_one(self, timeout: float | None = None) -> EvaluationOutcome | None:
        if self._ready:
            return self._ready.popleft()
        self._flush_buffer()
        if not self._tickets and not self._batch_tickets:
            raise RuntimeError("no pending evaluations")
        while True:
            pending = list(self._tickets) + list(self._batch_tickets)
            done, _ = _futures.wait(
                pending, timeout=timeout, return_when=_futures.FIRST_COMPLETED
            )
            if not done:
                return None
            for future in [f for f in done if f in self._batch_tickets]:
                self._collect_batch(future)
            if self._ready:
                return self._ready.popleft()
            singles = [f for f in done if f in self._tickets]
            if singles:
                # Among simultaneously-finished futures, collect the
                # earliest submission — a stable choice that keeps
                # replay drift small.
                return self._collect_single(
                    min(singles, key=lambda f: self._tickets[f].eval_id)
                )
            if not self._tickets and not self._batch_tickets:
                raise RuntimeError("no pending evaluations")
            # A batch completed but every outcome was abandoned (or it
            # failed and was resubmitted as singles) — wait again.

    @property
    def n_pending(self) -> int:
        in_batches = sum(len(t) for t in self._batch_tickets.values())
        return len(self._tickets) + len(self._buffer) + in_batches + len(self._ready)

    def abandon(self, eval_id: int) -> bool:
        """Detach one evaluation; cancel it if it has not started.

        A running evaluation cannot be interrupted at this layer: its
        ticket is dropped so the result (whenever it arrives) is
        discarded.
        """
        for i, ticket in enumerate(self._buffer):
            if ticket.eval_id == eval_id:
                del self._buffer[i]
                return True
        for i, outcome in enumerate(self._ready):
            if outcome.eval_id == eval_id:
                del self._ready[i]
                return True
        for tickets in self._batch_tickets.values():
            if any(ticket.eval_id == eval_id for ticket in tickets):
                # The batch cannot be interrupted mid-flight; its
                # outcome for this id is discarded on arrival.
                self._abandoned.add(eval_id)
                return True
        for future, ticket in list(self._tickets.items()):
            if ticket.eval_id == eval_id:
                future.cancel()
                del self._tickets[future]
                return True
        return False

    def cancel_pending(self) -> int:
        cancelled = len(self._buffer)
        self._buffer.clear()
        for future in list(self._batch_tickets):
            if future.cancel():
                cancelled += len(self._batch_tickets.pop(future))
        for future in list(self._tickets):
            if future.cancel():
                del self._tickets[future]
                cancelled += 1
        return cancelled

    def close(self) -> None:
        """Shut the pool down, waiting only for evaluations still owed.

        An abandoned evaluation (a resilience timeout) is not waited
        for: it may hang for as long as its fault lasts.  Its thread
        finishes in the background and its result is discarded.
        """
        self._pool.shutdown(wait=False, cancel_futures=True)
        owed = [
            future
            for future, tickets in self._batch_tickets.items()
            if not self._abandoned.intersection(t.eval_id for t in tickets)
        ]
        _futures.wait([*self._tickets, *owed])
