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
    the concurrent executors.

Three interchangeable backends:

:class:`SerialExecutor`
    FIFO, runs each evaluation inline inside ``wait_one`` on the
    calling thread.  The zero-dependency default — a loop using it is
    step-for-step identical to the classic serial loop.

:class:`ThreadPoolExecutor`
    Worker threads.  Right whenever evaluations spend wall-clock time
    off the GIL — real cluster runs, simulated measurement windows,
    NumPy-heavy engines — which is precisely the paper's regime of
    multi-minute cluster evaluations.

:class:`ProcessPoolExecutor`
    Worker processes; the objective is pickled once into each worker
    (observability is disabled there — worker metrics come home inside
    the returned outcomes, see docs/OBSERVABILITY.md).  Right for
    CPU-bound evaluation engines such as the discrete-event simulator.

Objectives are called through one duck-typed contract: objects with a
``measure(params, seed=...)`` method (e.g. :class:`~repro.storm.
objective.StormObjective`) return their full measurement record, which
the loop uses for failure diagnosis; plain callables are invoked as
``objective(config)`` and yield only the scalar.
"""

from __future__ import annotations

import abc
import inspect
import pickle
import time
from collections import deque
from concurrent import futures as _futures
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

Objective = Callable[[Mapping[str, object]], float]

#: Executor kinds accepted by :func:`make_executor`.
EXECUTOR_KINDS = ("serial", "thread", "process")


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
    #: Submit-to-collect wall time on the caller's clock (includes
    #: queueing); the queue wait is approximately ``turnaround_seconds
    #: - seconds``.
    turnaround_seconds: float
    seed: int | None = None


@dataclass
class _Ticket:
    """Book-keeping for one submitted evaluation."""

    eval_id: int
    config: dict[str, object]
    seed: int | None
    submitted_at: float = field(default_factory=time.perf_counter)


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


def _batch_outcomes(
    tickets: Sequence[_Ticket], runs: Sequence[object], seconds: float
) -> list[EvaluationOutcome]:
    """Zip a batch's runs back onto their tickets.

    The batch's wall time is amortized evenly across its outcomes so
    aggregate ``seconds`` telemetry stays comparable with the scalar
    path.
    """
    per_eval = seconds / len(tickets)
    now = time.perf_counter()
    return [
        EvaluationOutcome(
            eval_id=ticket.eval_id,
            config=ticket.config,
            value=float(run.throughput_tps),  # type: ignore[attr-defined]
            run=run,
            seconds=per_eval,
            turnaround_seconds=now - ticket.submitted_at,
            seed=ticket.seed,
        )
        for ticket, run in zip(tickets, runs)
    ]


class EvaluationExecutor(abc.ABC):
    """Submit/collect interface over one objective.

    Context-manager use closes the backend (and cancels anything still
    queued) on exit.
    """

    #: Backend name ("serial" / "thread" / "process"), for telemetry.
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

        Returns whether the evaluation was found and detached.  The
        backend reclaims the worker if it can (a process backend kills
        and respawns a hung worker; a thread backend can only orphan
        the running thread).
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
    through a single batch call and serves the outcomes FIFO.  Values
    are bit-identical to the scalar path (the batch engine's
    equivalence contract), so this is purely a throughput win for
    batch-emitting optimizers (grid/random/pla ``ask_batch``).  If a
    batch call raises, the queue is restored, batching is disabled for
    this executor, and evaluation falls back to the scalar path so the
    exception is re-raised with its precise ticket attribution.
    """

    kind = "serial"

    def __init__(self, objective: Objective, *, max_workers: int = 1) -> None:
        super().__init__(objective, max_workers=1)
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
            tickets = list(self._queue)
            t0 = time.perf_counter()
            try:
                runs = self.objective.measure_batch(  # type: ignore[attr-defined]
                    [t.config for t in tickets], seeds=[t.seed for t in tickets]
                )
            except Exception:
                # Replay serially below for exact ticket attribution.
                self._batch_disabled = True
            else:
                self._queue.clear()
                self._completed.extend(
                    _batch_outcomes(tickets, runs, time.perf_counter() - t0)
                )
                return self._completed.popleft()
        ticket = self._queue.pop(0)
        try:
            value, run, seconds = call_objective(
                self.objective, ticket.config, ticket.seed
            )
        except Exception as exc:
            try:
                exc._repro_ticket = ticket  # let wrappers identify the victim
            except AttributeError:  # pragma: no cover - exotic exceptions
                pass
            raise
        return EvaluationOutcome(
            eval_id=ticket.eval_id,
            config=ticket.config,
            value=value,
            run=run,
            seconds=seconds,
            turnaround_seconds=time.perf_counter() - ticket.submitted_at,
            seed=ticket.seed,
        )

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


class _PoolExecutor(EvaluationExecutor):
    """Shared future-juggling for the thread and process backends."""

    def __init__(self, objective: Objective, *, max_workers: int = 4) -> None:
        super().__init__(objective, max_workers=max_workers)
        self._pool = self._make_pool(max_workers)
        self._tickets: dict[_futures.Future, _Ticket] = {}

    @abc.abstractmethod
    def _make_pool(self, max_workers: int) -> _futures.Executor: ...

    @abc.abstractmethod
    def _submit_to_pool(
        self, config: Mapping[str, object], seed: int | None
    ) -> _futures.Future: ...

    def submit(
        self,
        eval_id: int,
        config: Mapping[str, object],
        seed: int | None = None,
    ) -> None:
        config = dict(config)
        future = self._submit_to_pool(config, seed)
        self._tickets[future] = _Ticket(eval_id, config, seed)

    def wait_one(self) -> EvaluationOutcome:
        outcome = self.try_wait_one(None)
        assert outcome is not None  # timeout=None blocks until done
        return outcome

    def try_wait_one(self, timeout: float | None = None) -> EvaluationOutcome | None:
        if not self._tickets:
            raise RuntimeError("no pending evaluations")
        done, _ = _futures.wait(
            self._tickets, timeout=timeout, return_when=_futures.FIRST_COMPLETED
        )
        if not done:
            return None
        # Among simultaneously-finished futures, collect the earliest
        # submission — a stable choice that keeps replay drift small.
        future = min(done, key=lambda f: self._tickets[f].eval_id)
        ticket = self._tickets.pop(future)
        try:
            value, run, seconds = future.result()  # re-raises worker errors
        except Exception as exc:
            try:
                exc._repro_ticket = ticket  # let wrappers identify the victim
            except AttributeError:  # pragma: no cover - exotic exceptions
                pass
            raise
        return EvaluationOutcome(
            eval_id=ticket.eval_id,
            config=ticket.config,
            value=value,
            run=run,
            seconds=seconds,
            turnaround_seconds=time.perf_counter() - ticket.submitted_at,
            seed=ticket.seed,
        )

    @property
    def n_pending(self) -> int:
        return len(self._tickets)

    def abandon(self, eval_id: int) -> bool:
        """Detach one evaluation; cancel it if it has not started.

        A running evaluation cannot be interrupted at this layer: its
        ticket is dropped so the result (whenever it arrives) is
        discarded.  The process backend overrides this to also reclaim
        the hung worker.
        """
        for future, ticket in list(self._tickets.items()):
            if ticket.eval_id == eval_id:
                future.cancel()
                del self._tickets[future]
                return True
        return False

    def cancel_pending(self) -> int:
        cancelled = 0
        for future in list(self._tickets):
            if future.cancel():
                del self._tickets[future]
                cancelled += 1
        return cancelled

    def close(self) -> None:
        self._pool.shutdown(wait=True, cancel_futures=True)


def _evaluate_task(
    objective: Objective, config: dict[str, object], seed: int | None
) -> tuple[float, object | None, float]:
    """Thread-pool task body (module level for symmetry and testing)."""
    return call_objective(objective, config, seed)


def _evaluate_batch_task(
    objective: Objective,
    configs: list[dict[str, object]],
    seeds: list[int | None],
) -> tuple[list[object], float]:
    """Thread-pool task body for one homogeneous analytic batch."""
    t0 = time.perf_counter()
    runs = objective.measure_batch(configs, seeds=seeds)  # type: ignore[attr-defined]
    return runs, time.perf_counter() - t0


class ThreadPoolExecutor(_PoolExecutor):
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
    a *single* pool task that evaluates the whole batch in one
    vectorized pass.  With per-evaluation seeds the values are a pure
    function of (config, seed), so outcomes are bit-identical to the
    one-future-per-eval path — there are just N-1 fewer task hops.  A
    failed batch disables the fast path and resubmits its tickets as
    singles, preserving per-ticket exception attribution.
    """

    kind = "thread"

    def __init__(self, objective: Objective, *, max_workers: int = 4) -> None:
        super().__init__(objective, max_workers=max_workers)
        self._buffer: list[_Ticket] = []
        self._ready: deque[EvaluationOutcome] = deque()
        self._batch_tickets: dict[_futures.Future, list[_Ticket]] = {}
        self._abandoned: set[int] = set()
        self._batch_disabled = False

    def _make_pool(self, max_workers: int) -> _futures.Executor:
        return _futures.ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-eval"
        )

    def _submit_to_pool(
        self, config: Mapping[str, object], seed: int | None
    ) -> _futures.Future:
        return self._pool.submit(_evaluate_task, self.objective, dict(config), seed)

    def submit(
        self,
        eval_id: int,
        config: Mapping[str, object],
        seed: int | None = None,
    ) -> None:
        if not self._batch_disabled and supports_batch_measurement(self.objective):
            self._buffer.append(_Ticket(eval_id, dict(config), seed))
        else:
            super().submit(eval_id, config, seed)

    def _flush_buffer(self) -> None:
        if not self._buffer:
            return
        tickets, self._buffer = self._buffer, []
        if len(tickets) == 1:
            ticket = tickets[0]
            future = self._submit_to_pool(ticket.config, ticket.seed)
            self._tickets[future] = ticket
            return
        future = self._pool.submit(
            _evaluate_batch_task,
            self.objective,
            [t.config for t in tickets],
            [t.seed for t in tickets],
        )
        self._batch_tickets[future] = tickets

    def _collect_batch(self, future: _futures.Future) -> None:
        tickets = self._batch_tickets.pop(future)
        try:
            runs, seconds = future.result()
        except Exception:
            # Disable batching and replay the batch as singles so the
            # failing evaluation re-raises with its own ticket attached.
            self._batch_disabled = True
            for ticket in tickets:
                new_future = self._submit_to_pool(ticket.config, ticket.seed)
                self._tickets[new_future] = ticket
            return
        for outcome in _batch_outcomes(tickets, runs, seconds):
            if outcome.eval_id in self._abandoned:
                self._abandoned.discard(outcome.eval_id)
                continue
            self._ready.append(outcome)

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
            batch_done = [f for f in done if f in self._batch_tickets]
            for future in batch_done:
                self._collect_batch(future)
            if self._ready:
                return self._ready.popleft()
            singles = [f for f in done if f in self._tickets]
            if singles:
                return self._collect_single(
                    min(singles, key=lambda f: self._tickets[f].eval_id)
                )
            if not self._tickets and not self._batch_tickets:
                raise RuntimeError("no pending evaluations")
            # A batch completed but every outcome was abandoned (or it
            # failed and was resubmitted as singles) — wait again.

    def _collect_single(self, future: _futures.Future) -> EvaluationOutcome:
        ticket = self._tickets.pop(future)
        try:
            value, run, seconds = future.result()  # re-raises worker errors
        except Exception as exc:
            try:
                exc._repro_ticket = ticket  # let wrappers identify the victim
            except AttributeError:  # pragma: no cover - exotic exceptions
                pass
            raise
        return EvaluationOutcome(
            eval_id=ticket.eval_id,
            config=ticket.config,
            value=value,
            run=run,
            seconds=seconds,
            turnaround_seconds=time.perf_counter() - ticket.submitted_at,
            seed=ticket.seed,
        )

    @property
    def n_pending(self) -> int:
        in_batches = sum(len(t) for t in self._batch_tickets.values())
        return (
            len(self._tickets)
            + len(self._buffer)
            + in_batches
            + len(self._ready)
        )

    def abandon(self, eval_id: int) -> bool:
        for i, ticket in enumerate(self._buffer):
            if ticket.eval_id == eval_id:
                del self._buffer[i]
                return True
        for i, outcome in enumerate(self._ready):
            if outcome.eval_id == eval_id:
                del self._ready[i]
                return True
        for tickets in self._batch_tickets.values():
            for ticket in tickets:
                if ticket.eval_id == eval_id:
                    # The batch cannot be interrupted mid-flight; its
                    # outcome for this id is discarded on arrival.
                    self._abandoned.add(eval_id)
                    return True
        return super().abandon(eval_id)

    def cancel_pending(self) -> int:
        cancelled = len(self._buffer)
        self._buffer.clear()
        for future in list(self._batch_tickets):
            if future.cancel():
                cancelled += len(self._batch_tickets.pop(future))
        return cancelled + super().cancel_pending()


#: Per-process objective installed by the process-pool initializer.
_WORKER_OBJECTIVE: Objective | None = None


def _process_worker_init(objective_bytes: bytes) -> None:
    """Unpickle the objective once per worker and disable obs there.

    Under the fork start method a worker would inherit the parent's
    live observability context — including any JSONL sink file handle,
    whose shared offset makes concurrent writes interleave.  Workers
    run with obs disabled and report timings home through their
    :class:`EvaluationOutcome`.
    """
    global _WORKER_OBJECTIVE
    from repro.obs import runtime as obs_runtime

    obs_runtime.deactivate()
    _WORKER_OBJECTIVE = pickle.loads(objective_bytes)


def _process_evaluate(
    config: dict[str, object], seed: int | None
) -> tuple[float, object | None, float]:
    assert _WORKER_OBJECTIVE is not None, "worker initializer did not run"
    return call_objective(_WORKER_OBJECTIVE, config, seed)


class ProcessPoolExecutor(_PoolExecutor):
    """Evaluations in worker processes (objective pickled once each).

    Each worker holds its own copy of the objective, so per-objective
    state (memo cache, evaluation counters) is per-worker and does not
    aggregate back — values and measurement records do.
    """

    kind = "process"

    def _make_pool(self, max_workers: int) -> _futures.Executor:
        return _futures.ProcessPoolExecutor(
            max_workers=max_workers,
            initializer=_process_worker_init,
            initargs=(pickle.dumps(self.objective),),
        )

    def _submit_to_pool(
        self, config: Mapping[str, object], seed: int | None
    ) -> _futures.Future:
        return self._pool.submit(_process_evaluate, dict(config), seed)

    def abandon(self, eval_id: int) -> bool:
        """Detach one evaluation, killing its worker if it is running.

        A hung worker process holds a pool slot forever; the only way
        to reclaim it is to kill the worker.  ``ProcessPoolExecutor``
        offers no per-worker surgery, so the whole pool is torn down
        (already-finished results are kept — they survive shutdown) and
        rebuilt, with every other in-flight evaluation resubmitted to
        the fresh pool under its original ticket.
        """
        target = None
        for future, ticket in self._tickets.items():
            if ticket.eval_id == eval_id:
                target = future
                break
        if target is None:
            return False
        del self._tickets[target]
        if target.cancel() or target.done():
            return True  # never started, or finished while we looked
        self._kill_and_respawn()
        return True

    def _kill_and_respawn(self) -> None:
        resubmit: list[_Ticket] = []
        for future, ticket in list(self._tickets.items()):
            if future.done():
                continue  # results of finished futures survive shutdown
            del self._tickets[future]
            resubmit.append(ticket)
        processes = getattr(self._pool, "_processes", None) or {}
        for proc in list(processes.values()):
            proc.kill()
        self._pool.shutdown(wait=False, cancel_futures=True)
        self._pool = self._make_pool(self.max_workers)
        # Original tickets (ids, seeds, submit times) ride along, so a
        # respawn is invisible to the caller beyond the added latency.
        for ticket in resubmit:
            future = self._submit_to_pool(ticket.config, ticket.seed)
            self._tickets[future] = ticket


def make_executor(
    kind: str, objective: Objective, *, max_workers: int = 1
) -> EvaluationExecutor:
    """Factory over the three backends ("serial" | "thread" | "process")."""
    if kind == "serial":
        return SerialExecutor(objective)
    if kind == "thread":
        return ThreadPoolExecutor(objective, max_workers=max_workers)
    if kind == "process":
        return ProcessPoolExecutor(objective, max_workers=max_workers)
    raise ValueError(f"unknown executor kind {kind!r}; use one of {EXECUTOR_KINDS}")
