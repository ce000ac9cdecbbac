"""The study-store contract: who owns persisted tuning state.

Everything the tuning stack persists — run checkpoints, finished-cell
results, continuous-tuning epoch state, fleet leases — goes through
:class:`StudyStore`.  Its one implementation is
:class:`repro.store.sqlite.SqliteStudyStore`: one stdlib ``sqlite3``
database with a versioned schema and migration runner, safe for many
concurrent campaign processes.

The data model is three kinds of documents under a ``(study, cell)``
address:

===========  =====================================================
document     contents
===========  =====================================================
checkpoint   one tuning run's :class:`~repro.core.checkpoint.
             TuningCheckpoint` (observations + optimizer snapshot),
             keyed by a run name (``pass0``, ``epoch-0003``, ...)
results      a finished cell's :class:`~repro.core.history.
             TuningResult` list
state        an arbitrary JSON document, keyed by name (the
             continuous-tuning loop's ``continuous`` epoch state)
===========  =====================================================

``tests/test_store.py`` holds the contract suite; docs/STORE.md
documents the schema and the store CLI.
"""

from __future__ import annotations

import abc
import dataclasses
import os
import signal
import time
from dataclasses import dataclass
from typing import Mapping

from repro.core.checkpoint import TuningCheckpoint
from repro.core.history import TuningResult
from repro.obs import runtime as obs_runtime


class StoreError(RuntimeError):
    """A study-store operation failed."""


class SchemaVersionError(StoreError):
    """The store was written by an incompatible schema version.

    Raised instead of guessing: a newer schema may record state this
    build cannot interpret, and "resume from garbage" is worse than
    refusing.  The store CLI maps this to exit code 2, the same
    convention ``obs perf-compare`` uses for schema drift.
    """


class LeaseError(StoreError):
    """A lease operation failed."""


class StaleLeaseError(LeaseError):
    """The caller's fencing token no longer names the current lease.

    Raised when a worker that lost its lease (expiry + reclamation by
    another owner, or an explicit release) tries to renew, commit, or
    write fenced results.  The correct reaction is to *drop* the work —
    the new owner re-derives it deterministically — never to retry.
    """


#: Lease lifecycle states (docs/ROBUSTNESS.md has the state diagram).
#: ``committed`` and ``quarantined`` are terminal; ``released`` and an
#: expired ``leased`` are reclaimable by the next :meth:`~StudyStore.
#: acquire_lease` call, which bumps the fencing token.
LEASE_STATUSES = ("leased", "committed", "released", "quarantined")
TERMINAL_LEASE_STATUSES = ("committed", "quarantined")


@dataclass(frozen=True)
class Lease:
    """One cell's work lease: owner, fencing token, heartbeat deadline.

    ``token`` increases monotonically per cell — every successful
    acquisition (including reclamation of an expired or released lease)
    bumps it, so any writer holding an older token is provably stale.
    ``deadline`` is wall-clock (``time.time()``) so independent worker
    processes on one host agree on expiry; ``attempts`` counts total
    acquisitions of the cell (the poisoned-cell quarantine bound);
    ``reason`` carries the last recorded failure or quarantine cause.
    """

    study: str
    cell: str
    owner: str
    token: int
    deadline: float
    attempts: int = 1
    status: str = "leased"
    reason: str = ""

    def expired(self, now: float | None = None) -> bool:
        """True when a ``leased`` lease's heartbeat deadline passed."""
        if self.status != "leased":
            return False
        return (time.time() if now is None else now) >= self.deadline

    def as_dict(self) -> dict[str, object]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "Lease":
        return cls(
            study=str(data.get("study", "")),
            cell=str(data.get("cell", "")),
            owner=str(data.get("owner", "")),
            token=int(data["token"]),  # type: ignore[arg-type]
            deadline=float(data["deadline"]),  # type: ignore[arg-type]
            attempts=int(data.get("attempts", 1)),  # type: ignore[arg-type]
            status=str(data.get("status", "leased")),
            reason=str(data.get("reason", "")),
        )


#: ``REPRO_STORE_KILL="<op>:<n>"`` SIGKILLs the *current process* right
#: after its n-th (1-based) store operation of kind ``op`` —
#: ``checkpoint_write`` / ``result_write`` / ``lease_acquire`` /
#: ``lease_renew`` / ``lease_commit``.  The kill-fuzzer
#: (``benchmarks/bench_fleet.py``) uses it to die deterministically
#: mid-cell, mid-heartbeat, and between the two commit phases (results
#: written, lease not yet committed).
KILL_ENV = "REPRO_STORE_KILL"
_kill_counts: dict[str, int] = {}


def _maybe_die(op: str) -> None:
    spec = os.environ.get(KILL_ENV)
    if not spec:
        return
    want, _, count = spec.partition(":")
    if want != op:
        return
    _kill_counts[op] = _kill_counts.get(op, 0) + 1
    try:
        threshold = int(count)
    except ValueError:
        return
    if _kill_counts[op] >= threshold:
        os.kill(os.getpid(), signal.SIGKILL)


def _count(name: str, n: int = 1) -> None:
    """Fold one store operation into the active obs registry (no-op
    fast path when no session is active — same budget as the tracer)."""
    obs_runtime.current().metrics.counter(name).inc(n)


class StudyStore(abc.ABC):
    """Persistence for studies, cells, observations, and epoch state.

    The backend implements the underscore hooks; the public methods add
    the ``store.*`` metrics accounting and the ``REPRO_STORE_KILL``
    fault points on top (docs/OBSERVABILITY.md).
    """

    #: Backend identifier for events and `store ls`.
    kind: str = "store"

    # ------------------------------------------------------------------
    # Checkpoints (one tuning run each)
    # ------------------------------------------------------------------
    def save_checkpoint(
        self, study: str, cell: str, run: str, checkpoint: TuningCheckpoint
    ) -> None:
        self._save_checkpoint(study, cell, run, checkpoint)
        _count("store.checkpoint_writes")
        _maybe_die("checkpoint_write")

    def load_checkpoint(
        self, study: str, cell: str, run: str
    ) -> TuningCheckpoint | None:
        checkpoint = self._load_checkpoint(study, cell, run)
        _count("store.checkpoint_reads")
        return checkpoint

    # ------------------------------------------------------------------
    # Finished-cell results (the runner's old ``done`` files)
    # ------------------------------------------------------------------
    def save_results(
        self, study: str, cell: str, results: list[TuningResult]
    ) -> None:
        self._save_results(study, cell, results)
        _count("store.result_writes")
        _maybe_die("result_write")

    def save_results_fenced(
        self,
        study: str,
        cell: str,
        results: list[TuningResult],
        *,
        owner: str,
        token: int,
    ) -> None:
        """Save results only while ``(owner, token)`` holds the lease.

        The write and the fencing check are one transaction, so a
        worker reclaimed while it was computing raises
        :class:`StaleLeaseError` instead of clobbering the new owner's
        cell.
        """
        try:
            self._save_results_fenced(study, cell, results, owner, int(token))
        except StaleLeaseError:
            _count("lease.stale_rejected")
            raise
        _count("store.result_writes")
        _maybe_die("result_write")

    def load_results(
        self, study: str, cell: str
    ) -> list[TuningResult] | None:
        results = self._load_results(study, cell)
        _count("store.result_reads")
        if results is not None:
            _count("store.result_hits")
        return results

    # ------------------------------------------------------------------
    # Named state documents (continuous-tuning epoch state, ...)
    # ------------------------------------------------------------------
    def save_state(
        self, study: str, cell: str, name: str, state: Mapping[str, object]
    ) -> None:
        self._save_state(study, cell, name, dict(state))
        _count("store.state_writes")

    def load_state(
        self, study: str, cell: str, name: str
    ) -> dict[str, object] | None:
        state = self._load_state(study, cell, name)
        _count("store.state_reads")
        return state

    # ------------------------------------------------------------------
    # Leases (the crash-safe multi-worker queue substrate)
    # ------------------------------------------------------------------
    def acquire_lease(
        self,
        study: str,
        cell: str,
        owner: str,
        ttl_seconds: float,
        now: float | None = None,
    ) -> Lease | None:
        """Claim a cell: ``None`` if it is held, committed, or
        quarantined; otherwise a fresh :class:`Lease` with a bumped
        fencing token (expired and released leases are reclaimable)."""
        if ttl_seconds <= 0:
            raise ValueError("ttl_seconds must be > 0")
        now = time.time() if now is None else float(now)
        lease = self._acquire_lease(study, cell, owner, float(ttl_seconds), now)
        if lease is None:
            _count("lease.contended")
            return None
        _count("lease.acquired")
        if lease.attempts > 1:
            _count("lease.reacquired")
        _maybe_die("lease_acquire")
        return lease

    def renew_lease(
        self, lease: Lease, ttl_seconds: float, now: float | None = None
    ) -> Lease:
        """Heartbeat: push the deadline ``ttl_seconds`` into the future.

        Raises :class:`StaleLeaseError` once the lease was reclaimed
        (fencing token superseded) or left the ``leased`` state."""
        if ttl_seconds <= 0:
            raise ValueError("ttl_seconds must be > 0")
        now = time.time() if now is None else float(now)
        updated = self._checked_update(
            lease, status="leased", deadline=now + float(ttl_seconds),
            reason=lease.reason,
        )
        _count("lease.renewed")
        _maybe_die("lease_renew")
        return updated

    def commit_lease(self, lease: Lease) -> Lease:
        """Mark the leased cell done (terminal).  Idempotent at the
        queue level: a committed cell is never claimable again."""
        updated = self._checked_update(
            lease, status="committed", deadline=lease.deadline, reason=""
        )
        _count("lease.committed")
        _maybe_die("lease_commit")
        return updated

    def release_lease(self, lease: Lease, reason: str = "") -> Lease:
        """Give the cell back (retryable), recording ``reason``."""
        updated = self._checked_update(
            lease, status="released", deadline=lease.deadline, reason=reason
        )
        _count("lease.released")
        return updated

    def quarantine_lease(self, lease: Lease, reason: str) -> Lease:
        """Park a poisoned cell (terminal) with the recorded reason."""
        updated = self._checked_update(
            lease, status="quarantined", deadline=lease.deadline, reason=reason
        )
        _count("lease.quarantined")
        return updated

    def _checked_update(
        self, lease: Lease, *, status: str, deadline: float, reason: str
    ) -> Lease:
        try:
            return self._update_lease(
                lease, status=status, deadline=deadline, reason=reason
            )
        except StaleLeaseError:
            _count("lease.stale_rejected")
            raise

    def read_lease(self, study: str, cell: str) -> Lease | None:
        """The cell's current lease record (``None``: never claimed)."""
        return self._read_lease(study, cell)

    def leases(self, study: str) -> list[Lease]:
        """Every current lease record in the study, sorted by cell."""
        return sorted(self._leases(study), key=lambda lease: lease.cell)

    # ------------------------------------------------------------------
    # Backend hooks
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _save_checkpoint(
        self, study: str, cell: str, run: str, checkpoint: TuningCheckpoint
    ) -> None: ...

    @abc.abstractmethod
    def _load_checkpoint(
        self, study: str, cell: str, run: str
    ) -> TuningCheckpoint | None: ...

    @abc.abstractmethod
    def _save_results(
        self, study: str, cell: str, results: list[TuningResult]
    ) -> None: ...

    @abc.abstractmethod
    def _load_results(
        self, study: str, cell: str
    ) -> list[TuningResult] | None: ...

    @abc.abstractmethod
    def _save_state(
        self, study: str, cell: str, name: str, state: dict[str, object]
    ) -> None: ...

    @abc.abstractmethod
    def _load_state(
        self, study: str, cell: str, name: str
    ) -> dict[str, object] | None: ...

    @abc.abstractmethod
    def _acquire_lease(
        self, study: str, cell: str, owner: str, ttl: float, now: float
    ) -> Lease | None: ...

    @abc.abstractmethod
    def _update_lease(
        self, lease: Lease, *, status: str, deadline: float, reason: str
    ) -> Lease:
        """Apply a state change iff ``lease`` is still the current
        ``leased`` record; raise :class:`StaleLeaseError` otherwise."""

    @abc.abstractmethod
    def _read_lease(self, study: str, cell: str) -> Lease | None: ...

    @abc.abstractmethod
    def _leases(self, study: str) -> list[Lease]: ...

    @abc.abstractmethod
    def _save_results_fenced(
        self,
        study: str,
        cell: str,
        results: list[TuningResult],
        owner: str,
        token: int,
    ) -> None:
        """Save ``results`` iff ``(owner, token)`` is the current
        ``leased`` record, atomically; raise :class:`StaleLeaseError`
        otherwise."""

    # ------------------------------------------------------------------
    # Enumeration (the `store ls` / migration surface)
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def studies(self) -> list[str]: ...

    @abc.abstractmethod
    def cells(self, study: str) -> list[str]: ...

    @abc.abstractmethod
    def runs(self, study: str, cell: str) -> list[str]: ...

    @abc.abstractmethod
    def state_names(self, study: str, cell: str) -> list[str]: ...

    @abc.abstractmethod
    def has_results(self, study: str, cell: str) -> bool: ...

    @abc.abstractmethod
    def observation_count(self, study: str, cell: str) -> int:
        """Total observations across a cell's run checkpoints."""

    # ------------------------------------------------------------------
    # Lifecycle / maintenance
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def describe(self) -> str:
        """Human-readable location (the database file)."""

    @abc.abstractmethod
    def schema_version(self) -> int:
        """The store's on-disk schema version."""

    @abc.abstractmethod
    def vacuum(self) -> None:
        """Reclaim space / compact the backing storage."""

    @abc.abstractmethod
    def close(self) -> None:
        """Release backend resources; the store is unusable after."""

    def __enter__(self) -> "StudyStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    def checkpoint_slot(
        self, study: str, cell: str, run: str
    ) -> "StoreCheckpointSlot":
        """Bind one run's checkpoint address as a loop-compatible slot."""
        return StoreCheckpointSlot(self, study, cell, run)


class StoreCheckpointSlot:
    """A :class:`~repro.core.checkpoint.CheckpointSlot` over one store
    address, handed to :class:`~repro.core.loop.TuningLoop` so the loop
    checkpoints through the store without knowing its layout."""

    def __init__(
        self, store: StudyStore, study: str, cell: str, run: str
    ) -> None:
        self.store = store
        self.study = study
        self.cell = cell
        self.run = run

    def load(self) -> TuningCheckpoint | None:
        return self.store.load_checkpoint(self.study, self.cell, self.run)

    def save(self, checkpoint: TuningCheckpoint) -> None:
        self.store.save_checkpoint(self.study, self.cell, self.run, checkpoint)

    def describe(self) -> str:
        return (
            f"{self.store.kind}:{self.store.describe()}"
            f"::{self.study}/{self.cell or '-'}/{self.run}"
        )
