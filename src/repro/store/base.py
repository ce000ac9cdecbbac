"""The study store: who owns persisted tuning state.

Everything the tuning stack persists — run checkpoints, finished-cell
results, continuous-tuning epoch state, fleet leases — goes through
:class:`StudyStore`: one stdlib ``sqlite3`` database with a versioned
schema and migration runner, safe for many concurrent campaign
processes.

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

The schema is versioned through an explicit ``schema_version`` table
and a migration runner: opening a database created by an older build
applies the missing migrations in order (each in its own transaction),
and opening one created by a *newer* build raises
:class:`SchemaVersionError` instead of misreading it (the store CLI
maps that to exit code 2).  Observations are stored as their canonical
JSON payloads — ``Observation.as_dict()`` verbatim — so checkpoints
read back and migrate between databases byte-identically under
:func:`repro.core.checkpoint.canonical_history`.  WAL journaling plus a
generous busy timeout make the single file safe for process-parallel
cells and fleet workers, which each open their own connection.
``synchronous=FULL`` makes every committed write durable when it
returns: a checkpoint saved before a power cut or SIGKILL is there on
resume.

Whoever opens a store closes it (``with open_store(spec) as store``),
and hands the open handle to everything it runs: a campaign keeps one
handle for all its cells, because closing the last connection
checkpoints and deletes the WAL file the next cell's writes would
otherwise reuse.

``tests/test_store.py`` holds the contract suite; docs/STORE.md
documents the schema and the store CLI.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import signal
import sqlite3
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, TypeVar

from repro.core.checkpoint import TuningCheckpoint, _json_default
from repro.core.history import Observation, TuningResult
from repro.obs import runtime as obs_runtime

T = TypeVar("T")


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


SCHEMA_VERSION = 3

#: Explicit driver-level lock wait (milliseconds) before SQLITE_BUSY
#: surfaces at all, plus the bounded retry-with-jitter below for the
#: cases the driver cannot wait out (writer starvation under WAL).
BUSY_TIMEOUT_MS = 30_000
_BUSY_RETRIES = 8
_BUSY_BASE_SLEEP = 0.005

#: Migration steps, applied in version order inside one transaction
#: each.  Never edit a shipped entry — append a new version instead;
#: the runner replays exactly the missing suffix on old databases.
MIGRATIONS: dict[int, tuple[str, ...]] = {
    1: (
        """CREATE TABLE studies (
               id INTEGER PRIMARY KEY,
               name TEXT NOT NULL UNIQUE
           )""",
        """CREATE TABLE cells (
               id INTEGER PRIMARY KEY,
               study_id INTEGER NOT NULL REFERENCES studies(id),
               label TEXT NOT NULL,
               UNIQUE (study_id, label)
           )""",
        """CREATE TABLE runs (
               id INTEGER PRIMARY KEY,
               cell_id INTEGER NOT NULL REFERENCES cells(id),
               name TEXT NOT NULL,
               strategy TEXT NOT NULL DEFAULT '',
               seed TEXT,
               max_steps INTEGER NOT NULL DEFAULT 0,
               optimizer_state TEXT,
               UNIQUE (cell_id, name)
           )""",
        """CREATE TABLE observations (
               run_id INTEGER NOT NULL REFERENCES runs(id),
               step INTEGER NOT NULL,
               payload TEXT NOT NULL,
               PRIMARY KEY (run_id, step)
           )""",
        """CREATE TABLE results (
               cell_id INTEGER PRIMARY KEY REFERENCES cells(id),
               payload TEXT NOT NULL
           )""",
        """CREATE TABLE states (
               cell_id INTEGER NOT NULL REFERENCES cells(id),
               name TEXT NOT NULL,
               payload TEXT NOT NULL,
               PRIMARY KEY (cell_id, name)
           )""",
    ),
    2: (
        # `store ls` walks cells-per-study and runs-per-cell; the v1
        # UNIQUE constraints cover the lookups but not the reverse
        # walks on big multi-tenant databases.
        "CREATE INDEX idx_cells_study ON cells(study_id)",
        "CREATE INDEX idx_runs_cell ON runs(cell_id)",
    ),
    3: (
        # One lease row per cell for the multi-worker campaign queue:
        # `token` is the monotonic fencing token (bumped on every
        # acquisition), `deadline` the wall-clock heartbeat deadline,
        # `attempts` the total acquisition count (the poisoned-cell
        # quarantine bound), `reason` the last recorded failure.
        """CREATE TABLE leases (
               cell_id INTEGER PRIMARY KEY REFERENCES cells(id),
               owner TEXT NOT NULL DEFAULT '',
               token INTEGER NOT NULL DEFAULT 0,
               deadline REAL NOT NULL DEFAULT 0,
               status TEXT NOT NULL DEFAULT 'released',
               attempts INTEGER NOT NULL DEFAULT 0,
               reason TEXT NOT NULL DEFAULT ''
           )""",
    ),
}


class StudyStore:
    """Persistence for studies, cells, observations, and epoch state
    over one stdlib-``sqlite3`` database file.

    Every public method adds its ``store.*``/``lease.*`` metrics
    accounting and, for writes, its ``REPRO_STORE_KILL`` fault point
    (docs/OBSERVABILITY.md).
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        #: Busy-retry knobs, patchable in tests (jitter only perturbs
        #: wall-clock sleeps, never stored values).
        self._sleep = time.sleep
        self._jitter = random.Random()
        self._conn = sqlite3.connect(self.path, timeout=BUSY_TIMEOUT_MS / 1000)
        # Switching a rollback-journal file to WAL needs an exclusive
        # lock, and SQLite reports a held lock at once instead of
        # waiting out the busy timeout: back off like any write.
        self._retry(lambda: self._conn.execute("PRAGMA journal_mode=WAL"))
        self._conn.execute("PRAGMA synchronous=FULL")
        self._conn.execute("PRAGMA foreign_keys=ON")
        self._conn.execute(f"PRAGMA busy_timeout={BUSY_TIMEOUT_MS}")
        self._retry(self._migrate)

    def describe(self) -> str:
        """Human-readable location: ``sqlite:<database file>``."""
        return f"sqlite:{self.path}"

    def address(self, study: str, cell: str, name: str) -> str:
        """One document's location, for messages and loop events."""
        return f"{self.describe()}::{study}/{cell or '-'}/{name}"

    # ------------------------------------------------------------------
    # SQLITE_BUSY handling
    # ------------------------------------------------------------------
    @staticmethod
    def _is_busy(exc: sqlite3.OperationalError) -> bool:
        message = str(exc).lower()
        return "locked" in message or "busy" in message

    def _retry(self, op: Callable[[], T]) -> T:
        """Run ``op`` with bounded exponential backoff + jitter on
        SQLITE_BUSY/locked errors, so concurrent writers surface a
        :class:`StoreError` only after the store stayed contended well
        past the driver's own ``busy_timeout``."""
        delay = _BUSY_BASE_SLEEP
        for attempt in range(_BUSY_RETRIES):
            try:
                return op()
            except sqlite3.OperationalError as exc:
                if not self._is_busy(exc):
                    raise
                if attempt == _BUSY_RETRIES - 1:
                    raise StoreError(
                        f"store {self.path} stayed locked through "
                        f"{_BUSY_RETRIES} attempts: {exc}"
                    ) from exc
                self._sleep(delay * (1.0 + self._jitter.random()))
                delay *= 2.0
        raise AssertionError("unreachable")  # pragma: no cover

    # ------------------------------------------------------------------
    # Schema versioning
    # ------------------------------------------------------------------
    def _migrate(self) -> None:
        conn = self._conn
        with conn:
            conn.execute(
                "CREATE TABLE IF NOT EXISTS schema_version "
                "(version INTEGER NOT NULL)"
            )
        current = self.schema_version()
        if current > SCHEMA_VERSION:
            raise SchemaVersionError(
                f"store {self.path} has schema version {current} but this "
                f"build reads version {SCHEMA_VERSION}; refusing to touch it"
            )
        for version in range(current + 1, SCHEMA_VERSION + 1):
            with conn:
                # A fleet of workers can race on a fresh database.  The
                # sqlite3 module autocommits each CREATE on its own, so
                # a loser could see a half-applied step; BEGIN IMMEDIATE
                # takes the write lock first, making each step atomic,
                # and the version is re-read under that lock.
                conn.execute("BEGIN IMMEDIATE")
                if self.schema_version() >= version:
                    continue
                for statement in MIGRATIONS[version]:
                    conn.execute(statement)
                conn.execute("DELETE FROM schema_version")
                conn.execute(
                    "INSERT INTO schema_version (version) VALUES (?)",
                    (version,),
                )

    def schema_version(self) -> int:
        """The store's on-disk schema version."""
        row = self._conn.execute(
            "SELECT MAX(version) FROM schema_version"
        ).fetchone()
        return int(row[0]) if row and row[0] is not None else 0

    # ------------------------------------------------------------------
    # Row helpers
    # ------------------------------------------------------------------
    def _cell_id(self, study: str, cell: str, *, create: bool) -> int | None:
        conn = self._conn
        row = conn.execute(
            "SELECT cells.id FROM cells JOIN studies "
            "ON cells.study_id = studies.id "
            "WHERE studies.name = ? AND cells.label = ?",
            (study, cell),
        ).fetchone()
        if row is not None:
            return int(row[0])
        if not create:
            return None

        def insert() -> None:
            with conn:
                conn.execute(
                    "INSERT OR IGNORE INTO studies (name) VALUES (?)", (study,)
                )
                study_id = int(
                    conn.execute(
                        "SELECT id FROM studies WHERE name = ?", (study,)
                    ).fetchone()[0]
                )
                conn.execute(
                    "INSERT OR IGNORE INTO cells (study_id, label) "
                    "VALUES (?, ?)",
                    (study_id, cell),
                )

        self._retry(insert)
        return self._cell_id(study, cell, create=False)

    # ------------------------------------------------------------------
    # Checkpoints (one tuning run each)
    # ------------------------------------------------------------------
    def save_checkpoint(
        self, study: str, cell: str, run: str, checkpoint: TuningCheckpoint
    ) -> None:
        cell_id = self._cell_id(study, cell, create=True)
        state = (
            None
            if checkpoint.optimizer_state is None
            else json.dumps(checkpoint.optimizer_state, default=_json_default)
        )
        self._retry(lambda: self._write_checkpoint(cell_id, run, checkpoint, state))
        _count("store.checkpoint_writes")
        _maybe_die("checkpoint_write")

    def _write_checkpoint(
        self,
        cell_id: int | None,
        run: str,
        checkpoint: TuningCheckpoint,
        state: str | None,
    ) -> None:
        conn = self._conn
        with conn:
            conn.execute(
                "INSERT INTO runs (cell_id, name, strategy, seed, max_steps, "
                "optimizer_state) VALUES (?, ?, ?, ?, ?, ?) "
                "ON CONFLICT (cell_id, name) DO UPDATE SET "
                "strategy = excluded.strategy, seed = excluded.seed, "
                "max_steps = excluded.max_steps, "
                "optimizer_state = excluded.optimizer_state",
                (
                    cell_id,
                    run,
                    checkpoint.strategy,
                    # Derived seeds routinely exceed SQLite's signed
                    # 64-bit INTEGER range; store them as decimal text.
                    None if checkpoint.seed is None else str(checkpoint.seed),
                    checkpoint.max_steps,
                    state,
                ),
            )
            run_id = int(
                conn.execute(
                    "SELECT id FROM runs WHERE cell_id = ? AND name = ?",
                    (cell_id, run),
                ).fetchone()[0]
            )
            # The checkpoint is a whole-state replacement: drop any rows
            # past the new history before (re)writing the current one.
            conn.execute(
                "DELETE FROM observations WHERE run_id = ? AND step >= ?",
                (run_id, len(checkpoint.observations)),
            )
            conn.executemany(
                "INSERT OR REPLACE INTO observations (run_id, step, payload) "
                "VALUES (?, ?, ?)",
                (
                    (
                        run_id,
                        i,
                        json.dumps(
                            obs.as_dict(), sort_keys=True, default=_json_default
                        ),
                    )
                    for i, obs in enumerate(checkpoint.observations)
                ),
            )

    def load_checkpoint(
        self, study: str, cell: str, run: str
    ) -> TuningCheckpoint | None:
        _count("store.checkpoint_reads")
        cell_id = self._cell_id(study, cell, create=False)
        if cell_id is None:
            return None
        row = self._conn.execute(
            "SELECT id, strategy, seed, max_steps, optimizer_state "
            "FROM runs WHERE cell_id = ? AND name = ?",
            (cell_id, run),
        ).fetchone()
        if row is None:
            return None
        run_id, strategy, seed, max_steps, state = row
        checkpoint = TuningCheckpoint(
            strategy=str(strategy),
            seed=None if seed is None else int(seed),
            max_steps=int(max_steps),
            optimizer_state=None if state is None else json.loads(state),
        )
        cursor = self._conn.execute(
            "SELECT rowid, payload FROM observations WHERE run_id = ? "
            "ORDER BY step",
            (run_id,),
        )
        for rowid, payload in cursor:
            try:
                checkpoint.observations.append(
                    Observation.from_dict(json.loads(payload))
                )
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                # Stop at the first bad record, keep the trusted prefix,
                # and *name* the rejected row so the operator can
                # inspect it.
                warnings.warn(
                    f"store {self.path}: observations rowid {rowid} for run "
                    f"{study}/{cell}/{run} is malformed ({exc}); keeping the "
                    f"{checkpoint.completed} observation(s) before it",
                    RuntimeWarning,
                    stacklevel=2,
                )
                break
        return checkpoint

    # ------------------------------------------------------------------
    # Finished-cell results
    # ------------------------------------------------------------------
    def save_results(
        self, study: str, cell: str, results: list[TuningResult]
    ) -> None:
        self._write_results(study, cell, results, fence=None)

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
        self._write_results(study, cell, results, fence=(owner, int(token)))

    def _write_results(
        self,
        study: str,
        cell: str,
        results: list[TuningResult],
        fence: tuple[str, int] | None,
    ) -> None:
        cell_id = self._cell_id(study, cell, create=fence is None)
        payload = json.dumps([r.as_dict() for r in results], default=str)

        def write() -> None:
            with self._conn:
                if fence is not None:
                    owner, token = fence
                    held = cell_id is not None and self._conn.execute(
                        "SELECT 1 FROM leases WHERE cell_id = ? AND token = ? "
                        "AND owner = ? AND status = 'leased'",
                        (cell_id, token, owner),
                    ).fetchone() is not None
                    if not held:
                        _count("lease.stale_rejected")
                        raise StaleLeaseError(
                            f"results for {study}/{cell or '(root)'} "
                            f"rejected: {owner!r} token {token} is not the "
                            "current lease"
                        )
                self._conn.execute(
                    "INSERT OR REPLACE INTO results (cell_id, payload) "
                    "VALUES (?, ?)",
                    (cell_id, payload),
                )

        self._retry(write)
        _count("store.result_writes")
        _maybe_die("result_write")

    def load_results(
        self, study: str, cell: str
    ) -> list[TuningResult] | None:
        _count("store.result_reads")
        cell_id = self._cell_id(study, cell, create=False)
        if cell_id is None:
            return None
        row = self._conn.execute(
            "SELECT payload FROM results WHERE cell_id = ?", (cell_id,)
        ).fetchone()
        if row is None:
            return None
        try:
            results = [TuningResult.from_dict(r) for r in json.loads(row[0])]
        except (json.JSONDecodeError, KeyError, TypeError, ValueError):
            return None
        _count("store.result_hits")
        return results

    # ------------------------------------------------------------------
    # Named state documents (continuous-tuning epoch state, ...)
    # ------------------------------------------------------------------
    def save_state(
        self, study: str, cell: str, name: str, state: Mapping[str, object]
    ) -> None:
        cell_id = self._cell_id(study, cell, create=True)
        payload = json.dumps(dict(state), sort_keys=True)

        def write() -> None:
            with self._conn:
                self._conn.execute(
                    "INSERT OR REPLACE INTO states (cell_id, name, payload) "
                    "VALUES (?, ?, ?)",
                    (cell_id, name, payload),
                )

        self._retry(write)
        _count("store.state_writes")

    def load_state(
        self, study: str, cell: str, name: str
    ) -> dict[str, object] | None:
        _count("store.state_reads")
        cell_id = self._cell_id(study, cell, create=False)
        if cell_id is None:
            return None
        row = self._conn.execute(
            "SELECT payload FROM states WHERE cell_id = ? AND name = ?",
            (cell_id, name),
        ).fetchone()
        if row is None:
            return None
        try:
            data = json.loads(row[0])
        except json.JSONDecodeError:
            return None
        return dict(data) if isinstance(data, dict) else None

    # ------------------------------------------------------------------
    # Leases (the crash-safe multi-worker queue substrate)
    # ------------------------------------------------------------------
    _LEASE_COLUMNS = "owner, token, deadline, status, attempts, reason"

    @staticmethod
    def _lease_from_row(
        study: str, cell: str, row: tuple[object, ...]
    ) -> Lease:
        owner, token, deadline, status, attempts, reason = row
        return Lease(
            study=study,
            cell=cell,
            owner=str(owner),
            token=int(token),  # type: ignore[arg-type]
            deadline=float(deadline),  # type: ignore[arg-type]
            attempts=int(attempts),  # type: ignore[arg-type]
            status=str(status),
            reason=str(reason),
        )

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
        deadline = now + float(ttl_seconds)
        cell_id = self._cell_id(study, cell, create=True)

        def claim() -> Lease | None:
            conn = self._conn
            # One transaction: the conditional UPDATE is the atomic
            # claim (it serializes on the write lock), and the readback
            # of the bumped token happens before anyone else can write.
            with conn:
                conn.execute(
                    "INSERT OR IGNORE INTO leases (cell_id) VALUES (?)",
                    (cell_id,),
                )
                cursor = conn.execute(
                    "UPDATE leases SET owner = ?, token = token + 1, "
                    "deadline = ?, status = 'leased', "
                    "attempts = attempts + 1 "
                    "WHERE cell_id = ? "
                    "AND status NOT IN ('committed', 'quarantined') "
                    "AND NOT (status = 'leased' AND deadline > ?)",
                    (owner, deadline, cell_id, now),
                )
                if cursor.rowcount != 1:
                    return None
                row = conn.execute(
                    f"SELECT {self._LEASE_COLUMNS} FROM leases "
                    "WHERE cell_id = ?",
                    (cell_id,),
                ).fetchone()
            return self._lease_from_row(study, cell, row)

        lease = self._retry(claim)
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
        updated = self._update_lease(
            lease, status="leased", deadline=now + float(ttl_seconds),
            reason=lease.reason,
        )
        _count("lease.renewed")
        _maybe_die("lease_renew")
        return updated

    def commit_lease(self, lease: Lease) -> Lease:
        """Mark the leased cell done (terminal).  Idempotent at the
        queue level: a committed cell is never claimable again."""
        updated = self._update_lease(
            lease, status="committed", deadline=lease.deadline, reason=""
        )
        _count("lease.committed")
        _maybe_die("lease_commit")
        return updated

    def release_lease(self, lease: Lease, reason: str = "") -> Lease:
        """Give the cell back (retryable), recording ``reason``."""
        updated = self._update_lease(
            lease, status="released", deadline=lease.deadline, reason=reason
        )
        _count("lease.released")
        return updated

    def quarantine_lease(self, lease: Lease, reason: str) -> Lease:
        """Park a poisoned cell (terminal) with the recorded reason."""
        updated = self._update_lease(
            lease, status="quarantined", deadline=lease.deadline, reason=reason
        )
        _count("lease.quarantined")
        return updated

    def _update_lease(
        self, lease: Lease, *, status: str, deadline: float, reason: str
    ) -> Lease:
        """Apply a state change iff ``lease`` is still the current
        ``leased`` record; raise :class:`StaleLeaseError` otherwise."""
        cell_id = self._cell_id(lease.study, lease.cell, create=False)

        def update() -> int:
            with self._conn:
                cursor = self._conn.execute(
                    "UPDATE leases SET status = ?, deadline = ?, reason = ? "
                    "WHERE cell_id = ? AND token = ? AND owner = ? "
                    "AND status = 'leased'",
                    (
                        status,
                        deadline,
                        reason,
                        cell_id,
                        lease.token,
                        lease.owner,
                    ),
                )
                return cursor.rowcount

        if cell_id is None or self._retry(update) != 1:
            _count("lease.stale_rejected")
            current = self.read_lease(lease.study, lease.cell)
            raise StaleLeaseError(
                f"lease on {lease.study}/{lease.cell or '(root)'} "
                f"({lease.owner!r} token {lease.token}) is stale; current: "
                + (
                    "none"
                    if current is None
                    else f"{current.owner!r} token {current.token} "
                    f"{current.status}"
                )
            )
        return dataclasses.replace(
            lease, status=status, deadline=deadline, reason=reason
        )

    def read_lease(self, study: str, cell: str) -> Lease | None:
        """The cell's current lease record (``None``: never claimed)."""
        cell_id = self._cell_id(study, cell, create=False)
        if cell_id is None:
            return None
        row = self._conn.execute(
            f"SELECT {self._LEASE_COLUMNS} FROM leases "
            "WHERE cell_id = ? AND token > 0",
            (cell_id,),
        ).fetchone()
        return None if row is None else self._lease_from_row(study, cell, row)

    def leases(self, study: str) -> list[Lease]:
        """Every current lease record in the study, sorted by cell."""
        rows = self._conn.execute(
            f"SELECT cells.label, {self._LEASE_COLUMNS} FROM leases "
            "JOIN cells ON leases.cell_id = cells.id "
            "JOIN studies ON cells.study_id = studies.id "
            "WHERE studies.name = ? AND leases.token > 0",
            (study,),
        ).fetchall()
        return sorted(
            (self._lease_from_row(study, str(row[0]), row[1:]) for row in rows),
            key=lambda lease: lease.cell,
        )

    # ------------------------------------------------------------------
    # Enumeration (the `store ls` / migration surface)
    # ------------------------------------------------------------------
    def studies(self) -> list[str]:
        return [
            str(row[0])
            for row in self._conn.execute(
                "SELECT name FROM studies ORDER BY name"
            )
        ]

    def cells(self, study: str) -> list[str]:
        # A cell counts once it holds *content* (runs, results, or
        # state).  A bare lease row is coordination metadata.
        return [
            str(row[0])
            for row in self._conn.execute(
                "SELECT cells.label FROM cells JOIN studies "
                "ON cells.study_id = studies.id "
                "WHERE studies.name = ? AND ("
                "EXISTS (SELECT 1 FROM runs WHERE runs.cell_id = cells.id)"
                " OR EXISTS "
                "(SELECT 1 FROM results WHERE results.cell_id = cells.id)"
                " OR EXISTS "
                "(SELECT 1 FROM states WHERE states.cell_id = cells.id)"
                ") ORDER BY cells.label",
                (study,),
            )
        ]

    def runs(self, study: str, cell: str) -> list[str]:
        cell_id = self._cell_id(study, cell, create=False)
        if cell_id is None:
            return []
        return [
            str(row[0])
            for row in self._conn.execute(
                "SELECT name FROM runs WHERE cell_id = ? ORDER BY name",
                (cell_id,),
            )
        ]

    def state_names(self, study: str, cell: str) -> list[str]:
        cell_id = self._cell_id(study, cell, create=False)
        if cell_id is None:
            return []
        return [
            str(row[0])
            for row in self._conn.execute(
                "SELECT name FROM states WHERE cell_id = ? ORDER BY name",
                (cell_id,),
            )
        ]

    def has_results(self, study: str, cell: str) -> bool:
        cell_id = self._cell_id(study, cell, create=False)
        if cell_id is None:
            return False
        return (
            self._conn.execute(
                "SELECT 1 FROM results WHERE cell_id = ?", (cell_id,)
            ).fetchone()
            is not None
        )

    def observation_count(self, study: str, cell: str) -> int:
        """Total observations across a cell's run checkpoints."""
        cell_id = self._cell_id(study, cell, create=False)
        if cell_id is None:
            return 0
        row = self._conn.execute(
            "SELECT COUNT(*) FROM observations JOIN runs "
            "ON observations.run_id = runs.id WHERE runs.cell_id = ?",
            (cell_id,),
        ).fetchone()
        return int(row[0])

    # ------------------------------------------------------------------
    # Lifecycle / maintenance
    # ------------------------------------------------------------------
    def vacuum(self) -> None:
        """Compact the database file."""
        self._conn.execute("VACUUM")

    def close(self) -> None:
        """Close the connection; the store is unusable after."""
        try:
            self._conn.close()
        except sqlite3.Error as exc:  # pragma: no cover - defensive
            raise StoreError(f"closing {self.path} failed: {exc}") from exc

    def __enter__(self) -> "StudyStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

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
        return self.store.address(self.study, self.cell, self.run)
