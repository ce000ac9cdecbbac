"""SQLite study store: one database, many concurrent campaigns.

Stdlib ``sqlite3`` only — no new runtime dependencies.  The schema is
versioned through an explicit ``schema_version`` table and a migration
runner: opening a database created by an older build applies the
missing migrations in order (each in its own transaction), and opening
one created by a *newer* build raises
:class:`~repro.store.base.SchemaVersionError` instead of misreading it
(the store CLI maps that to exit code 2).

Observations are stored as their canonical JSON payloads —
``Observation.as_dict()`` verbatim — so checkpoints read back and
migrate between databases byte-identically under
:func:`repro.core.checkpoint.canonical_history`.  WAL journaling plus a
generous busy timeout make the single file safe for the campaign
runner's process-parallel cells, which each open their own connection.
``synchronous=FULL`` makes every committed write durable when it
returns: a checkpoint saved before a power cut or SIGKILL is there on
resume.
"""

from __future__ import annotations

import dataclasses
import json
import random
import sqlite3
import time
import warnings
from pathlib import Path
from typing import Callable, TypeVar

from repro.core.checkpoint import TuningCheckpoint, _json_default
from repro.core.history import Observation, TuningResult
from repro.store.base import (
    Lease,
    SchemaVersionError,
    StaleLeaseError,
    StoreError,
    StudyStore,
)

T = TypeVar("T")

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


class SqliteStudyStore(StudyStore):
    """Study store over one stdlib-``sqlite3`` database file."""

    kind = "sqlite"

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._conn = sqlite3.connect(self.path, timeout=BUSY_TIMEOUT_MS / 1000)
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=FULL")
        self._conn.execute("PRAGMA foreign_keys=ON")
        self._conn.execute(f"PRAGMA busy_timeout={BUSY_TIMEOUT_MS}")
        #: Busy-retry knobs, patchable in tests (jitter only perturbs
        #: wall-clock sleeps, never stored values).
        self._sleep = time.sleep
        self._jitter = random.Random()
        self._retry(self._migrate)

    def describe(self) -> str:
        return str(self.path)

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
            try:
                with conn:
                    for statement in MIGRATIONS[version]:
                        conn.execute(statement)
                    conn.execute("DELETE FROM schema_version")
                    conn.execute(
                        "INSERT INTO schema_version (version) VALUES (?)",
                        (version,),
                    )
            except sqlite3.OperationalError:
                # A fleet of workers can race on a fresh database: the
                # loser sees "already exists" (or busy) for a step the
                # winner just applied.  Trust the version table, not
                # the exception: re-raise only if the migration truly
                # has not landed yet.
                if self.schema_version() < version:
                    raise

    def schema_version(self) -> int:
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
    # Backend hooks
    # ------------------------------------------------------------------
    def _save_checkpoint(
        self, study: str, cell: str, run: str, checkpoint: TuningCheckpoint
    ) -> None:
        cell_id = self._cell_id(study, cell, create=True)
        conn = self._conn
        state = (
            None
            if checkpoint.optimizer_state is None
            else json.dumps(checkpoint.optimizer_state, default=_json_default)
        )
        self._retry(lambda: self._write_checkpoint(conn, cell_id, run, checkpoint, state))

    def _write_checkpoint(
        self,
        conn: sqlite3.Connection,
        cell_id: int | None,
        run: str,
        checkpoint: TuningCheckpoint,
        state: str | None,
    ) -> None:
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

    def _load_checkpoint(
        self, study: str, cell: str, run: str
    ) -> TuningCheckpoint | None:
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

    def _save_results(
        self, study: str, cell: str, results: list[TuningResult]
    ) -> None:
        cell_id = self._cell_id(study, cell, create=True)
        payload = json.dumps([r.as_dict() for r in results], default=str)

        def write() -> None:
            with self._conn:
                self._conn.execute(
                    "INSERT OR REPLACE INTO results (cell_id, payload) "
                    "VALUES (?, ?)",
                    (cell_id, payload),
                )

        self._retry(write)

    def _load_results(
        self, study: str, cell: str
    ) -> list[TuningResult] | None:
        cell_id = self._cell_id(study, cell, create=False)
        if cell_id is None:
            return None
        row = self._conn.execute(
            "SELECT payload FROM results WHERE cell_id = ?", (cell_id,)
        ).fetchone()
        if row is None:
            return None
        try:
            return [TuningResult.from_dict(r) for r in json.loads(row[0])]
        except (json.JSONDecodeError, KeyError, TypeError, ValueError):
            return None

    def _save_state(
        self, study: str, cell: str, name: str, state: dict[str, object]
    ) -> None:
        cell_id = self._cell_id(study, cell, create=True)

        def write() -> None:
            with self._conn:
                self._conn.execute(
                    "INSERT OR REPLACE INTO states (cell_id, name, payload) "
                    "VALUES (?, ?, ?)",
                    (cell_id, name, json.dumps(state, sort_keys=True)),
                )

        self._retry(write)

    def _load_state(
        self, study: str, cell: str, name: str
    ) -> dict[str, object] | None:
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
    # Leases
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

    def _acquire_lease(
        self, study: str, cell: str, owner: str, ttl: float, now: float
    ) -> Lease | None:
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
                    (owner, now + ttl, cell_id, now),
                )
                if cursor.rowcount != 1:
                    return None
                row = conn.execute(
                    f"SELECT {self._LEASE_COLUMNS} FROM leases "
                    "WHERE cell_id = ?",
                    (cell_id,),
                ).fetchone()
            return self._lease_from_row(study, cell, row)

        return self._retry(claim)

    def _update_lease(
        self, lease: Lease, *, status: str, deadline: float, reason: str
    ) -> Lease:
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
            current = self._read_lease(lease.study, lease.cell)
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

    def _read_lease(self, study: str, cell: str) -> Lease | None:
        cell_id = self._cell_id(study, cell, create=False)
        if cell_id is None:
            return None
        row = self._conn.execute(
            f"SELECT {self._LEASE_COLUMNS} FROM leases "
            "WHERE cell_id = ? AND token > 0",
            (cell_id,),
        ).fetchone()
        return None if row is None else self._lease_from_row(study, cell, row)

    def _leases(self, study: str) -> list[Lease]:
        rows = self._conn.execute(
            f"SELECT cells.label, {self._LEASE_COLUMNS} FROM leases "
            "JOIN cells ON leases.cell_id = cells.id "
            "JOIN studies ON cells.study_id = studies.id "
            "WHERE studies.name = ? AND leases.token > 0",
            (study,),
        ).fetchall()
        return [
            self._lease_from_row(study, str(row[0]), row[1:]) for row in rows
        ]

    def _save_results_fenced(
        self,
        study: str,
        cell: str,
        results: list[TuningResult],
        owner: str,
        token: int,
    ) -> None:
        cell_id = self._cell_id(study, cell, create=False)
        payload = json.dumps([r.as_dict() for r in results], default=str)

        def write() -> bool:
            if cell_id is None:
                return False
            with self._conn:
                held = self._conn.execute(
                    "SELECT 1 FROM leases WHERE cell_id = ? AND token = ? "
                    "AND owner = ? AND status = 'leased'",
                    (cell_id, token, owner),
                ).fetchone()
                if held is None:
                    return False
                self._conn.execute(
                    "INSERT OR REPLACE INTO results (cell_id, payload) "
                    "VALUES (?, ?)",
                    (cell_id, payload),
                )
            return True

        if not self._retry(write):
            raise StaleLeaseError(
                f"results for {study}/{cell or '(root)'} rejected: "
                f"{owner!r} token {token} is not the current lease"
            )

    # ------------------------------------------------------------------
    # Enumeration
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
    def vacuum(self) -> None:
        self._conn.execute("VACUUM")

    def close(self) -> None:
        try:
            self._conn.close()
        except sqlite3.Error as exc:  # pragma: no cover - defensive
            raise StoreError(f"closing {self.path} failed: {exc}") from exc
