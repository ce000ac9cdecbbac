"""Study-store persistence layer (docs/STORE.md).

One class over one stdlib ``sqlite3`` database::

    from repro.store import open_store

    with open_store("campaign.db") as store:   # the database file itself
        ...
    with open_store("ckpts") as store:         # directory -> ckpts/store.db
        ...

Everything the tuning stack persists — run checkpoints, finished-cell
results, continuous-tuning epoch state, fleet leases — flows through a
:class:`~repro.store.base.StudyStore`, so the loop and the experiment
runner never touch files; campaign databases merge with
:func:`~repro.store.migrate.migrate_store`.  Whoever opens a store
closes it, and passes the open handle down to what it runs.
"""

from __future__ import annotations

from pathlib import Path

from repro.store.base import (
    Lease,
    LeaseError,
    SchemaVersionError,
    StaleLeaseError,
    StoreCheckpointSlot,
    StoreError,
    StudyStore,
)
from repro.store.migrate import MigrationReport, migrate_store

#: Path suffixes that name the database file itself in :func:`open_store`.
SQLITE_SUFFIXES = (".db", ".sqlite", ".sqlite3")

#: The database file inside a directory spec (``DIR`` -> ``DIR/store.db``).
STORE_FILENAME = "store.db"

#: Files the retired JSONL directory backend left behind.
_LEGACY_PATTERNS = ("store-index.json", "*.jsonl", "*.done.json")


def open_store(spec: str | Path) -> StudyStore:
    """Open a new store handle for ``spec``, which the caller owns and
    closes: a path ending in ``.db``/``.sqlite``/``.sqlite3`` is the
    database file, and any other path is a directory holding
    ``store.db`` (created on open) — so ``--resume DIR`` and
    ``checkpoint_dir=DIR`` call sites name a directory exactly as
    before.

    A directory left by the retired JSONL backend (its index or
    ``*.jsonl``/``*.done.json`` documents, no ``store.db``) raises
    :class:`SchemaVersionError` instead of silently opening an empty
    database and re-running the campaign.
    """
    path = Path(spec)
    if path.suffix.lower() in SQLITE_SUFFIXES:
        return StudyStore(path)
    database = path / STORE_FILENAME
    if path.is_dir() and not database.exists():
        for pattern in _LEGACY_PATTERNS:
            if any(path.glob(pattern)):
                raise SchemaVersionError(
                    f"store directory {path} holds a JSONL study store "
                    f"({pattern}); JSONL stores are no longer readable — "
                    f"this build reads only SQLite stores ({database})"
                )
    return StudyStore(database)


__all__ = [
    "Lease",
    "LeaseError",
    "MigrationReport",
    "SchemaVersionError",
    "StaleLeaseError",
    "StoreCheckpointSlot",
    "StoreError",
    "StudyStore",
    "migrate_store",
    "open_store",
    "SQLITE_SUFFIXES",
    "STORE_FILENAME",
]
