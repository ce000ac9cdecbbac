"""``repro-experiments store ...`` — inspect and migrate study stores.

Exit codes follow the ``obs perf-compare`` convention: 0 on success,
1 on ordinary errors (missing store, bad arguments at runtime), and 2
when a store's format is one this build does not read — a schema
version newer than this build, or a directory left by the retired
JSONL backend (:class:`~repro.store.base.SchemaVersionError`): the
"don't trust the data" signal CI can branch on.
"""

from __future__ import annotations

import argparse

from repro import obs
from repro.store import migrate_store, open_store
from repro.store.base import SchemaVersionError, StoreError, StudyStore


def _ls(store: StudyStore, sink: obs.ProgressSink) -> int:
    sink.result(f"store {store.describe()} "
                f"(schema version {store.schema_version()})")
    studies = store.studies()
    if not studies:
        sink.result("  (empty)")
        return 0
    for study in studies:
        cells = store.cells(study)
        sink.result(f"  study {study!r}: {len(cells)} cell(s)")
        for cell in cells:
            runs = store.runs(study, cell)
            n_obs = store.observation_count(study, cell)
            done = "done" if store.has_results(study, cell) else "in progress"
            states = store.state_names(study, cell)
            extra = f", state: {', '.join(states)}" if states else ""
            sink.result(
                f"    cell {cell or '(root)'!r}: {len(runs)} run(s), "
                f"{n_obs} observation(s), {done}{extra}"
            )
    return 0


def store_main(argv: list[str]) -> int:
    """``repro-experiments store ...`` entry point; returns exit code."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments store",
        description="Inspect, migrate, and compact study stores "
        "(a *.db SQLite file, or a directory holding store.db).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    ls = sub.add_parser(
        "ls", help="list studies, cells, and observation counts"
    )
    ls.add_argument("store", help="store location (directory or *.db file)")
    migrate = sub.add_parser(
        "migrate",
        help="copy every study/cell/checkpoint from SRC into DST "
        "(lossless; merges into an existing DST)",
    )
    migrate.add_argument("src", help="source store (directory or *.db)")
    migrate.add_argument("dst", help="destination store (directory or *.db)")
    vacuum = sub.add_parser(
        "vacuum", help="compact the store database"
    )
    vacuum.add_argument("store", help="store location (directory or *.db file)")
    args = parser.parse_args(argv)
    sink = obs.ProgressSink()

    try:
        if args.command == "ls":
            with open_store(args.store) as store:
                return _ls(store, sink)
        if args.command == "migrate":
            with open_store(args.src) as src, open_store(args.dst) as dst:
                report = migrate_store(src, dst)
                parts = ", ".join(
                    f"{v} {k}" for k, v in report.as_dict().items()
                )
                sink.result(
                    f"migrated {src.describe()} -> "
                    f"{dst.describe()} ({parts})"
                )
            return 0
        if args.command == "vacuum":
            with open_store(args.store) as store:
                store.vacuum()
                sink.result(f"vacuumed {store.describe()}")
            return 0
    except SchemaVersionError as exc:
        sink.result(f"SCHEMA VERSION MISMATCH: {exc}")
        return 2
    except (StoreError, OSError) as exc:
        sink.result(f"error: {exc}")
        return 1
    return 1  # pragma: no cover - argparse enforces a command
