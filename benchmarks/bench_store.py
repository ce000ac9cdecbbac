"""Acceptance bench for the study-store persistence layer.

Two claims are checked (docs/STORE.md):

* **Lossless migration** — ``migrate_store`` carries a finished seeded
  miniature synthetic study into a second database with nothing
  dropped: per cell, every run checkpoint's history and every pass's
  best value, best config, and observation history compare equal under
  :func:`repro.core.checkpoint.canonical_history`.
* **Crash-safe resume** — a store-backed campaign killed with
  ``SIGKILL`` mid-study and resumed from the database reproduces the
  uninterrupted run's history byte-identically.

Run as a script for the CI ``store-smoke`` job (``--keep-db`` preserves
the study's database as an inspectable artifact), or under pytest for
the acceptance numbers:

    PYTHONPATH=src python benchmarks/bench_store.py --smoke
    PYTHONPATH=src python -m pytest benchmarks/bench_store.py -v
"""

from __future__ import annotations

import argparse
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.core.checkpoint import canonical_history
from repro.core.loop import TuningLoop
from repro.core.optimizer import BayesianOptimizer
from repro.core.parameters import IntParameter, ParameterSpace
from repro.experiments.presets import Budget
from repro.experiments.runner import SyntheticStudy
from repro.store import StudyStore, migrate_store, open_store
from repro.topology_gen.suite import CONDITIONS

#: Full-bench study axes (the acceptance configuration).
STRATEGIES = ("pla", "bo")
RESUME_STEPS = 16

_REPO_ROOT = Path(__file__).resolve().parent.parent


def _budget(smoke: bool) -> Budget:
    if smoke:
        return Budget(
            steps=5, steps_extended=6, baseline_steps=8, passes=1,
            repeat_best=2,
        )
    return Budget(
        steps=12, steps_extended=16, baseline_steps=20, passes=2,
        repeat_best=3,
    )


def _study(budget: Budget, store_spec: str) -> SyntheticStudy:
    return SyntheticStudy(
        budget,
        conditions=CONDITIONS[:1],
        sizes=("small",),
        strategies=STRATEGIES,
        seed=0,
        checkpoint_dir=store_spec,
    )


# ----------------------------------------------------------------------
# Migration
# ----------------------------------------------------------------------
def _same_passes(a, b) -> bool:
    return len(a) == len(b) and all(
        x.best_value == y.best_value
        and x.best_config == y.best_config
        and canonical_history(x.observations)
        == canonical_history(y.observations)
        for x, y in zip(a, b)
    )


def run_migration(
    *, smoke: bool = True, workdir: str | Path | None = None,
    keep_db: str | Path | None = None,
) -> dict[str, object]:
    """Run a study into one database, migrate it into a second one, and
    compare every checkpoint and finished cell across the two."""
    budget = _budget(smoke)
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        source_db = Path(tmp) / "store.db"
        migrated_db = Path(tmp) / "migrated.db"
        results = _study(budget, str(source_db)).run().results
        with open_store(source_db) as src, open_store(migrated_db) as dst:
            report = migrate_store(src, dst)
            cells = src.cells("synthetic")
            lossless = bool(cells) and dst.cells("synthetic") == cells
            for cell in cells:
                lossless = lossless and _same_passes(
                    src.load_results("synthetic", cell),
                    dst.load_results("synthetic", cell),
                )
                for run in src.runs("synthetic", cell):
                    before = src.load_checkpoint("synthetic", cell, run)
                    after = dst.load_checkpoint("synthetic", cell, run)
                    lossless = (
                        lossless
                        and after is not None
                        and canonical_history(before.observations)
                        == canonical_history(after.observations)
                    )
        if keep_db is not None:
            shutil.copy(source_db, keep_db)
    print(
        f"store migration bench: {len(results)} cell(s) x "
        f"{budget.passes} pass(es), migrated {report.checkpoints} "
        f"checkpoint(s) / {report.observations} observation(s), "
        f"lossless: {lossless}"
    )
    assert lossless, "migration dropped or altered stored documents"
    return {
        "cells": len(results),
        "lossless": lossless,
        "migrated_observations": report.observations,
    }


# ----------------------------------------------------------------------
# SIGKILL mid-study, resume from the store
# ----------------------------------------------------------------------
def _kill_objective(params: dict) -> float:
    return float((int(params["x"]) * 7 + int(params["y"]) * 3) % 23)


def _kill_space() -> ParameterSpace:
    return ParameterSpace(
        [IntParameter("x", 1, 32), IntParameter("y", 1, 16)]
    )


def _resume_loop(
    store: StudyStore | None, *, window_seconds: float = 0.0
) -> TuningLoop:
    """The kill bench's campaign, checkpointing into ``store`` (an open
    handle its caller closes).

    ``window_seconds`` simulates a measurement window so the child
    reliably dies mid-study; it never affects the observed values,
    which are a pure function of the config.
    """
    if window_seconds > 0:
        def objective(params: dict) -> float:
            time.sleep(window_seconds)
            return _kill_objective(params)
    else:
        objective = _kill_objective
    slot = (
        None
        if store is None
        else store.checkpoint_slot("bench-store", "kill", "pass0")
    )
    return TuningLoop(
        objective,
        BayesianOptimizer(_kill_space(), seed=3),
        max_steps=RESUME_STEPS,
        seed=11,
        checkpoint=slot,
    )


def run_kill_resume(workdir: str | Path | None = None) -> dict[str, object]:
    """SIGKILL a store-backed campaign, resume from the .db, compare."""
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        db = Path(tmp) / "killed.db"
        proc = subprocess.Popen(
            [
                sys.executable, str(Path(__file__).resolve()),
                "--child", str(db),
            ],
            cwd=_REPO_ROOT,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        )
        try:
            watcher = StudyStore(db)
            deadline = time.time() + 120
            while time.time() < deadline:
                loaded = watcher.load_checkpoint(
                    "bench-store", "kill", "pass0"
                )
                if loaded is not None and loaded.completed >= 3:
                    break
                if proc.poll() is not None:
                    break
                time.sleep(0.05)
            proc.kill()
        finally:
            proc.wait()
            watcher.close()
        with StudyStore(db) as store:
            killed = store.load_checkpoint("bench-store", "kill", "pass0")
        assert killed is not None, "child never wrote a checkpoint"
        assert 0 < killed.completed < RESUME_STEPS, (
            f"child finished {killed.completed} steps; the kill must land "
            f"mid-study for the bench to mean anything"
        )
        reference = _resume_loop(None).run()
        with StudyStore(db) as store:
            resumed = _resume_loop(store).run()
    identical = canonical_history(resumed.observations) == canonical_history(
        reference.observations
    )
    print(
        f"store kill/resume bench: killed at step "
        f"{killed.completed}/{RESUME_STEPS}, resumed "
        f"{resumed.metadata.get('resumed_steps')} steps from SQLite, "
        f"histories byte-identical: {identical}"
    )
    assert identical, "SQLite-resumed history diverged from uninterrupted run"
    return {"killed_at": killed.completed, "identical": identical}


# ----------------------------------------------------------------------
# pytest entry points (full acceptance numbers)
# ----------------------------------------------------------------------
def test_migration_is_lossless() -> None:
    report = run_migration(smoke=False)
    assert report["lossless"]


def test_sigkill_resume_from_sqlite_is_byte_identical() -> None:
    report = run_kill_resume()
    assert report["identical"]


# ----------------------------------------------------------------------
# Script entry point (CI store smoke)
# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--child",
        metavar="DB",
        default=None,
        help="internal: run the store-backed child campaign",
    )
    parser.add_argument(
        "--keep-db",
        metavar="PATH",
        default=None,
        help="copy the study's database here (CI artifact)",
    )
    from _harness import add_harness_args, emit, make_metric

    add_harness_args(parser)
    args = parser.parse_args(argv)
    if args.child:
        with open_store(args.child) as store:
            _resume_loop(store, window_seconds=0.1).run()
        return 0
    migration = run_migration(smoke=args.smoke, keep_db=args.keep_db)
    resume = run_kill_resume()
    emit(
        "bench_store",
        smoke=args.smoke,
        metrics={
            "migration_lossless": make_metric(
                float(migration["lossless"]), higher_is_better=True
            ),
            "resume_identical": make_metric(
                float(resume["identical"]), higher_is_better=True
            ),
            "migrated_observations": make_metric(
                float(migration["migrated_observations"]),
                higher_is_better=True,
            ),
        },
        meta={
            "cells": migration["cells"],
            "killed_at": resume["killed_at"],
        },
        json_path=args.json,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
