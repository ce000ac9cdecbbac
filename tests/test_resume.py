"""Crash-safe checkpointing and resume.

The acceptance criterion: a campaign killed with ``SIGKILL`` mid-run
and resumed from its study-store checkpoint produces a byte-identical
observation history (:func:`repro.core.checkpoint.canonical_history`)
to the uninterrupted run.
"""

from __future__ import annotations

import os
import sqlite3
import stat
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.core.baselines import GridAscentOptimizer
from repro.core.checkpoint import (
    atomic_write_text,
    canonical_history,
    histories_match,
)
from repro.core.continuous import STATE_NAME, ContinuousTuningLoop
from repro.core.history import Observation
from repro.core.loop import TuningLoop
from repro.core.optimizer import BayesianOptimizer
from repro.core.parameters import IntParameter, ParameterSpace
from repro.experiments.presets import Budget
from repro.experiments.runner import (
    SundogArmSpec,
    SyntheticCellSpec,
    SyntheticStudy,
    run_cell,
)
from repro.service.campaign import StudyError, evaluation_failure_rows
from repro.store import STORE_FILENAME, StudyStore, open_store
from repro.topology_gen.suite import CONDITIONS


#: Subprocess children run from the repository root (``src`` on path).
_REPO_ROOT = Path(__file__).resolve().parent.parent


def _objective(params):
    return float((int(params["x"]) * 7) % 13)


def _space():
    return ParameterSpace([IntParameter("x", 1, 32)])


class TestCheckpointFile:
    def test_atomic_write_creates_parents(self, tmp_path):
        path = tmp_path / "a" / "b" / "file.txt"
        atomic_write_text(path, "hello")
        assert path.read_text() == "hello"
        assert not list(path.parent.glob("*.tmp"))

    def test_canonical_history_ignores_timings(self):
        a = Observation(
            step=0, config={"x": 1}, value=5.0, suggest_seconds=0.1,
            evaluate_seconds=0.2,
        )
        b = Observation(
            step=0, config={"x": 1}, value=5.0, suggest_seconds=9.9,
            evaluate_seconds=9.9,
        )
        assert canonical_history([a]) == canonical_history([b])

    def test_canonical_history_sees_failures(self):
        ok = Observation(step=0, config={"x": 1}, value=0.0)
        bad = Observation(
            step=0, config={"x": 1}, value=0.0, failed=True,
            failure_reason="worker_crash: x",
        )
        assert canonical_history([ok]) != canonical_history([bad])

    def test_atomic_write_fsyncs_the_directory(self, tmp_path, monkeypatch):
        """os.replace lives in directory metadata; without a directory
        fsync a power cut can forget the rename after the data synced."""
        synced_kinds = []
        real_fsync = os.fsync

        def recording(fd):
            synced_kinds.append(stat.S_ISDIR(os.fstat(fd).st_mode))
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", recording)
        atomic_write_text(tmp_path / "file.txt", "payload")
        assert False in synced_kinds  # the temp file's data
        assert True in synced_kinds  # the rename, in directory metadata


def _load(db):
    """The checkpoint a test loop saved into the store at ``db``."""
    with StudyStore(db) as store:
        return store.load_checkpoint("resume", "cell", "pass0")


def _loop(objective, optimizer, db, **kwargs):
    """A loop checkpointing to ``db``; runs it and closes the store."""
    with StudyStore(db) as store:
        return TuningLoop(
            objective,
            optimizer,
            checkpoint=store.checkpoint_slot("resume", "cell", "pass0"),
            **kwargs,
        ).run()


class TestLoopCheckpointing:
    def test_checkpoint_written_after_every_tell(self, tmp_path):
        db = tmp_path / "run.db"
        opt = BayesianOptimizer(_space(), seed=0)
        result = _loop(_objective, opt, db, max_steps=4, seed=1)
        loaded = _load(db)
        assert loaded is not None
        assert loaded.completed == 4
        assert loaded.optimizer_state is not None
        assert histories_match(loaded.observations, result.observations)

    def test_exact_resume_matches_uninterrupted(self, tmp_path):
        def run(max_steps, db):
            opt = BayesianOptimizer(_space(), seed=3)
            return _loop(_objective, opt, db, max_steps=max_steps, seed=11)

        full = run(6, tmp_path / "full.db")
        run(3, tmp_path / "cut.db")  # the "crashed" half-run
        resumed = run(6, tmp_path / "cut.db")
        assert resumed.metadata["resumed_steps"] == 3
        assert histories_match(resumed.observations, full.observations)
        assert canonical_history(resumed.observations) == canonical_history(
            full.observations
        )

    def test_replay_resume_for_stateless_optimizer(self, tmp_path):
        configs = [{"x": v} for v in (1, 2, 3, 4, 5, 6)]

        def run(max_steps, db):
            opt = GridAscentOptimizer(configs)
            return _loop(
                _objective, opt, db, max_steps=max_steps, seed=2,
                strategy_name="grid",
            )

        full = run(6, tmp_path / "full.db")
        run(2, tmp_path / "cut.db")
        resumed = run(6, tmp_path / "cut.db")
        assert resumed.metadata["resumed_steps"] == 2
        assert histories_match(resumed.observations, full.observations)

    def test_completed_checkpoint_short_circuits_the_loop(self, tmp_path):
        db = tmp_path / "run.db"
        calls = []

        def counting(params):
            calls.append(1)
            return _objective(params)

        opt = BayesianOptimizer(_space(), seed=0)
        _loop(counting, opt, db, max_steps=3, seed=1)
        n_first = len(calls)
        opt2 = BayesianOptimizer(_space(), seed=0)
        result = _loop(counting, opt2, db, max_steps=3, seed=1)
        assert len(calls) == n_first  # nothing re-evaluated
        assert result.metadata["resumed_steps"] == 3


@pytest.mark.slow
class TestKillMidRun:
    def test_sigkill_then_resume_is_byte_identical(self, tmp_path):
        """kill -9 a checkpointing run; resume reproduces the history."""
        db = tmp_path / "killed.db"
        script = tmp_path / "child.py"
        script.write_text(
            textwrap.dedent(
                """
                import sys, time
                from repro.core.loop import TuningLoop
                from repro.core.optimizer import BayesianOptimizer
                from repro.core.parameters import IntParameter, ParameterSpace
                from repro.store import StudyStore

                def objective(params):
                    time.sleep(0.1)  # slow enough to die mid-run
                    return float((int(params["x"]) * 7) % 13)

                space = ParameterSpace([IntParameter("x", 1, 32)])
                opt = BayesianOptimizer(space, seed=3)
                store = StudyStore(sys.argv[1])
                TuningLoop(
                    objective, opt, max_steps=16, seed=11,
                    checkpoint=store.checkpoint_slot("resume", "cell", "pass0"),
                ).run()
                """
            )
        )
        StudyStore(db).close()  # create the schema before polling
        proc = subprocess.Popen(
            [sys.executable, str(script), str(db)],
            cwd=_REPO_ROOT,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        )
        try:
            deadline = time.time() + 60
            while time.time() < deadline:
                loaded = _load(db)
                if loaded is not None and loaded.completed >= 2:
                    break
                if proc.poll() is not None:
                    break
                time.sleep(0.05)
            proc.kill()  # SIGKILL: no atexit, no cleanup
        finally:
            proc.wait()
        killed = _load(db)
        assert killed is not None
        assert 0 < killed.completed < 16, "child died mid-run as intended"

        reference = TuningLoop(
            _objective,
            BayesianOptimizer(_space(), seed=3),
            max_steps=16,
            seed=11,
        ).run()
        resumed = _loop(
            _objective, BayesianOptimizer(_space(), seed=3), db,
            max_steps=16, seed=11,
        )
        assert resumed.metadata["resumed_steps"] == killed.completed
        assert canonical_history(resumed.observations) == canonical_history(
            reference.observations
        )


class _DriftingParabola:
    """Deterministic grid objective whose ceiling collapses at t >= 1000s.

    Integer grid on purpose: byte-identity requires proposals that
    survive the optimizer-state round-trip of a resume, and rounding
    absorbs the ~1e-14 posterior difference continuous coordinates
    would expose.
    """

    def __init__(self):
        self.t = 0.0

    def set_workload_time(self, t_s):
        self.t = float(t_s)

    def __call__(self, params):
        scale = 100.0 if self.t < 1000.0 else 40.0
        x = float(params["x"]) / 100.0
        y = float(params["y"]) / 100.0
        return scale * (1.0 - (x - 0.5) ** 2 - (y - 0.5) ** 2)


def _drift_loop(objective, store):
    space = ParameterSpace(
        [IntParameter("x", 0, 100), IntParameter("y", 0, 100)]
    )
    return ContinuousTuningLoop(
        objective,
        lambda seed: BayesianOptimizer(space, seed=seed, init_points=3),
        epochs=4,
        epoch_duration_s=600.0,
        steps_per_epoch=4,
        initial_steps=6,
        mode="continuous",
        seed=5,
        store=store,
    )


@pytest.mark.slow
class TestKillMidDrift:
    def test_sigkill_across_drift_event_resumes_byte_identical(
        self, tmp_path
    ):
        """kill -9 a continuous-tuning campaign mid-epoch *after* its
        drift detection; the resumed run reproduces the uninterrupted
        history byte-identically, detections included."""
        ckpt_dir = tmp_path / "drift"
        script = tmp_path / "child.py"
        script.write_text(
            textwrap.dedent(
                """
                import sys, time
                from repro.core.continuous import ContinuousTuningLoop
                from repro.core.optimizer import BayesianOptimizer
                from repro.core.parameters import IntParameter, ParameterSpace
                from repro.store import open_store

                class DriftingParabola:
                    def __init__(self):
                        self.t = 0.0
                    def set_workload_time(self, t_s):
                        self.t = float(t_s)
                    def __call__(self, params):
                        time.sleep(0.1)  # slow enough to die mid-epoch
                        scale = 100.0 if self.t < 1000.0 else 40.0
                        x = float(params["x"]) / 100.0
                        y = float(params["y"]) / 100.0
                        return scale * (1.0 - (x - 0.5) ** 2 - (y - 0.5) ** 2)

                space = ParameterSpace(
                    [IntParameter("x", 0, 100), IntParameter("y", 0, 100)]
                )
                with open_store(sys.argv[1]) as store:
                    ContinuousTuningLoop(
                        DriftingParabola(),
                        lambda seed: BayesianOptimizer(
                            space, seed=seed, init_points=3
                        ),
                        epochs=4, epoch_duration_s=600.0, steps_per_epoch=4,
                        initial_steps=6, mode="continuous", seed=5,
                        store=store,
                    ).run()
                """
            )
        )

        def past_detection():
            if not (ckpt_dir / STORE_FILENAME).is_file():
                return False
            with open_store(ckpt_dir) as store:
                data = store.load_state("continuous", "", STATE_NAME)
                if data is None or not data.get("detections"):
                    return False
                completed = int(data.get("epochs_completed", 0))
                if completed >= 4:
                    return False
                partial = store.load_checkpoint(
                    "continuous", "", f"epoch-{completed:04d}"
                )
            return partial is not None and partial.completed >= 1

        proc = subprocess.Popen(
            [sys.executable, str(script), str(ckpt_dir)],
            cwd=_REPO_ROOT,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        )
        killed_mid_run = False
        try:
            deadline = time.time() + 120
            while time.time() < deadline:
                if past_detection():
                    killed_mid_run = True
                    break
                if proc.poll() is not None:
                    break
                time.sleep(0.05)
            proc.kill()  # SIGKILL: no atexit, no cleanup
        finally:
            proc.wait()
        assert killed_mid_run, "child died mid-epoch past its detection"

        reference = _drift_loop(_DriftingParabola(), None).run()
        with open_store(ckpt_dir) as store:
            resumed = _drift_loop(_DriftingParabola(), store).run()
        assert resumed.metadata["resumed_epochs"] >= 3
        assert resumed.detections == reference.detections
        assert canonical_history(resumed.observations) == canonical_history(
            reference.observations
        )


def _tiny_budget():
    return Budget(
        steps=3, steps_extended=3, baseline_steps=3, passes=1, repeat_best=2
    )


class TestStudyCheckpointing:
    def _spec(self, tmp_path):
        return SyntheticCellSpec(
            size="small",
            condition=CONDITIONS[0],
            strategy="pla",
            budget=_tiny_budget(),
            seed=0,
            checkpoint_dir=str(tmp_path),
        )

    def test_cell_writes_pass_and_done_files(self, tmp_path):
        results = run_cell(self._spec(tmp_path))
        assert (tmp_path / STORE_FILENAME).is_file()
        with open_store(tmp_path) as store:
            (cell,) = store.cells("synthetic")
            assert store.runs("synthetic", cell) == ["pass0"]
            assert store.has_results("synthetic", cell)
        assert results[0].observations

    def test_done_cell_is_not_rerun(self, tmp_path):
        first = run_cell(self._spec(tmp_path))
        again = run_cell(self._spec(tmp_path))
        assert histories_match(
            first[0].observations, again[0].observations
        )
        assert again[0].metadata["pass"] == 0

    def test_serial_study_opens_its_store_once_and_closes_it(
        self, tmp_path, monkeypatch
    ):
        opened: list[StudyStore] = []
        init = StudyStore.__init__

        def recording_init(self, path):
            opened.append(self)
            init(self, path)

        monkeypatch.setattr(StudyStore, "__init__", recording_init)
        study = SyntheticStudy(
            _tiny_budget(),
            conditions=[CONDITIONS[0]],
            sizes=["small"],
            strategies=["pla", "ipla"],
            checkpoint_dir=str(tmp_path),
        ).run()
        assert len(study.results) == 2
        (store,) = opened  # one handle for both cells
        with pytest.raises(sqlite3.ProgrammingError, match="closed"):
            store._conn.execute("SELECT 1")
        # Closing the last connection checkpointed and removed the WAL.
        assert (tmp_path / STORE_FILENAME).is_file()
        assert not (tmp_path / f"{STORE_FILENAME}-wal").exists()

    def test_study_plumbs_checkpoint_dir(self, tmp_path):
        study = SyntheticStudy(
            _tiny_budget(),
            conditions=[CONDITIONS[0]],
            sizes=["small"],
            strategies=["pla"],
            checkpoint_dir=str(tmp_path),
        )
        assert study.specs()[0].checkpoint_dir == str(tmp_path)
        study.run()
        with open_store(tmp_path) as store:
            (cell,) = store.cells("synthetic")
            assert store.has_results("synthetic", cell)


class TestStudyErrorAggregation:
    def test_bad_cell_raises_study_error_with_label(self):
        study = SyntheticStudy(
            _tiny_budget(),
            conditions=[CONDITIONS[0]],
            sizes=["small"],
            strategies=["pla", "nope"],
        )
        with pytest.raises(StudyError) as info:
            study.run()
        failures = dict(info.value.failures)
        assert list(failures) == [f"{CONDITIONS[0].label}/small/nope"]
        assert "unknown synthetic strategy" in failures[
            f"{CONDITIONS[0].label}/small/nope"
        ]
        # The good cell's results were still computed and stored? No —
        # run() raises before storing, but its compute wasn't wasted:
        # all cells were attempted (one failure listed, not two).
        assert len(info.value.failures) == 1

    def test_evaluation_failure_rows(self):
        """Rows name cells by campaign label, Sundog arms included."""
        from repro.core.history import TuningResult

        def all_failed() -> list[TuningResult]:
            return [
                TuningResult(
                    strategy="bo",
                    observations=[
                        Observation(
                            step=0, config={}, value=0.0, failed=True,
                            failure_reason="worker_crash: x",
                        )
                    ],
                    metadata={"pass": 0},
                )
            ]

        budget = Budget(steps=2, steps_extended=2, baseline_steps=2, passes=1)
        failed_cell = SyntheticCellSpec(
            strategy="bo", budget=budget, size="small", condition=CONDITIONS[0]
        )
        failed_arm = SundogArmSpec(strategy="bo", budget=budget, param_set="h bs bp")
        healthy_arm = SundogArmSpec(strategy="bo", budget=budget, param_set="h")

        class FakeStudy:
            results = {
                failed_cell.key: all_failed(),
                failed_arm.key: all_failed(),
                healthy_arm.key: [
                    TuningResult(
                        strategy="bo",
                        observations=[
                            Observation(step=0, config={}, value=5.0)
                        ],
                    )
                ],
            }

            def specs(self):
                return [failed_cell, failed_arm, healthy_arm]

        rows = evaluation_failure_rows(FakeStudy())
        assert [row["cell"] for row in rows] == [
            f"{CONDITIONS[0].label}/small/bo",
            "bo.h bs bp",
        ]
        assert all(row["last_reason"].startswith("worker_crash") for row in rows)


@pytest.mark.slow
class TestCliResume:
    def _tiny(self, monkeypatch):
        import repro.cli as cli
        from repro.experiments import presets

        tiny = presets.Budget(
            steps=3, steps_extended=4, baseline_steps=4, passes=1,
            repeat_best=2,
        )
        monkeypatch.setattr(presets, "default_budget", lambda: tiny)
        monkeypatch.setattr(cli, "default_budget", lambda: tiny)

    def test_resume_flag_checkpoints_and_reuses(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.cli import main

        self._tiny(monkeypatch)
        resume_dir = tmp_path / "ckpt"
        assert main(["fig5", "--resume", str(resume_dir)]) == 0
        first = capsys.readouterr().out
        assert "Figure 5" in first
        with open_store(resume_dir) as store:
            cells = store.cells("synthetic")
            assert cells
            assert all(store.has_results("synthetic", c) for c in cells)

        # Second invocation resumes from the stored results: same exhibit.
        assert main(["fig5", "--resume", str(resume_dir)]) == 0
        second = capsys.readouterr().out
        assert first.splitlines()[-5:] == second.splitlines()[-5:]
