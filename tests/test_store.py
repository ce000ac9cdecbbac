"""Study-store contract, the SQLite schema, migration, and the store CLI.

The contract suite pins what the store persists and enumerates,
byte-identically under :func:`repro.core.checkpoint.canonical_history`.
The SQLite classes pin the schema machinery (migration runner,
future-version refusal, torn-row diagnostics, busy retries), and
:class:`TestOpenStore` the two path spellings plus the refusal of
directories left by the retired JSONL backend.
"""

from __future__ import annotations

import sqlite3

import pytest

from repro.cli import main as cli_main
from repro.core.checkpoint import (
    TuningCheckpoint,
    canonical_history,
    histories_match,
)
from repro.core.history import Observation, TuningResult
from repro.core.loop import TuningLoop
from repro.core.optimizer import BayesianOptimizer
from repro.core.parameters import IntParameter, ParameterSpace
from repro.store import (
    STORE_FILENAME,
    SchemaVersionError,
    SqliteStudyStore,
    migrate_store,
    open_store,
)
from repro.store.sqlite import MIGRATIONS, SCHEMA_VERSION


def _objective(params):
    return float((int(params["x"]) * 7) % 13)


def _space():
    return ParameterSpace([IntParameter("x", 1, 32)])


def _observations(n=3):
    return [
        Observation(step=i, config={"x": i + 1}, value=float(i * 10))
        for i in range(n)
    ]


def _checkpoint(n=3, state=None):
    return TuningCheckpoint(
        strategy="bo",
        seed=7,
        max_steps=10,
        observations=_observations(n),
        optimizer_state=state,
    )


def _results():
    result = TuningResult(strategy="bo")
    result.observations.extend(_observations(2))
    result.metadata["pass"] = 0
    return [result]


# One param: it only keeps the suite's ``[sqlite]`` test ids stable.
@pytest.fixture(params=["sqlite"])
def store(tmp_path):
    with SqliteStudyStore(tmp_path / "store.db") as backend:
        yield backend


class TestStoreContract:
    """The store must satisfy every test in this class."""

    def test_checkpoint_round_trip(self, store):
        ckpt = _checkpoint(state={"kind": "test", "n": 3})
        store.save_checkpoint("synthetic", "a/b", "pass0", ckpt)
        loaded = store.load_checkpoint("synthetic", "a/b", "pass0")
        assert loaded is not None
        assert loaded.strategy == "bo"
        assert loaded.seed == 7
        assert loaded.max_steps == 10
        assert loaded.optimizer_state == {"kind": "test", "n": 3}
        assert canonical_history(loaded.observations) == canonical_history(
            ckpt.observations
        )

    def test_derived_seed_beyond_64_bits_round_trips(self, store):
        # derive_seed routinely exceeds SQLite's signed INTEGER range;
        # the store must round-trip it losslessly.
        from repro.core.seeding import derive_seed

        big = derive_seed(123456789, "cell", "bo")
        assert big > 2**63
        ckpt = _checkpoint(1)
        ckpt.seed = big
        store.save_checkpoint("s", "c", "r", ckpt)
        assert store.load_checkpoint("s", "c", "r").seed == big

    def test_missing_documents_are_none(self, store):
        assert store.load_checkpoint("s", "c", "pass0") is None
        assert store.load_results("s", "c") is None
        assert store.load_state("s", "c", "sidecar") is None
        assert not store.has_results("s", "c")

    def test_checkpoint_rewrite_replaces_whole_state(self, store):
        store.save_checkpoint("s", "c", "r", _checkpoint(5))
        store.save_checkpoint("s", "c", "r", _checkpoint(2))
        loaded = store.load_checkpoint("s", "c", "r")
        assert loaded.completed == 2

    def test_results_round_trip(self, store):
        results = _results()
        store.save_results("synthetic", "a/b", results)
        assert store.has_results("synthetic", "a/b")
        loaded = store.load_results("synthetic", "a/b")
        assert loaded is not None
        assert len(loaded) == 1
        assert loaded[0].strategy == "bo"
        assert loaded[0].metadata["pass"] == 0
        assert histories_match(
            loaded[0].observations, results[0].observations
        )

    def test_state_round_trip(self, store):
        data = {"version": 1, "mode": "continuous", "epochs_completed": 2}
        store.save_state("drift", "diurnal/cold", "continuous", data)
        assert store.load_state("drift", "diurnal/cold", "continuous") == data

    def test_empty_cell_label_is_a_valid_address(self, store):
        store.save_checkpoint("continuous", "", "epoch-0000", _checkpoint())
        store.save_state("continuous", "", "continuous", {"version": 1})
        assert store.load_checkpoint("continuous", "", "epoch-0000") is not None
        assert store.runs("continuous", "") == ["epoch-0000"]
        assert store.state_names("continuous", "") == ["continuous"]

    def test_enumeration(self, store):
        store.save_checkpoint("synthetic", "a", "pass0", _checkpoint(2))
        store.save_checkpoint("synthetic", "a", "pass1", _checkpoint(3))
        store.save_checkpoint("synthetic", "b", "pass0", _checkpoint(1))
        store.save_results("synthetic", "b", _results())
        store.save_state("sundog", "arm", "notes", {"k": 1})
        assert store.studies() == ["sundog", "synthetic"]
        assert store.cells("synthetic") == ["a", "b"]
        assert store.runs("synthetic", "a") == ["pass0", "pass1"]
        assert store.state_names("sundog", "arm") == ["notes"]
        assert store.observation_count("synthetic", "a") == 5
        assert store.has_results("synthetic", "b")
        assert not store.has_results("synthetic", "a")

    def test_checkpoint_slot_is_loop_compatible(self, store, tmp_path):
        slot = store.checkpoint_slot("synthetic", "cell", "pass0")
        assert "synthetic" in slot.describe()
        result = TuningLoop(
            _objective,
            BayesianOptimizer(_space(), seed=3),
            max_steps=4,
            seed=11,
            checkpoint=slot,
        ).run()
        loaded = slot.load()
        assert loaded.completed == 4
        assert histories_match(loaded.observations, result.observations)

    def test_schema_version_reports_current(self, store):
        assert store.schema_version() >= 1

    def test_vacuum_is_safe_on_live_store(self, store):
        store.save_checkpoint("s", "c", "r", _checkpoint())
        store.vacuum()
        assert store.load_checkpoint("s", "c", "r") is not None


class TestLabelCollisions:
    """Labels that differ only in punctuation are distinct cells."""

    def test_colliding_labels_do_not_clobber(self, store):
        store.save_checkpoint("s", "a/b", "pass0", _checkpoint(2))
        store.save_checkpoint("s", "a b", "pass0", _checkpoint(5))
        assert store.load_checkpoint("s", "a/b", "pass0").completed == 2
        assert store.load_checkpoint("s", "a b", "pass0").completed == 5


class TestSqliteBackend:
    def test_schema_version_is_current_after_open(self, tmp_path):
        with SqliteStudyStore(tmp_path / "s.db") as store:
            assert store.schema_version() == SCHEMA_VERSION

    def test_future_schema_version_is_refused(self, tmp_path):
        path = tmp_path / "future.db"
        conn = sqlite3.connect(path)
        with conn:
            conn.execute(
                "CREATE TABLE schema_version (version INTEGER NOT NULL)"
            )
            conn.execute(
                "INSERT INTO schema_version (version) VALUES (?)",
                (SCHEMA_VERSION + 1,),
            )
        conn.close()
        with pytest.raises(SchemaVersionError, match="refusing"):
            SqliteStudyStore(path)

    def test_migration_runner_upgrades_old_databases(self, tmp_path):
        # Build a database as a v1-era build would have left it, then
        # reopen: the runner must apply exactly the missing migrations.
        path = tmp_path / "old.db"
        conn = sqlite3.connect(path)
        with conn:
            conn.execute(
                "CREATE TABLE schema_version (version INTEGER NOT NULL)"
            )
            for statement in MIGRATIONS[1]:
                conn.execute(statement)
            conn.execute("INSERT INTO schema_version (version) VALUES (1)")
        conn.close()
        with SqliteStudyStore(path) as store:
            assert store.schema_version() == SCHEMA_VERSION
            store.save_checkpoint("s", "c", "r", _checkpoint())
            assert store.load_checkpoint("s", "c", "r").completed == 3

    def test_malformed_row_warning_names_the_rowid(self, tmp_path):
        path = tmp_path / "s.db"
        store = SqliteStudyStore(path)
        store.save_checkpoint("s", "c", "r", _checkpoint(3))
        conn = sqlite3.connect(path)
        row = conn.execute(
            "SELECT rowid FROM observations WHERE step = 2"
        ).fetchone()
        with conn:
            conn.execute(
                "UPDATE observations SET payload = '{torn' WHERE rowid = ?",
                (row[0],),
            )
        conn.close()
        with pytest.warns(RuntimeWarning) as caught:
            loaded = store.load_checkpoint("s", "c", "r")
        message = str(caught[0].message)
        assert str(path) in message
        assert f"rowid {row[0]}" in message
        # The trusted prefix before the torn row survives.
        assert loaded.completed == 2
        store.close()

    def test_two_connections_share_one_database(self, tmp_path):
        path = tmp_path / "shared.db"
        writer = SqliteStudyStore(path)
        reader = SqliteStudyStore(path)
        writer.save_checkpoint("s", "c", "r", _checkpoint(4))
        assert reader.load_checkpoint("s", "c", "r").completed == 4
        writer.close()
        reader.close()


class TestSqliteBusyRetry:
    """SQLITE_BUSY surfaces as bounded retry-with-jitter, never a raw
    OperationalError (the multi-worker fleet hammers one .db)."""

    def _store(self, tmp_path):
        store = SqliteStudyStore(tmp_path / "busy.db")
        store._jitter.seed(0)
        return store

    def test_busy_errors_retry_with_backoff_until_success(self, tmp_path):
        store = self._store(tmp_path)
        sleeps = []
        store._sleep = sleeps.append
        attempts = {"n": 0}

        def flaky():
            attempts["n"] += 1
            if attempts["n"] <= 3:
                raise sqlite3.OperationalError("database is locked")
            return "done"

        assert store._retry(flaky) == "done"
        assert attempts["n"] == 4
        assert len(sleeps) == 3
        # Exponential backoff: each (jittered) delay at least doubles
        # the base of the previous one.
        assert sleeps[0] < sleeps[1] < sleeps[2]
        store.close()

    def test_busy_exhaustion_raises_store_error(self, tmp_path):
        from repro.store import StoreError
        from repro.store.sqlite import _BUSY_RETRIES

        store = self._store(tmp_path)
        store._sleep = lambda _s: None
        calls = {"n": 0}

        def always_locked():
            calls["n"] += 1
            raise sqlite3.OperationalError("database is locked")

        with pytest.raises(StoreError, match="stayed locked"):
            store._retry(always_locked)
        assert calls["n"] == _BUSY_RETRIES
        store.close()

    def test_non_busy_operational_errors_propagate_immediately(
        self, tmp_path
    ):
        store = self._store(tmp_path)
        sleeps = []
        store._sleep = sleeps.append

        def broken():
            raise sqlite3.OperationalError("no such table: nope")

        with pytest.raises(sqlite3.OperationalError, match="no such table"):
            store._retry(broken)
        assert sleeps == []  # not a contention error: no retry
        store.close()

    def test_two_threads_hammering_one_database(self, tmp_path):
        """Regression: concurrent writers on one .db must all land."""
        import threading

        path = tmp_path / "hammer.db"
        SqliteStudyStore(path).close()  # migrate once up front
        errors = []
        rounds = 25

        def hammer(worker):
            store = SqliteStudyStore(path)
            try:
                for i in range(rounds):
                    cell = f"w{worker}-c{i}"
                    store.save_checkpoint("s", cell, "r", _checkpoint(2))
                    lease = store.acquire_lease("s", cell, f"w{worker}", 30.0)
                    store.save_results("s", cell, _results())
                    store.commit_lease(lease)
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)
            finally:
                store.close()

        threads = [
            threading.Thread(target=hammer, args=(w,)) for w in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        with SqliteStudyStore(path) as store:
            cells = store.cells("s")
            assert len(cells) == 2 * rounds
            assert all(store.has_results("s", cell) for cell in cells)
            assert all(
                lease.status == "committed" for lease in store.leases("s")
            )


class TestOpenStore:
    def test_routing_by_suffix(self, tmp_path):
        for name in ("x.db", "x.sqlite3"):
            with open_store(tmp_path / name) as store:
                assert isinstance(store, SqliteStudyStore)
                assert store.path == tmp_path / name
        with open_store(tmp_path / "ckpts") as store:
            assert isinstance(store, SqliteStudyStore)
            assert store.path == tmp_path / "ckpts" / STORE_FILENAME

    def test_store_passes_through(self, tmp_path):
        with SqliteStudyStore(tmp_path / "s.db") as store:
            assert open_store(store) is store

    def test_directory_spec_creates_store_db_and_resumes(
        self, tmp_path, monkeypatch
    ):
        """``DIR`` opens ``DIR/store.db``; a second study over the same
        directory is served from it without a single evaluation."""
        from repro.core.executor import SerialExecutor
        from repro.experiments.presets import Budget
        from repro.experiments.runner import SyntheticStudy
        from repro.topology_gen.suite import CONDITIONS

        ckpt = tmp_path / "ckpts"
        open_store(ckpt).close()
        assert (ckpt / STORE_FILENAME).is_file()

        evaluations = []
        wait_one = SerialExecutor.wait_one

        def counting(self, *args, **kwargs):
            evaluations.append(1)
            return wait_one(self, *args, **kwargs)

        monkeypatch.setattr(SerialExecutor, "wait_one", counting)

        def study():
            return SyntheticStudy(
                Budget(
                    steps=3, steps_extended=3, baseline_steps=3, passes=1,
                    repeat_best=2,
                ),
                conditions=[CONDITIONS[0]],
                sizes=["small"],
                strategies=["pla"],
                checkpoint_dir=str(ckpt),
            ).run()

        first = study()
        assert evaluations
        evaluations.clear()
        again = study()
        assert evaluations == []
        assert first.results.keys() == again.results.keys()
        for key, passes in first.results.items():
            assert histories_match(
                passes[0].observations, again.results[key][0].observations
            )

    @pytest.mark.parametrize(
        "leftover", ["store-index.json", "c-1a2b3c4d.pass0.jsonl", "c.done.json"]
    )
    def test_legacy_jsonl_directory_is_refused(self, tmp_path, leftover):
        legacy = tmp_path / "old"
        legacy.mkdir()
        (legacy / leftover).write_text("{}")
        with pytest.raises(SchemaVersionError) as info:
            open_store(legacy)
        assert str(legacy) in str(info.value)
        assert "no longer readable" in str(info.value)
        # Refused, not silently restarted on an empty database.
        assert not (legacy / STORE_FILENAME).exists()

    def test_directory_with_a_database_ignores_stray_jsonl(self, tmp_path):
        root = tmp_path / "ckpts"
        open_store(root).close()
        (root / "trace.jsonl").write_text("{}")
        with open_store(root) as store:
            assert store.path == root / STORE_FILENAME


class TestMigration:
    def test_round_trip_is_byte_identical_for_a_seeded_bo_run(self, tmp_path):
        """Migrating a store twice (file → file → directory spelling)
        preserves a seeded 30-step BO run's history byte-for-byte."""
        source = SqliteStudyStore(tmp_path / "src.db")
        slot = source.checkpoint_slot("synthetic", "cell/a", "pass0")
        result = TuningLoop(
            _objective,
            BayesianOptimizer(_space(), seed=3),
            max_steps=30,
            seed=11,
            checkpoint=slot,
        ).run()
        source.save_results("synthetic", "cell/a", [result])
        source.save_state("synthetic", "cell/a", "notes", {"k": 1})

        db = SqliteStudyStore(tmp_path / "mid.db")
        report = migrate_store(source, db)
        assert report.checkpoints == 1
        assert report.observations == 30
        assert report.results == 1
        assert report.states == 1

        back = open_store(tmp_path / "dst")
        migrate_store(db, back)
        db.close()
        source.close()
        loaded = back.load_checkpoint("synthetic", "cell/a", "pass0")
        assert canonical_history(loaded.observations) == canonical_history(
            result.observations
        )
        assert back.load_state("synthetic", "cell/a", "notes") == {"k": 1}
        migrated_results = back.load_results("synthetic", "cell/a")
        assert histories_match(
            migrated_results[0].observations, result.observations
        )
        back.close()

    def test_resume_through_sqlite_matches_uninterrupted(self, tmp_path):
        """Kill-free variant of the resume criterion: a run cut at 15
        steps and resumed from the SQLite store must reproduce the
        uninterrupted 30-step history byte-identically."""

        def run(max_steps, slot):
            return TuningLoop(
                _objective,
                BayesianOptimizer(_space(), seed=3),
                max_steps=max_steps,
                seed=11,
                checkpoint=slot,
            ).run()

        full_store = SqliteStudyStore(tmp_path / "full.db")
        full = run(30, full_store.checkpoint_slot("s", "c", "r"))
        cut_store = SqliteStudyStore(tmp_path / "cut.db")
        run(15, cut_store.checkpoint_slot("s", "c", "r"))
        resumed = run(30, cut_store.checkpoint_slot("s", "c", "r"))
        assert resumed.metadata["resumed_steps"] == 15
        assert canonical_history(resumed.observations) == canonical_history(
            full.observations
        )
        full_store.close()
        cut_store.close()


class TestStoreCli:
    def _seed_store(self, spec):
        with open_store(spec) as store:
            store.save_checkpoint("synthetic", "a/b", "pass0", _checkpoint(3))
            store.save_results("synthetic", "a/b", _results())

    def test_ls_lists_studies_and_counts(self, tmp_path, capsys):
        self._seed_store(tmp_path / "dir")
        assert cli_main(["store", "ls", str(tmp_path / "dir")]) == 0
        out = capsys.readouterr().out
        assert "'synthetic'" in out
        assert "3 observation(s)" in out
        assert "done" in out

    def test_migrate_reports_counts(self, tmp_path, capsys):
        self._seed_store(tmp_path / "dir")
        dst = tmp_path / "out.db"
        code = cli_main(["store", "migrate", str(tmp_path / "dir"), str(dst)])
        assert code == 0
        out = capsys.readouterr().out
        assert "1 checkpoints" in out
        assert "3 observations" in out
        with open_store(dst) as store:
            assert store.load_checkpoint("synthetic", "a/b", "pass0") is not None

    def test_vacuum_exits_zero(self, tmp_path, capsys):
        self._seed_store(tmp_path / "s.db")
        assert cli_main(["store", "vacuum", str(tmp_path / "s.db")]) == 0
        assert "vacuumed" in capsys.readouterr().out

    def test_schema_mismatch_exits_two(self, tmp_path, capsys):
        path = tmp_path / "future.db"
        conn = sqlite3.connect(path)
        with conn:
            conn.execute(
                "CREATE TABLE schema_version (version INTEGER NOT NULL)"
            )
            conn.execute(
                "INSERT INTO schema_version (version) VALUES (?)",
                (SCHEMA_VERSION + 1,),
            )
        conn.close()
        assert cli_main(["store", "ls", str(path)]) == 2
        assert "SCHEMA VERSION MISMATCH" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["ls", "vacuum", "migrate"])
    def test_legacy_jsonl_directory_exits_two(self, tmp_path, capsys, command):
        root = tmp_path / "dir"
        root.mkdir()
        (root / "store-index.json").write_text("{}")
        (root / "run.jsonl").write_text("")
        argv = ["store", command, str(root)]
        if command == "migrate":
            argv.append(str(tmp_path / "out.db"))
        assert cli_main(argv) == 2
        out = capsys.readouterr().out
        assert str(root) in out
        assert "no longer readable" in out
        assert not (root / STORE_FILENAME).exists()
