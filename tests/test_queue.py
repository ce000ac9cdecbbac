"""Lease primitives, the cell queue, and the crash-safe worker loop.

The lease contract: one winner per claim, monotonic fencing tokens,
wall-clock expiry, fenced result writes that a stale owner cannot use
to clobber a newer owner's cell.  On top of
it, :class:`~repro.service.queue.CellQueue` ordering/reclaim behavior
and :func:`~repro.service.queue.run_worker` end-to-end: commit,
torn-commit repair, poisoned-cell quarantine, bounded retries of
transient failures, SIGTERM-style drain, and multi-worker splits.
"""

from __future__ import annotations

import dataclasses
import threading
import time

import pytest

from repro.core.history import Observation, TuningResult
from repro.experiments.presets import Budget
from repro.experiments.runner import (
    SundogArmSpec,
    SyntheticCellSpec,
    run_cell,
)
from repro.service.campaign import CampaignSpec
from repro.service.queue import CellQueue, QueuePolicy, WorkerReport, run_worker
from repro.store import Lease, StaleLeaseError, StudyStore, open_store
from repro.topology_gen.suite import CONDITIONS

STUDY = "synthetic"


# One param: it only keeps the suite's ``[sqlite]`` test ids stable.
@pytest.fixture(params=["sqlite"])
def store(tmp_path):
    with StudyStore(tmp_path / "store.db") as backend:
        yield backend


def _results(value=1.0):
    result = TuningResult(strategy="t")
    result.observations.append(
        Observation(step=0, config={"x": 1}, value=value)
    )
    return [result]


class TestLeaseContract:
    """The store must satisfy every test in this class."""

    def test_acquire_returns_a_fresh_lease(self, store):
        lease = store.acquire_lease(STUDY, "a", "w1", 30.0)
        assert lease is not None
        assert (lease.owner, lease.status) == ("w1", "leased")
        assert lease.token == 1
        assert lease.attempts == 1
        assert not lease.expired()

    def test_held_lease_is_not_reclaimable(self, store):
        assert store.acquire_lease(STUDY, "a", "w1", 30.0) is not None
        assert store.acquire_lease(STUDY, "a", "w2", 30.0) is None

    def test_expired_lease_reclaims_with_a_bumped_token(self, store):
        first = store.acquire_lease(STUDY, "a", "w1", 1.0, now=1000.0)
        second = store.acquire_lease(STUDY, "a", "w2", 30.0, now=1002.0)
        assert second is not None
        assert second.owner == "w2"
        assert second.token == first.token + 1
        assert second.attempts == 2

    def test_stale_owner_cannot_renew_or_commit(self, store):
        first = store.acquire_lease(STUDY, "a", "w1", 1.0, now=1000.0)
        store.acquire_lease(STUDY, "a", "w2", 30.0, now=1002.0)
        with pytest.raises(StaleLeaseError):
            store.renew_lease(first, 30.0)
        with pytest.raises(StaleLeaseError):
            store.commit_lease(first)

    def test_renew_extends_the_deadline(self, store):
        lease = store.acquire_lease(STUDY, "a", "w1", 5.0, now=1000.0)
        renewed = store.renew_lease(lease, 5.0, now=1003.0)
        assert renewed.deadline == pytest.approx(1008.0)
        assert renewed.token == lease.token

    def test_committed_cell_is_terminal(self, store):
        lease = store.acquire_lease(STUDY, "a", "w1", 30.0)
        committed = store.commit_lease(lease)
        assert committed.status == "committed"
        assert store.acquire_lease(STUDY, "a", "w2", 30.0) is None

    def test_quarantined_cell_is_terminal_and_keeps_the_reason(self, store):
        lease = store.acquire_lease(STUDY, "a", "w1", 30.0)
        store.quarantine_lease(lease, "boom")
        current = store.read_lease(STUDY, "a")
        assert (current.status, current.reason) == ("quarantined", "boom")
        assert store.acquire_lease(STUDY, "a", "w2", 30.0) is None

    def test_released_cell_is_reclaimable_and_carries_the_reason(self, store):
        lease = store.acquire_lease(STUDY, "a", "w1", 30.0)
        store.release_lease(lease, reason="flaky")
        again = store.acquire_lease(STUDY, "a", "w2", 30.0)
        assert again is not None
        assert again.token == lease.token + 1
        assert again.reason == "flaky"

    def test_fenced_save_accepts_the_current_owner(self, store):
        lease = store.acquire_lease(STUDY, "a", "w1", 30.0)
        store.save_results_fenced(
            STUDY, "a", _results(), owner="w1", token=lease.token
        )
        loaded = store.load_results(STUDY, "a")
        assert loaded is not None and loaded[0].observations[0].value == 1.0

    def test_fenced_save_from_a_stale_owner_preserves_results(self, store):
        first = store.acquire_lease(STUDY, "a", "w1", 1.0, now=1000.0)
        store.acquire_lease(STUDY, "a", "w2", 30.0, now=1002.0)
        store.save_results_fenced(
            STUDY, "a", _results(2.0), owner="w2", token=first.token + 1
        )
        with pytest.raises(StaleLeaseError):
            store.save_results_fenced(
                STUDY, "a", _results(99.0), owner="w1", token=first.token
            )
        loaded = store.load_results(STUDY, "a")
        assert loaded[0].observations[0].value == 2.0

    def test_leases_do_not_pollute_cell_enumeration(self, store):
        store.save_results(STUDY, "real", _results())
        store.acquire_lease(STUDY, "real", "w1", 30.0)
        store.acquire_lease(STUDY, "leased-only", "w1", 30.0)
        assert store.cells(STUDY) == ["real"]

    def test_leases_enumerates_by_cell(self, store):
        store.acquire_lease(STUDY, "b", "w1", 30.0)
        store.acquire_lease(STUDY, "a", "w2", 30.0)
        leases = store.leases(STUDY)
        assert [lease.cell for lease in leases] == ["a", "b"]
        assert {lease.owner for lease in leases} == {"w1", "w2"}

    def test_read_lease_missing_is_none(self, store):
        assert store.read_lease(STUDY, "nope") is None

    def test_lease_round_trips_through_dict(self, store):
        lease = store.acquire_lease(STUDY, "a", "w1", 30.0)
        assert Lease.from_dict(lease.as_dict()) == lease


class TestQueuePolicy:
    def test_defaults_derive_from_ttl(self):
        policy = QueuePolicy(ttl_seconds=30.0)
        assert policy.heartbeat_interval() == pytest.approx(10.0)
        assert policy.poll_interval() == pytest.approx(1.0)

    def test_round_trips_through_dict(self):
        policy = QueuePolicy(ttl_seconds=4.0, max_claim_attempts=9)
        assert QueuePolicy.from_dict(policy.as_dict()) == policy

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"ttl_seconds": 0.0},
            {"heartbeat_seconds": 40.0},
            {"poll_seconds": -1.0},
            {"max_claim_attempts": 0},
        ],
    )
    def test_invalid_policies_raise(self, kwargs):
        with pytest.raises(ValueError):
            QueuePolicy(**kwargs)


class TestCellQueue:
    def test_claims_in_label_order_and_skips_held_cells(self, store):
        queue = CellQueue(store, STUDY, ["a", "b", "c"])
        first = queue.claim_next("w1")
        second = queue.claim_next("w2")
        assert (first.cell, second.cell) == ("a", "b")

    def test_terminal_cells_never_come_back(self, store):
        queue = CellQueue(store, STUDY, ["a", "b"])
        lease = queue.claim_next("w1")
        store.commit_lease(lease)
        assert queue.claim_next("w1").cell == "b"
        assert queue.pending_labels() == ["b"]

    def test_expired_lease_is_reclaimed(self, store):
        queue = CellQueue(
            store, STUDY, ["a"], QueuePolicy(ttl_seconds=30.0)
        )
        store.acquire_lease(STUDY, "a", "dead", 1e-9)
        reclaimed = queue.claim_next("w2")
        assert reclaimed is not None
        assert reclaimed.owner == "w2"
        assert reclaimed.token == 2

    def test_rows_report_per_cell_status(self, store):
        queue = CellQueue(store, STUDY, ["a", "b", "c"])
        store.commit_lease(store.acquire_lease(STUDY, "a", "w1", 30.0))
        store.acquire_lease(STUDY, "b", "w2", 30.0)
        rows = {row["cell"]: row for row in queue.rows()}
        assert rows["a"]["status"] == "committed"
        assert rows["b"]["status"] == "leased"
        assert rows["b"]["owner"] == "w2"
        assert rows["c"]["status"] == "free"


# ----------------------------------------------------------------------
# run_worker (driven through the cells= / cell_fn= override)
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class _CellSpec:
    label: str
    lease: tuple[str, int] | None = None

    @property
    def cell(self) -> str:
        return self.label


def _worker_spec(store_spec, **kwargs) -> CampaignSpec:
    kwargs.setdefault("lease_ttl_seconds", 30.0)
    return CampaignSpec(
        study=STUDY,
        store=str(store_spec),
        mode="fleet",
        conditions=(),
        sizes=(),
        strategies=(),
        **kwargs,
    )


def _make_cell_fn(calls, failures=None):
    """A cell function that saves one fenced result per invocation
    through the worker's store handle."""

    def cell_fn(cell, store):
        calls.append(cell.label)
        exc = (failures or {}).get(cell.label)
        if exc is not None:
            raise exc
        owner, token = cell.lease
        store.save_results_fenced(
            STUDY, cell.label, _results(), owner=owner, token=token
        )

    return cell_fn


def _cells(labels, calls, failures=None):
    """``run_worker`` keyword overrides: the cells and their cell function."""
    return {
        "cells": [_CellSpec(label) for label in labels],
        "cell_fn": _make_cell_fn(calls, failures),
    }


class TestRunWorker:
    def test_commits_every_cell(self, tmp_path):
        db = tmp_path / "q.db"
        calls: list[str] = []
        report = run_worker(
            _worker_spec(db), "w1", **_cells(["a", "b"], calls)
        )
        assert sorted(report.committed) == ["a", "b"]
        assert report.clean and not report.drained
        assert sorted(calls) == ["a", "b"]
        with open_store(str(db)) as store:
            for label in ("a", "b"):
                assert store.read_lease(STUDY, label).status == "committed"
                assert store.has_results(STUDY, label)

    def test_torn_commit_is_repaired_without_rerunning(self, tmp_path):
        db = tmp_path / "q.db"
        with open_store(str(db)) as store:
            # A dead worker's torn commit: results written under its
            # lease, the lease itself expired before committing.
            dead = store.acquire_lease(STUDY, "a", "dead", 1e-9)
            store.save_results_fenced(
                STUDY, "a", _results(7.0), owner="dead", token=dead.token
            )
        calls: list[str] = []
        report = run_worker(
            _worker_spec(db), "w2", **_cells(["a"], calls)
        )
        assert report.repaired == ["a"]
        assert calls == []  # never re-run
        with open_store(str(db)) as store:
            assert store.read_lease(STUDY, "a").status == "committed"
            assert store.load_results(STUDY, "a")[0].observations[0].value == 7.0

    def test_persistent_failure_quarantines_with_the_reason(self, tmp_path):
        db = tmp_path / "q.db"
        calls: list[str] = []
        report = run_worker(
            _worker_spec(db), "w1",
            **_cells(
                ["a", "b"], calls,
                failures={"a": ValueError("bad geometry")},
            ),
        )
        assert report.committed == ["b"]
        assert len(report.quarantined) == 1
        label, reason = report.quarantined[0]
        assert label == "a" and "bad geometry" in reason
        assert calls.count("a") == 1  # no retry for persistent failures
        with open_store(str(db)) as store:
            lease = store.read_lease(STUDY, "a")
            assert lease.status == "quarantined"
            assert "ValueError" in lease.reason

    def test_transient_failures_retry_until_the_claim_bound(self, tmp_path):
        db = tmp_path / "q.db"
        calls: list[str] = []
        spec = _worker_spec(db, max_claim_attempts=3)
        report = run_worker(
            spec, "w1",
            **_cells(
                ["a"], calls,
                failures={"a": RuntimeError("worker_crash: injected")},
            ),
        )
        # max_claim_attempts runs, then the next claim quarantines.
        assert calls.count("a") == 3
        assert len(report.released) == 3
        assert len(report.quarantined) == 1
        _label, reason = report.quarantined[0]
        assert "poisoned cell" in reason and "worker_crash" in reason

    def test_drain_stops_between_cells(self, tmp_path):
        db = tmp_path / "q.db"
        stop = threading.Event()
        calls: list[str] = []
        specs = [_CellSpec(label) for label in ["a", "b"]]
        inner = _make_cell_fn(calls)

        def draining_cell_fn(cell, store):
            inner(cell, store)
            stop.set()  # SIGTERM arrives while "a" is running

        report = run_worker(
            _worker_spec(db), "w1", stop=stop,
            cells=specs, cell_fn=draining_cell_fn,
        )
        assert report.committed == ["a"]
        assert report.drained
        with open_store(str(db)) as store:
            assert store.read_lease(STUDY, "a").status == "committed"
            assert store.read_lease(STUDY, "b") is None

    @pytest.mark.parametrize("store_name", ["q.db", "store-dir"])
    def test_heartbeat_keeps_a_slow_cell_leased_past_the_ttl(
        self, tmp_path, store_name
    ):
        # Regression: renewals must run on the heartbeat thread's *own*
        # store handle.  A SQLite connection shared from the worker's
        # thread raises on every renewal (sqlite3 binds connections to
        # their creating thread), the errors are swallowed, and a live
        # worker's lease silently expires — a concurrent claimant then
        # reclaims the cell mid-run and the worker's commit is dropped
        # as stale.
        store_spec = tmp_path / store_name
        ttl = 0.5
        spec = _worker_spec(store_spec, lease_ttl_seconds=ttl)
        calls: list[str] = []
        inner = _make_cell_fn(calls)
        started = threading.Event()

        def slow_cell_fn(cell, store):
            started.set()
            time.sleep(2.5 * ttl)  # only heartbeats keep the lease alive
            inner(cell, store)

        specs = [_CellSpec("a")]
        result: dict[str, WorkerReport] = {}

        def drive():
            result["report"] = run_worker(
                spec, "w1", cells=specs, cell_fn=slow_cell_fn
            )

        worker = threading.Thread(target=drive)
        worker.start()
        assert started.wait(10.0)
        # A rival polling for the cell must never see the lease expire.
        reclaimed = None
        with open_store(str(store_spec)) as rival_store:
            rival = CellQueue(
                rival_store, STUDY, ["a"], QueuePolicy(ttl_seconds=ttl)
            )
            while worker.is_alive():
                reclaimed = rival.claim_next("w2")
                if reclaimed is not None:
                    break
                time.sleep(0.05)
        worker.join()
        assert reclaimed is None
        report = result["report"]
        assert report.committed == ["a"]
        assert not report.stale_drops
        with open_store(str(store_spec)) as store:
            lease = store.read_lease(STUDY, "a")
            assert (lease.status, lease.owner) == ("committed", "w1")
            assert lease.attempts == 1  # never reclaimed

    def test_cells_write_through_the_worker_handle(
        self, tmp_path, monkeypatch
    ):
        """A worker opens one store and runs every checkpoint and
        result write of its cells through it."""
        db = tmp_path / "q.db"
        opened: list[StudyStore] = []
        writers: list[StudyStore] = []
        init = StudyStore.__init__

        def recording_init(self, path):
            # The heartbeat thread's own handle is not the worker's.
            if not threading.current_thread().name.startswith("lease-"):
                opened.append(self)
            init(self, path)

        monkeypatch.setattr(StudyStore, "__init__", recording_init)
        for name in ("save_checkpoint", "save_results_fenced"):

            def recording(self, *args, _write=getattr(StudyStore, name), **kw):
                writers.append(self)
                return _write(self, *args, **kw)

            monkeypatch.setattr(StudyStore, name, recording)
        budget = Budget(
            steps=3, steps_extended=3, baseline_steps=3, passes=1,
            repeat_best=2,
        )
        cells = [
            SyntheticCellSpec(
                size="small", condition=CONDITIONS[0], strategy=strategy,
                budget=budget, checkpoint_dir=str(db),
            )
            for strategy in ("pla", "ipla")
        ]
        handed: list[StudyStore] = []

        def cell_fn(cell, store):
            handed.append(store)
            return run_cell(cell, store)

        report = run_worker(
            _worker_spec(db), "w1", cells=cells, cell_fn=cell_fn
        )
        assert sorted(report.committed) == sorted(c.cell for c in cells)
        (worker_store,) = opened
        assert handed == [worker_store, worker_store]
        # Per-step checkpoints of both cells plus their two fenced
        # result writes, all on the worker's handle.
        assert len(writers) > 2
        assert all(writer is worker_store for writer in writers)

    def test_two_workers_split_the_cells(self, tmp_path):
        db = tmp_path / "q.db"
        labels = [f"cell{i}" for i in range(6)]
        calls: list[str] = []
        spec = _worker_spec(db)
        reports: dict[str, WorkerReport] = {}
        errors: list[BaseException] = []

        def drive(owner):
            try:
                reports[owner] = run_worker(
                    spec, owner, **_cells(labels, calls)
                )
            except Exception as exc:  # noqa: BLE001 - asserted below
                errors.append(exc)

        threads = [
            threading.Thread(target=drive, args=(f"w{i}",)) for i in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []  # both workers opened the fresh store
        committed = sorted(
            label for r in reports.values() for label in r.committed
        )
        assert committed == sorted(labels)  # each cell exactly once
        assert sorted(calls) == sorted(labels)
        with open_store(str(db)) as store:
            assert all(
                store.read_lease(STUDY, label).status == "committed"
                for label in labels
            )


class TestStoreCellLabel:
    def test_synthetic_is_identity(self):
        spec = SyntheticCellSpec(
            size="small", condition=CONDITIONS[2], strategy="bo",
            budget=Budget(),
        )
        assert spec.cell == spec.label == f"{CONDITIONS[2].label}/small/bo"

    def test_sundog_carries_the_store_prefix(self):
        spec = SundogArmSpec(strategy="bo", param_set="h", budget=Budget())
        assert spec.cell == "sundog_bo.h"
