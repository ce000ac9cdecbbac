"""Kill-fuzzer acceptance bench for crash-safe fleet campaigns.

The claim under test (docs/ROBUSTNESS.md): a campaign executed by N
independent ``repro-experiments campaign workers`` processes — with
workers SIGKILLed at seed-deterministic store operations — finishes
with per-cell observation histories *byte-identical* to a serial,
unkilled run of the same spec.  Zero observations lost, zero
duplicated, every dead worker's lease reclaimed within one heartbeat
timeout.

Kill points are injected through the store's ``REPRO_STORE_KILL``
environment hook (``<op>:<n>`` — SIGKILL self on the n-th operation of
that kind) and cover the three distinct failure windows:

* ``checkpoint_write`` — mid-cell, between observations; the next
  claimant resumes from the per-observation checkpoint;
* ``lease_renew`` — mid-heartbeat, leaving an expired lease for the
  fleet to reclaim with a bumped fencing token;
* ``result_write`` — *between commit phases*: results persisted, lease
  never committed (a torn commit the next claimant repairs without
  re-running the cell).

Run as a script for the CI ``fleet-smoke`` job, or under pytest for
the full acceptance numbers:

    PYTHONPATH=src python benchmarks/bench_fleet.py --smoke
    PYTHONPATH=src python -m pytest benchmarks/bench_fleet.py -v
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.core.checkpoint import canonical_history
from repro.experiments.presets import Budget
from repro.service.campaign import (
    CAMPAIGN_STATE_NAME,
    CampaignRunner,
    CampaignSpec,
)
from repro.store import StudyStore, open_store
from repro.store.base import KILL_ENV, TERMINAL_LEASE_STATUSES
from repro.topology_gen.suite import CONDITIONS

# After repro: importing it first pins the BLAS pools to one thread.
import numpy as np

_REPO_ROOT = Path(__file__).resolve().parent.parent

#: Lease heartbeat timeout: the reclaim-latency budget the bench holds
#: the fleet to.  Generous enough that a busy surviving worker can
#: finish its current cell and still reclaim a dead worker's lease
#: inside one timeout.
TTL_SECONDS = 3.0

#: Overall wall-clock ceiling — a stuck fleet fails loudly, not by hang.
SUPERVISE_TIMEOUT = 420.0


def _spec(smoke: bool, store_spec: str, workers: int) -> CampaignSpec:
    if smoke:
        budget = Budget(
            steps=4, steps_extended=5, baseline_steps=6, passes=1,
            repeat_best=2,
        )
        conditions, strategies = CONDITIONS[:1], ("pla", "bo")
    else:
        budget = Budget(
            steps=6, steps_extended=8, baseline_steps=8, passes=2,
            repeat_best=2,
        )
        conditions, strategies = CONDITIONS[:2], ("pla", "bo", "ibo")
    return CampaignSpec(
        study="synthetic",
        budget=budget,
        seed=7,
        workers=workers,
        store=store_spec,
        mode="fleet",
        lease_ttl_seconds=TTL_SECONDS,
        max_claim_attempts=10,
        conditions=conditions,
        sizes=("small",),
        strategies=strategies,
    )


def _kill_plan(rng: np.random.Generator, smoke: bool) -> list[str | None]:
    """Per-initial-worker kill specs (``None`` = clean worker).

    Smoke: 2 workers, one killed.  Full: 4 workers, three killed at
    the three distinct failure windows (shuffled across worker slots);
    the last worker stays clean so reclaim never waits on a process
    respawn.
    """
    if smoke:
        op = ("checkpoint_write", "result_write")[int(rng.integers(2))]
        return [f"{op}:1", None]
    kills = [
        f"checkpoint_write:{int(rng.integers(1, 4))}",
        "lease_renew:1",
        "result_write:1",
    ]
    rng.shuffle(kills)
    return [*kills, None]


def _spawn_worker(
    store_spec: str | Path,
    owner: str,
    kill: str | None,
    log_dir: Path | None,
) -> subprocess.Popen:
    env = {
        "PYTHONPATH": "src",
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
    }
    if kill:
        env[KILL_ENV] = kill
    if log_dir is not None:
        out = (log_dir / f"{owner}.log").open("w")
    else:
        out = subprocess.DEVNULL
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "campaign", "workers",
            str(store_spec), "-n", "1", "--owner", owner,
        ],
        cwd=_REPO_ROOT,
        env=env,
        stdout=out,
        stderr=subprocess.STDOUT if log_dir is not None else subprocess.DEVNULL,
    )


def _await_victim_leases(
    watcher: StudyStore,
    study: str,
    cells: list[str],
    victims: list[tuple[str, subprocess.Popen]],
) -> None:
    """Block until every kill-planned worker holds a lease (or died).

    Clean workers start only after this: otherwise a clean worker can
    claim every cell before a victim claims one, the victim drains an
    empty queue, and its planned kill never fires.
    """
    deadline = time.time() + SUPERVISE_TIMEOUT
    while True:
        owners = set()
        for cell in cells:
            lease = watcher.read_lease(study, cell)
            if lease is not None:
                owners.add(lease.owner)
        if all(
            owner in owners or proc.poll() is not None
            for owner, proc in victims
        ):
            return
        assert time.time() < deadline, (
            "kill-planned workers never claimed a cell within "
            f"{SUPERVISE_TIMEOUT}s"
        )
        time.sleep(0.02)


def run_fleet_fuzz(
    *,
    smoke: bool = True,
    seed: int = 0,
    workdir: str | Path | None = None,
    artifacts: str | Path | None = None,
) -> dict[str, object]:
    """Fuzz the fleet; returns the bench report (asserts on the way)."""
    workers = 2 if smoke else 4
    rng = np.random.default_rng(seed)
    plan = _kill_plan(rng, smoke)
    log_dir = None
    if artifacts is not None:
        log_dir = Path(artifacts)
        log_dir.mkdir(parents=True, exist_ok=True)

    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        fleet_store = Path(tmp) / "fleet.db"
        serial_store = Path(tmp) / "serial.db"
        spec = _spec(smoke, str(fleet_store), workers)
        serial_spec = dataclasses.replace(
            spec, store=str(serial_store), mode="pool", workers=None, n_jobs=1
        )

        # Serial, unkilled reference — store-backed like the fleet so
        # both draw identical per-evaluation seeds.
        reference = CampaignRunner(serial_spec).run()

        runner = CampaignRunner(spec)
        specs = runner.cell_specs()
        cells = [s.cell for s in specs]
        with open_store(str(fleet_store)) as store:
            store.save_state(
                spec.study, "", CAMPAIGN_STATE_NAME,
                {"version": 1, "spec": spec.as_dict()},
            )

        # Kill-planned workers first; clean ones once each victim holds
        # a lease, so every planned kill has a cell to die in.
        owners = [f"fuzz-w{i}" for i in range(len(plan))]
        procs: list[tuple[str, subprocess.Popen]] = [
            (owner, _spawn_worker(fleet_store, owner, kill, log_dir))
            for owner, kill in zip(owners, plan)
            if kill
        ]
        spawned = len(plan)
        kills_observed = 0
        expired_seen: dict[tuple[str, int], float] = {}  # -> lease deadline
        reclaim_latency: dict[tuple[str, int], float] = {}

        watcher = open_store(str(fleet_store))
        try:
            _await_victim_leases(watcher, spec.study, cells, procs)
            procs.extend(
                (owner, _spawn_worker(fleet_store, owner, None, log_dir))
                for owner, kill in zip(owners, plan)
                if not kill
            )
            deadline_wall = time.time() + SUPERVISE_TIMEOUT
            while True:
                assert time.time() < deadline_wall, (
                    f"fleet did not finish within {SUPERVISE_TIMEOUT}s"
                )
                alive = []
                for owner, proc in procs:
                    if proc.poll() is None:
                        alive.append((owner, proc))
                    elif proc.returncode < 0:
                        kills_observed += 1
                procs = alive

                now = time.time()
                pending = False
                for cell in cells:
                    lease = watcher.read_lease(spec.study, cell)
                    if lease is None:
                        pending = True
                        continue
                    for (seen_cell, seen_token), dl in expired_seen.items():
                        if seen_cell != cell:
                            continue
                        if (seen_cell, seen_token) in reclaim_latency:
                            continue
                        if (
                            lease.token > seen_token
                            or lease.status in TERMINAL_LEASE_STATUSES
                        ):
                            reclaim_latency[(seen_cell, seen_token)] = now - dl
                    if lease.status in TERMINAL_LEASE_STATUSES:
                        continue
                    pending = True
                    if lease.status == "leased" and lease.expired(now):
                        expired_seen.setdefault(
                            (cell, lease.token), lease.deadline
                        )
                if not pending:
                    break
                # Keep the fleet at strength: respawn clean workers for
                # the ones the fuzzer killed.
                while len(procs) < workers:
                    owner = f"fuzz-w{spawned}"
                    spawned += 1
                    assert spawned <= 4 * workers + 8, "respawn runaway"
                    procs.append(
                        (owner, _spawn_worker(fleet_store, owner, None, log_dir))
                    )
                time.sleep(0.05)

            for _owner, proc in procs:
                proc.wait(timeout=60)

            statuses = {
                cell: watcher.read_lease(spec.study, cell).status
                for cell in cells
            }
            assert all(s == "committed" for s in statuses.values()), statuses
            unreclaimed = set(expired_seen) - set(reclaim_latency)
            assert not unreclaimed, (
                f"expired leases never reclaimed: {unreclaimed}"
            )
            identical = True
            for cell_spec in specs:
                fleet_passes = watcher.load_results(spec.study, cell_spec.cell)
                ref_passes = reference[cell_spec.label]
                assert fleet_passes is not None and len(fleet_passes) == len(
                    ref_passes
                ), cell_spec.label
                for a, b in zip(fleet_passes, ref_passes):
                    if canonical_history(a.observations) != canonical_history(
                        b.observations
                    ):
                        identical = False
        finally:
            for _owner, proc in procs:
                if proc.poll() is None:
                    proc.kill()
            watcher.close()

        if log_dir is not None:
            shutil.copy(fleet_store, log_dir / "fleet.db")

    expected_kills = 1 if smoke else 2
    assert kills_observed >= expected_kills, (
        f"only {kills_observed} worker(s) died; the fuzz needs at least "
        f"{expected_kills} (plan {plan})"
    )
    max_reclaim = max(reclaim_latency.values(), default=0.0)
    assert max_reclaim <= TTL_SECONDS, (
        f"reclaim took {max_reclaim:.2f}s, over the {TTL_SECONDS:g}s "
        "heartbeat timeout"
    )
    report = {
        "cells": len(cells),
        "kill_plan": [k for k in plan if k],
        "kills_observed": kills_observed,
        "workers_spawned": spawned,
        "expired_reclaims": len(reclaim_latency),
        "reclaim_seconds_max": max_reclaim,
        "histories_identical": identical,
    }
    print(
        f"fleet fuzz: {len(cells)} cell(s), "
        f"{kills_observed} SIGKILL(s) of {spawned} worker(s), "
        f"{len(reclaim_latency)} expired lease(s) reclaimed "
        f"(max {max_reclaim:.2f}s), histories identical: {identical}"
    )
    assert identical, "fleet history diverged from the serial unkilled run"
    if log_dir is not None:
        (log_dir / "fuzz.json").write_text(
            json.dumps(report, indent=2) + "\n", encoding="utf-8"
        )
    return report


# ----------------------------------------------------------------------
# pytest entry points (full acceptance numbers)
# ----------------------------------------------------------------------
def test_fleet_kill_fuzz_is_byte_identical() -> None:
    report = run_fleet_fuzz(smoke=False)
    assert report["histories_identical"]


# ----------------------------------------------------------------------
# Script entry point (CI fleet smoke)
# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--artifacts", metavar="DIR", default=None,
        help="keep worker logs, the fleet store, and fuzz reports here",
    )
    from _harness import add_harness_args, emit, make_metric

    add_harness_args(parser)
    args = parser.parse_args(argv)
    report = run_fleet_fuzz(
        smoke=args.smoke, seed=args.seed, artifacts=args.artifacts
    )
    emit(
        "bench_fleet",
        smoke=args.smoke,
        metrics={
            "histories_identical": make_metric(
                float(report["histories_identical"]), higher_is_better=True
            ),
            "kills_injected": make_metric(
                float(report["kills_observed"]), higher_is_better=True
            ),
            "reclaim_seconds_max": make_metric(
                float(report["reclaim_seconds_max"]),
                higher_is_better=False,
                unit="s",
            ),
        },
        meta=report,
        json_path=args.json,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
