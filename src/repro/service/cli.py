"""``repro-experiments campaign ...`` — crash-safe fleet campaigns.

Three subcommands drive :mod:`repro.service.queue` over a shared study
store (docs/ROBUSTNESS.md):

* ``campaign run STORE`` — publish a :class:`CampaignSpec` into the
  store and supervise a worker fleet until every cell is terminal;
* ``campaign workers STORE`` — attach N more workers to a published
  campaign from any process or machine that can reach the store
  (SIGTERM drains gracefully: finish the current cell, commit, exit);
* ``campaign status STORE`` — one status row per cell (lease state,
  owner, fencing token, attempts, observation counts).

Exit codes follow the ``store``/``obs perf-compare`` convention: 0 on
success (including a clean SIGTERM drain), 1 on ordinary failures
(quarantined cells, missing store, dirty worker exit), and 2 when the
store schema is newer than this build
(:class:`~repro.store.base.SchemaVersionError`).
"""

from __future__ import annotations

import argparse
import dataclasses
import threading

from repro import obs
from repro.store.base import SchemaVersionError, StoreError, StudyStore


def _load_fleet_spec(store: StudyStore, store_spec: str):
    """The campaign spec published in ``store`` (re-pointed at it)."""
    from repro.service.campaign import (
        CAMPAIGN_KINDS,
        CAMPAIGN_STATE_NAME,
        CampaignSpec,
    )

    for kind in CAMPAIGN_KINDS:
        doc = store.load_state(kind, "", CAMPAIGN_STATE_NAME)
        if doc and isinstance(doc.get("spec"), dict):
            spec = CampaignSpec.from_dict(doc["spec"])  # type: ignore[arg-type]
            # The publishing process may know the store under another
            # path; workers trust the one they were pointed at.
            return dataclasses.replace(spec, store=store_spec)
    raise StoreError(
        f"no campaign spec published in {store_spec!r}; "
        "start one with 'campaign run' first"
    )


def _smoke_overrides(study: str) -> dict[str, object]:
    """Tiny axes/budget: exercise the fleet wiring, not the science."""
    from repro.experiments.presets import Budget
    from repro.topology_gen.suite import CONDITIONS

    budget = Budget(
        steps=4, steps_extended=5, baseline_steps=6, passes=1, repeat_best=2
    )
    if study == "sundog":
        return {"budget": budget, "arms": (("pla", "h"), ("bo", "h"))}
    return {
        "budget": budget,
        "conditions": CONDITIONS[:1],
        "sizes": ("small",),
        "strategies": ("pla", "bo"),
    }


def _run(args: argparse.Namespace, sink: obs.ProgressSink) -> int:
    from repro.service.campaign import CampaignRunner, CampaignSpec, StudyError

    # The study's classmethod fills in the paper's axes.
    make_spec = (
        CampaignSpec.sundog if args.study == "sundog" else CampaignSpec.synthetic
    )
    spec = make_spec(
        seed=args.seed,
        workers=args.workers,
        store=args.store,
        mode=args.mode,
        lease_ttl_seconds=args.ttl,
        max_claim_attempts=args.max_claim_attempts,
        **(_smoke_overrides(args.study) if args.smoke else {}),
    )
    runner = CampaignRunner(spec)
    with obs.session(
        jsonl_path=args.trace,
        progress=sink,
        manifest={"command": "campaign run", "argv": [args.store]},
    ):
        sink.info(
            f"(campaign {spec.study}: {spec.n_cells} cell(s), "
            f"mode {spec.mode}, {runner.n_jobs} worker(s))"
        )
        try:
            results = runner.run()
        except StudyError as exc:
            for label, reason in exc.failures:
                sink.result(f"  FAILED {label}: {reason}")
            sink.result(f"campaign failed: {exc}")
            return 1
    sink.result(
        f"campaign {spec.study} complete: {len(results)} cell(s) committed"
    )
    return 0


def _workers(args: argparse.Namespace, sink: obs.ProgressSink) -> int:
    import multiprocessing

    from repro.service.campaign import _fleet_worker_main
    from repro.service.queue import QueuePolicy, default_owner, run_worker
    from repro.store import open_store

    with open_store(args.store) as store:
        spec = _load_fleet_spec(store, args.store)
    if args.ttl is not None:
        spec = dataclasses.replace(spec, lease_ttl_seconds=args.ttl)
    policy = QueuePolicy(
        ttl_seconds=spec.lease_ttl_seconds,
        max_claim_attempts=spec.max_claim_attempts,
    )
    owner = args.owner or default_owner()
    if args.n <= 1:
        with obs.session(
            jsonl_path=args.trace,
            progress=sink,
            manifest={"command": "campaign workers", "argv": [args.store]},
        ):
            report = run_worker(
                spec, owner, policy=policy,
                stop=threading.Event(), install_sigterm=True,
            )
        verdict = "drained" if report.drained else "done"
        sink.result(
            f"worker {owner} {verdict}: {len(report.committed)} committed, "
            f"{len(report.repaired)} repaired, "
            f"{len(report.released)} released, "
            f"{len(report.quarantined)} quarantined"
        )
        return 0 if report.clean or report.drained else 1
    procs = []
    for i in range(args.n):
        proc = multiprocessing.Process(
            target=_fleet_worker_main,
            args=(spec.as_dict(), f"{owner}-w{i}", policy.as_dict()),
            name=f"{owner}-w{i}",
        )
        proc.start()
        procs.append(proc)
    failed = 0
    for proc in procs:
        proc.join()
        if proc.exitcode:
            failed += 1
            sink.result(f"  worker {proc.name} exited {proc.exitcode}")
    sink.result(f"{args.n} worker(s) finished, {failed} failed")
    return 1 if failed else 0


def _status(args: argparse.Namespace, sink: obs.ProgressSink) -> int:
    from repro.service.campaign import CampaignRunner
    from repro.service.queue import CellQueue
    from repro.store import open_store

    with open_store(args.store) as store:
        spec = _load_fleet_spec(store, args.store)
        specs = CampaignRunner(spec).cell_specs()
        rows = CellQueue(store, spec.study, [s.cell for s in specs]).rows()
    sink.result(
        f"campaign {spec.study} in {args.store} "
        f"({len(rows)} cell(s), mode {spec.mode})"
    )
    terminal = 0
    for cell_spec, row in zip(specs, rows):
        status = str(row["status"])
        if status in ("committed", "quarantined"):
            terminal += 1
        detail = ""
        if row.get("owner"):
            detail = (
                f" owner={row['owner']} token={row['token']}"
                f" attempts={row['attempts']}"
            )
        if row.get("reason"):
            detail += f" reason={row['reason']}"
        sink.result(
            f"  {status:<11} {cell_spec.label}  obs={row['observations']}"
            f" results={'yes' if row['results'] else 'no'}{detail}"
        )
    sink.result(f"{terminal}/{len(rows)} cell(s) terminal")
    return 0


def campaign_main(argv: list[str]) -> int:
    """``repro-experiments campaign ...`` entry; returns exit code."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments campaign",
        description="Run crash-safe multi-worker campaigns over a "
        "shared study store (docs/ROBUSTNESS.md).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run", help="publish a campaign spec and supervise a worker fleet"
    )
    run.add_argument("store", help="shared store (directory or *.db file)")
    run.add_argument(
        "--study", choices=["synthetic", "sundog"], default="synthetic"
    )
    run.add_argument(
        "--mode", choices=["fleet", "pool"], default="fleet",
        help="fleet: crash-safe leased workers; pool: plain process pool",
    )
    run.add_argument("--workers", type=int, default=2)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument(
        "--ttl", type=float, default=30.0, metavar="SECONDS",
        help="lease heartbeat timeout (dead workers reclaimed after this)",
    )
    run.add_argument(
        "--max-claim-attempts", type=int, default=5,
        help="claims per cell before it is quarantined as poisoned",
    )
    run.add_argument(
        "--smoke", action="store_true",
        help="tiny axes and budget: exercise the fleet, not the science",
    )
    run.add_argument("--trace", default=None, metavar="RUN.jsonl")

    workers = sub.add_parser(
        "workers",
        help="attach N workers to the campaign published in the store",
    )
    workers.add_argument("store", help="shared store of a published campaign")
    workers.add_argument("-n", type=int, default=1, metavar="N")
    workers.add_argument(
        "--owner", default=None,
        help="worker id for leases (default: <host>-<pid>)",
    )
    workers.add_argument(
        "--ttl", type=float, default=None, metavar="SECONDS",
        help="override the published lease TTL",
    )
    workers.add_argument("--trace", default=None, metavar="RUN.jsonl")

    status = sub.add_parser(
        "status", help="one row per cell: lease state, owner, progress"
    )
    status.add_argument("store", help="shared store of a published campaign")

    args = parser.parse_args(argv)
    sink = obs.ProgressSink()
    try:
        if args.command == "run":
            return _run(args, sink)
        if args.command == "workers":
            return _workers(args, sink)
        if args.command == "status":
            return _status(args, sink)
    except SchemaVersionError as exc:
        sink.result(f"SCHEMA VERSION MISMATCH: {exc}")
        return 2
    except (StoreError, OSError) as exc:
        sink.result(f"error: {exc}")
        return 1
    return 1  # pragma: no cover - argparse enforces a command
