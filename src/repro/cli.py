"""Command-line entry point: regenerate any table or figure.

Usage::

    repro-experiments table1|table2|table3|fig3|fig4|fig5|fig6|fig7|fig8|sensitivity|all
        [--full] [--seed N] [--workers N] [--batch-size Q]
        [--save DIR] [--load DIR] [--resume DIR|DB] [--trace RUN.jsonl]
        [--verbose|--quiet]

    repro-experiments obs summary RUN.jsonl
    repro-experiments obs tail RUN.jsonl [-n N] [--follow]
    repro-experiments obs report RUN.jsonl [-o report.html] [--title T]
    repro-experiments obs export RUN.jsonl [--format openmetrics] [-o F]
    repro-experiments obs perf-compare BASELINE.json CURRENT.json
        [--threshold 0.1] [--warn-only]

    repro-experiments drift [--profile diurnal|flash|skew|all] [--seed N]
        [--smoke] [--json PATH] [--resume DIR] [--trace RUN.jsonl]

    repro-experiments store ls DIR|DB
    repro-experiments store migrate SRC DST
    repro-experiments store vacuum DIR|DB

``store`` inspects and migrates study stores (docs/STORE.md): ``ls``
lists studies, cells, and observation counts; ``migrate`` copies every
document from one store into another (lossless, merging into an
existing database); ``vacuum`` compacts.  Exit code 2 signals a store
this build does not read (a newer schema version, or a retired JSONL
directory), matching ``obs perf-compare``.

``drift`` runs the continuous-tuning-under-drift comparison
(docs/DRIFT.md): for each profile the same seed tunes through a
drifting workload twice — conservative re-tune from the incumbent
vs. cold restart — and reports post-detection recovery time.

``--full`` runs the paper-scale budgets (60/180 steps, 2 passes, 30
re-runs); the default is a scaled-down budget suitable for a laptop.
``--workers N`` runs the study cells on N processes (a budget beyond
the cell count goes to concurrent evaluations inside each cell; see
EXPERIMENTS.md); without it every cell runs serially.
``--save DIR`` exports the underlying study runs as JSON;
``--load DIR`` re-renders figures from a previous export instead of
re-running.  ``--resume`` checkpoints every study cell into a study
store — a SQLite ``*.db`` file, or a directory holding ``store.db`` —
after each observation and, when re-invoked with the same target after
a crash, resumes from exactly where the campaign died
(docs/ROBUSTNESS.md, docs/STORE.md): the result is byte-identical to
an uninterrupted run with the same ``--resume`` target, not to a run
without one.  A store holds one campaign: re-invoking it with another
``--seed`` (or, for finished cells, another budget) fails those cells
(exit 1) and leaves the store unchanged.  ``--trace`` records the run
as a JSONL observability trace (docs/OBSERVABILITY.md) that the
``obs`` subcommands aggregate.

Exit status: 0 on success; 1 when any study cell raised or any tuning
run finished without a single successful evaluation (both cases print
a failure table first).

All reporting routes through :class:`repro.obs.ProgressSink`: exhibit
output always prints, informational lines respect ``--quiet``, and live
study progress (per-cell ETA) renders on stderr.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable

from repro import obs
from repro.experiments import figures
from repro.experiments.presets import default_budget, full_budget
from repro.experiments.report import render_figure, render_table
from repro.experiments.runner import SundogStudy, SyntheticStudy
from repro.obs.sinks import NORMAL, QUIET, VERBOSE
from repro.service.campaign import StudyError, evaluation_failure_rows


def _synthetic_study(args: argparse.Namespace) -> SyntheticStudy:
    if args.load:
        from repro.experiments.export import load_study

        study = load_study(f"{args.load}/synthetic.json")
        assert isinstance(study, SyntheticStudy)
        return study
    budget = full_budget() if args.full else default_budget()
    study = SyntheticStudy(
        budget,
        seed=args.seed,
        workers=args.workers,
        batch_size=args.batch_size,
        checkpoint_dir=args.resume,
    ).run()
    if args.save:
        from pathlib import Path

        from repro.experiments.export import save_study

        Path(args.save).mkdir(parents=True, exist_ok=True)
        save_study(study, f"{args.save}/synthetic.json")
    return study


def _sundog_study(args: argparse.Namespace) -> SundogStudy:
    if args.load:
        from repro.experiments.export import load_study

        study = load_study(f"{args.load}/sundog.json")
        assert isinstance(study, SundogStudy)
        return study
    budget = full_budget() if args.full else default_budget()
    study = SundogStudy(
        budget,
        seed=args.seed,
        workers=args.workers,
        batch_size=args.batch_size,
        checkpoint_dir=args.resume,
    ).run()
    if args.save:
        from pathlib import Path

        from repro.experiments.export import save_study

        Path(args.save).mkdir(parents=True, exist_ok=True)
        save_study(study, f"{args.save}/sundog.json")
    return study


def _sensitivity_report() -> str:
    """Parameter sweeps around Sundog's manual configuration."""
    from repro.experiments.report import render_table
    from repro.storm.sensitivity import SensitivityAnalyzer, default_sweep_values
    from repro.sundog import sundog_default_config, sundog_topology
    from repro.experiments.presets import default_cluster

    cluster = default_cluster()
    topology = sundog_topology()
    base = sundog_default_config().replace(
        parallelism_hints={n: 11 for n in topology}
    )
    analyzer = SensitivityAnalyzer(topology, cluster, base)
    ranked = analyzer.tornado(default_sweep_values(cluster))
    rows = [
        {"Parameter": name, "throughput dynamic range": round(spread, 2)}
        for name, spread in ranked
    ]
    interaction = analyzer.interaction(
        "batch_size", 265_312, "batch_parallelism", 16
    )
    lines = [
        "== Sensitivity: one-at-a-time sweeps around Sundog's manual config ==",
        render_table(rows),
        f"batch_size x batch_parallelism interaction factor: "
        f"{interaction:.2f} (1.0 would mean the two parameters compose "
        f"independently — they do not, which is the paper's argument "
        f"for black-box joint optimization, §III-B)",
    ]
    return "\n".join(lines)


# ----------------------------------------------------------------------
# obs subcommands
# ----------------------------------------------------------------------
def obs_main(argv: list[str]) -> int:
    """``repro-experiments obs ...`` — read back / compare run traces."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments obs",
        description="Aggregate, tail, report, export, or perf-compare "
        "JSONL observability traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    summary = sub.add_parser(
        "summary", help="where-time-goes aggregate of a run trace"
    )
    summary.add_argument("trace", help="JSONL trace file written by --trace")
    tail = sub.add_parser("tail", help="render the last trace events")
    tail.add_argument("trace", help="JSONL trace file written by --trace")
    tail.add_argument("-n", type=int, default=20, help="events to show")
    tail.add_argument(
        "--follow", action="store_true", help="poll for appended events"
    )
    tail.add_argument(
        "--interval", type=float, default=0.5, help="--follow poll seconds"
    )
    report = sub.add_parser(
        "report",
        help="render a self-contained HTML run report "
        "(convergence, calibration, phase times, timelines)",
    )
    report.add_argument("trace", help="JSONL trace file written by --trace")
    report.add_argument(
        "-o", "--output", default="report.html", help="HTML file to write"
    )
    report.add_argument(
        "--title", default=None, help="report title (default: trace name)"
    )
    export = sub.add_parser(
        "export",
        help="export the trace's latest metrics snapshot for scraping",
    )
    export.add_argument("trace", help="JSONL trace file written by --trace")
    export.add_argument(
        "--format",
        choices=["openmetrics"],
        default="openmetrics",
        help="exposition format (Prometheus textfile collector)",
    )
    export.add_argument(
        "-o",
        "--output",
        default=None,
        help="file to write (default: stdout); write *.prom into a "
        "node-exporter textfile directory to scrape a live run",
    )
    perf = sub.add_parser(
        "perf-compare",
        help="compare two bench-result JSONs; exit 1 on regression",
    )
    perf.add_argument("baseline", help="committed baseline JSON")
    perf.add_argument("current", help="freshly produced bench JSON")
    perf.add_argument(
        "--threshold",
        type=float,
        default=0.10,
        help="relative regression tolerance per metric (default 0.10)",
    )
    perf.add_argument(
        "--warn-only",
        action="store_true",
        help="report perf regressions but exit 0 (smoke-run variance); "
        "schema drift still fails",
    )
    args = parser.parse_args(argv)
    sink = obs.ProgressSink()

    if args.command == "summary":
        events = obs.read_jsonl(args.trace)
        sink.result(render_figure(figures.trace_summary(events)))
        return 0

    if args.command == "report":
        from repro.experiments.htmlreport import write_report

        events = obs.read_jsonl(args.trace)
        title = args.title or f"Tuning run report: {args.trace}"
        path = write_report(events, args.output, title=title)
        sink.info(f"(wrote {path})")
        return 0

    if args.command == "export":
        from repro.obs.openmetrics import latest_snapshot, render_openmetrics

        # Live traces may carry a torn tail mid-append: tolerate it.
        events = obs.read_jsonl(args.trace, strict=False)
        snap = latest_snapshot(events)
        if snap is None:
            sink.result("error: trace has no metrics snapshot yet")
            return 1
        text = render_openmetrics(snap)
        if args.output:
            from repro.core.checkpoint import atomic_write_text

            # Atomic *and durable* for textfile scrapers: fsync the
            # file and its directory so a crash right after the rename
            # cannot leave a truncated or missing export behind.
            atomic_write_text(args.output, text)
            sink.info(f"(wrote {args.output})")
        else:
            sink.result(text.rstrip("\n"))
        return 0

    if args.command == "perf-compare":
        from repro.obs.perf import SchemaDriftError, compare, load_result

        try:
            report_obj = compare(
                load_result(args.baseline),
                load_result(args.current),
                threshold=args.threshold,
            )
        except SchemaDriftError as exc:
            sink.result(f"SCHEMA DRIFT: {exc}")
            return 2
        sink.result(report_obj.render())
        if not report_obj.ok and args.warn_only:
            sink.result("(--warn-only: regressions reported, not failing)")
            return 0
        return 0 if report_obj.ok else 1

    # tail — strict=False throughout: a live producer can leave a torn
    # line at (or after a crash, in the middle of) the file; a follower
    # must skip and retry on the next poll rather than die mid-run.
    events = obs.read_jsonl(args.trace, strict=False)
    for record in events[-max(0, args.n) :]:
        sink.result(obs.format_event_line(record))
    if args.follow:
        seen = len(events)
        try:
            while True:
                time.sleep(args.interval)
                events = obs.read_jsonl(args.trace, strict=False)
                for record in events[seen:]:
                    sink.result(obs.format_event_line(record))
                seen = len(events)
        except KeyboardInterrupt:
            pass
    return 0


# ----------------------------------------------------------------------
# Main entry point
# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "obs":
        return obs_main(list(argv[1:]))
    if argv and argv[0] == "drift":
        from repro.experiments.drift import drift_main

        return drift_main(list(argv[1:]))
    if argv and argv[0] == "store":
        from repro.store.cli import store_main

        return store_main(list(argv[1:]))
    if argv and argv[0] == "campaign":
        from repro.service.cli import campaign_main

        return campaign_main(list(argv[1:]))
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "exhibit",
        choices=[
            "table1",
            "table2",
            "table3",
            "fig3",
            "fig4",
            "fig5",
            "fig6",
            "fig7",
            "fig8",
            "sensitivity",
            "claims",
            "all",
        ],
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="paper-scale budgets (60/180 steps, 2 passes, 30 re-runs)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="total worker budget, split between cell processes and "
        "in-loop concurrent evaluations (see EXPERIMENTS.md)",
    )
    parser.add_argument(
        "--batch-size",
        type=int,
        default=None,
        help="in-flight proposals per tuning loop (default: the loop's "
        "worker share of --workers)",
    )
    parser.add_argument(
        "--save", default=None, help="directory to export study runs to"
    )
    parser.add_argument(
        "--load", default=None, help="directory to re-render study runs from"
    )
    parser.add_argument(
        "--resume",
        default=None,
        metavar="DIR|DB",
        help="checkpoint study cells after every observation into a "
        "*.db SQLite store (or DIR/store.db), and resume "
        "any partial runs already there (crash-safe campaigns; see "
        "docs/ROBUSTNESS.md and docs/STORE.md)",
    )
    parser.add_argument(
        "--csv", default=None, help="directory to write exhibit CSVs to"
    )
    parser.add_argument(
        "--svg", default=None, help="directory to write exhibit SVG charts to"
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="RUN.jsonl",
        help="record an observability trace of the run (JSONL)",
    )
    verbosity_group = parser.add_mutually_exclusive_group()
    verbosity_group.add_argument(
        "-v",
        "--verbose",
        action="store_true",
        help="extra progress detail (per-cell start events)",
    )
    verbosity_group.add_argument(
        "-q",
        "--quiet",
        action="store_true",
        help="exhibit output only, no progress or info lines",
    )
    args = parser.parse_args(argv)

    verbosity = QUIET if args.quiet else (VERBOSE if args.verbose else NORMAL)
    progress = obs.ProgressSink(verbosity)

    def emit(data: "figures.FigureData") -> None:
        progress.result(render_figure(data))
        if args.csv:
            from repro.experiments.report import write_csv

            for path in write_csv(data, args.csv):
                progress.info(f"(wrote {path})")
        if args.svg:
            from repro.experiments.svg import save_figure_svg

            for path in save_figure_svg(data, args.svg):
                progress.info(f"(wrote {path})")

    static: dict[str, Callable[[], figures.FigureData]] = {
        "table1": figures.table1_parameters,
        "table2": figures.table2_topologies,
        "table3": figures.table3_literature,
        "fig3": figures.figure3_network_load,
    }

    exhibits = (
        [
            "table1",
            "table2",
            "table3",
            "fig3",
            "fig4",
            "fig5",
            "fig6",
            "fig7",
            "fig8",
            "sensitivity",
            "claims",
        ]
        if args.exhibit == "all"
        else [args.exhibit]
    )

    manifest = {
        "argv": list(argv),
        "exhibit": args.exhibit,
        "seed": args.seed,
        "workers": args.workers,
        "batch_size": args.batch_size,
        "budget": "full" if args.full else "default",
        "resume": args.resume,
    }
    exit_code = 0
    with obs.session(
        jsonl_path=args.trace, progress=progress, manifest=manifest
    ):
        synthetic: SyntheticStudy | None = None
        sundog: SundogStudy | None = None
        try:
            for exhibit in exhibits:
                if exhibit == "sensitivity":
                    progress.result(_sensitivity_report())
                elif exhibit == "claims":
                    from repro.experiments.claims import (
                        evaluate_claims,
                        render_claims,
                    )

                    if synthetic is None:
                        synthetic = _synthetic_study(args)
                    if sundog is None:
                        sundog = _sundog_study(args)
                    progress.result(
                        render_claims(evaluate_claims(synthetic, sundog))
                    )
                elif exhibit in static:
                    emit(static[exhibit]())
                elif exhibit in ("fig4", "fig5", "fig6", "fig7"):
                    if synthetic is None:
                        synthetic = _synthetic_study(args)
                    builder = {
                        "fig4": figures.figure4_throughput,
                        "fig5": figures.figure5_convergence,
                        "fig6": figures.figure6_loess_traces,
                        "fig7": figures.figure7_step_time,
                    }[exhibit]
                    emit(builder(synthetic))
                elif exhibit == "fig8":
                    if sundog is None:
                        sundog = _sundog_study(args)
                    emit(figures.figure8a_sundog_throughput(sundog))
                    emit(figures.figure8b_sundog_convergence(sundog))
                    progress.result(
                        f"speedup of tuned configuration over pla hints-only: "
                        f"{figures.speedup_over_pla(sundog):.2f}x (paper: 2.8x)"
                    )
                progress.result()
        except StudyError as err:
            rows = [
                {"cell": label, "error": detail}
                for label, detail in err.failures
            ]
            progress.result(f"== {err.study} study: failed cells ==")
            progress.result(render_table(rows))
            if args.resume:
                progress.result(
                    f"(re-run with --resume {args.resume} to pick up "
                    f"from the last checkpoint)"
                )
            exit_code = 1
        else:
            failed_runs = []
            for study in (synthetic, sundog):
                if study is not None:
                    failed_runs.extend(evaluation_failure_rows(study))
            if failed_runs:
                progress.result(
                    "== runs with no successful evaluation =="
                )
                progress.result(render_table(failed_runs))
                exit_code = 1
    if args.trace:
        progress.info(f"(wrote trace {args.trace})")
    return exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
