#!/usr/bin/env python3
"""End-to-end, layer-attributed benchmark of the paper's tuning campaigns.

Run from the root of a repository checkout::

    python3 perfbench/run.py --workload synth-small --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: it runs
``rounds`` campaigns (as many as fit ``--seconds``), each once and on
its own seed derived from ``--seed``, and reports per-campaign times as
the median over the campaigns, so one campaign caught in a slow phase
of a shared host does not move the result.  ``--trace 1`` runs the first
campaign once untraced and once with every layer's public functions
wrapped in spans (see ``layers.py``), and reports the per-layer
metrics, the tracing overhead and a dominant-layer verdict.  Metric
names, units and directions are those declared in ``BENCHMARK.json``.

Either way the run checks the program's outputs.  Unless the run
cannot finish (it raises, e.g. when a wrapped public function no longer
exists), the last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: ``attempted`` counts the
campaign executions and ``failed`` those whose outputs failed a check,
in which case ``correct`` is false and the exit code is 1.  The same
metrics are also written in the ``repro.obs.perf`` schema-v1 shape
under ``perfbench/out/results/`` so two runs can be diffed with
``repro-experiments obs perf-compare``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Set-up probes per ``--trace 0`` run; ``setup_s`` is their median.
SETUP_PROBES = 5


def declared_metrics(spec: dict, section: str) -> dict[str, tuple[str, bool]]:
    """``spec[section]``'s metrics: name -> (unit, higher_is_better)."""
    return {m["name"]: (m["unit"], m["better"] == "higher") for m in spec[section]}


def round_seed(seed: int, k: int) -> int:
    """Seed of the ``k``-th campaign of a run (distinct per (seed, k))."""
    return seed * 64 + k


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten samples beyond it."""
    return math.floor(100 * (n - 10) / n) if n > 10 else 0


def percentile(sorted_values: list[float], p: int) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail(sorted_values: list[float]) -> tuple[float, int, int]:
    """``(value, percentile, samples beyond)`` of the decision tail."""
    n = len(sorted_values)
    if n <= 10:
        raise RuntimeError(f"only {n} decisions; the tail needs more")
    p = tail_percentile(n)
    return percentile(sorted_values, p), p, n - math.ceil(p / 100 * n)


def source_digest() -> str:
    """Hash of the program and benchmark sources (keys stored digests)."""
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *HERE.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(seed: int) -> dict[str, object]:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads_env": {
            var: os.environ.get(var, "unset")
            for var in (
                "OPENBLAS_NUM_THREADS",
                "OMP_NUM_THREADS",
                "MKL_NUM_THREADS",
            )
        },
        "seed": seed,
    }


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def history_digests(passes) -> dict[str, str]:
    """Per-pass hash of the canonical history plus the re-run values."""
    from repro.core.checkpoint import canonical_history

    return {
        p.label: hashlib.sha256(
            canonical_history(p.result.observations)
            + json.dumps(p.result.best_rerun_values).encode()
        ).hexdigest()
        for p in passes
    }


def assess(passes) -> tuple[list[float], list[str]]:
    """``best_vs_uniform`` per pass, and scalar/batch engine mismatches.

    Each pass's best configuration is re-evaluated noise-free by the
    scalar :class:`AnalyticPerformanceModel` and divided by the best
    uniform-hint deployment of the same topology (the sweep behind the
    paper's Figure 3); the batch engine must return an equal
    ``MeasuredRun``.
    """
    from repro.experiments.figures import _representative_run
    from repro.experiments.presets import default_cluster
    from repro.storm.analytic import AnalyticPerformanceModel
    from repro.storm.analytic_batch import AnalyticBatchModel

    cluster = default_cluster()
    engines: dict[int, tuple] = {}
    ratios, problems = [], []
    for p in passes:
        key = id(p.topology)
        if key not in engines:
            engines[key] = (
                AnalyticPerformanceModel(p.topology, cluster),
                AnalyticBatchModel(p.topology, cluster),
                _representative_run(p.topology, p.base_config).throughput_tps,
            )
        scalar_model, batch_model, uniform = engines[key]
        config = p.codec.decode(p.result.best_config)
        scalar = scalar_model.evaluate_noise_free(config)
        batch = batch_model.evaluate([config]).run(0)
        if scalar != batch:
            problems.append(f"{p.label}: scalar and batch engines disagree on the best config")
        ratios.append(scalar.throughput_tps / uniform)
    return ratios, problems


def compare_stored(workload: str, seed: int, digests: dict[str, str]) -> list[str]:
    """Histories must repeat across processes (and traced vs untraced).

    The first run of a (sources, workload, seed) stores its digests;
    later runs of the same sources compare against them.
    """
    path = OUT / "digests" / f"{source_digest()}-{workload}-{seed}.json"
    if path.exists():
        stored = json.loads(path.read_text())
        return [
            f"{label}: history differs from an earlier run with seed {seed}"
            for label in sorted(set(stored) | set(digests))
            if stored.get(label) != digests.get(label)
        ]
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(digests, sort_keys=True))
    os.replace(tmp, path)
    return []


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------
def measure_setup(workload: str, seed: int) -> list[float]:
    """Wall seconds from interpreter launch to a constructed study."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT,
            check=True,
            stdout=subprocess.DEVNULL,
            timeout=60,
        )
        times.append(time.perf_counter() - t0)
    return times


def setup_probe(workload: str, seed: int) -> int:
    from workloads import WORKLOADS

    campaign = WORKLOADS[workload].campaign(round_seed(seed, 0), OUT / "probe")
    campaign.close()
    return 0


class Execution:
    """One execution of a workload's campaign, and what it produced.

    Keeps summaries only, not the campaign's results, so later
    executions in the process do not run against a growing heap.
    """

    def __init__(self, workload, seed: int, probe, *, tracer=None, assess_outputs=True) -> None:
        from layers import ROOT_SPAN

        campaign = workload.campaign(seed, OUT / "work")
        first_decision = len(probe.decisions)
        gc.collect()
        try:
            try:
                root = tracer.open_root(ROOT_SPAN) if tracer else None
                t0 = time.perf_counter()
                campaign.run(lambda: probe.evaluations)
                t1 = time.perf_counter()
                if tracer:
                    tracer.close_root(root)
            finally:
                if tracer:
                    tracer.restore()
            passes = campaign.passes()
            self.problems = campaign.check()
            self.store_bytes = campaign.store_bytes()
        finally:
            campaign.close()
        self.seed = seed
        self.seconds = t1 - t0
        self.decisions = probe.decisions[first_decision:]
        self.n_passes = len(passes)
        self.steps = sum(p.result.n_steps for p in passes)
        self.digests = history_digests(passes)
        self.ratios: list[float] = []
        if assess_outputs:
            self.ratios, problems = assess(passes)
            self.problems += problems
            self.problems += compare_stored(workload.name, seed, self.digests)


def run_untraced(workload, seed: int, seconds: int):
    from layers import DecisionProbe

    setup = measure_setup(workload.name, seed)
    probe = DecisionProbe()
    probe.install()
    try:
        runs = [
            Execution(workload, round_seed(seed, k), probe)
            for k in range(workload.rounds(seconds))
        ]
    finally:
        probe.restore()
    model_only = workload.campaign.model_driven_only
    counted = [
        sorted(s for s, model_driven in run.decisions if model_driven or not model_only)
        for run in runs
    ]
    tails = [tail(decisions) for decisions in counted]
    ratios = [r for run in runs for r in run.ratios]
    values = {
        "campaign_s": statistics.median(run.seconds for run in runs),
        "setup_s": statistics.median(setup),
        "decide_p50_ms": statistics.median(s for d in counted for s in d) * 1e3,
        "decide_tail_ms": statistics.median(value for value, _, _ in tails) * 1e3,
        "best_vs_uniform": statistics.fmean(ratios),
        "eval_ok_share": 1.0 - probe.failed_evaluations / probe.evaluations,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    meta = {
        "rounds": len(runs),
        "round_seeds": [run.seed for run in runs],
        "campaign_s_each": [run.seconds for run in runs],
        "setup_s_each": setup,
        "steps": sum(run.steps for run in runs),
        "passes": sum(run.n_passes for run in runs),
        "evaluations": probe.evaluations,
        "failed_evaluations": probe.failed_evaluations,
        "failed_eval_share": probe.failed_evaluations / probe.evaluations,
        "decisions_per_campaign": sorted({len(d) for d in counted}),
        "decisions_counted": "model-driven" if model_only else "every step",
        "decide_tail_percentile": sorted({p for _, p, _ in tails}),
        "decide_tail_samples_beyond": sorted({k for _, _, k in tails}),
    }
    return values, meta, runs


def run_traced(workload, seed: int):
    import layers
    from spans import Recorder

    probe = layers.DecisionProbe()
    probe.install()
    try:
        untraced = Execution(workload, round_seed(seed, 0), probe)
        tracer = Recorder(spans=True)
        layers.install(tracer)
        traced = Execution(
            workload, round_seed(seed, 0), probe, tracer=tracer, assess_outputs=False
        )
    finally:
        probe.restore()
    if traced.digests != untraced.digests:
        traced.problems.append("traced and untraced campaigns produced different histories")
    table = tracer.table()
    values = layers.metrics(
        table,
        tracer.counters,
        traced_s=traced.seconds,
        untraced_s=untraced.seconds,
        store_bytes=traced.store_bytes,
    )
    traced.problems += layers.liveness(workload.name, values)
    if values["trace.coverage"] < 0.9:
        traced.problems.append(
            f"layers' own work covers only {values['trace.coverage']:.1%} of campaign_s"
        )
    lines = layers.verdict(table, traced.seconds)
    tracer.save(OUT / "spans" / f"{workload.name}-seed{seed}.npz")
    meta = {
        "campaign_s_untraced": untraced.seconds,
        "campaign_s_traced": traced.seconds,
        "verdict": lines,
        "round_seed": traced.seed,
        "evaluations": probe.evaluations,
    }
    return values, meta, [untraced, traced], lines


def write_schema_result(workload: str, trace: int, seed: int, metrics, meta) -> Path:
    from repro.obs.perf import make_metric, make_result

    result = make_result(
        f"perfbench-{workload}" + ("-layers" if trace else ""),
        mode="full",
        metrics={
            name: make_metric(value, higher_is_better=better, unit=unit)
            for name, (value, unit, better) in metrics.items()
        },
        meta=meta,
    )
    path = OUT / "results" / f"{workload}-trace{trace}-seed{seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        raise RuntimeError("BENCHMARK.json and workloads.py name different workloads")
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)
    workload = WORKLOADS[args.workload]
    env = environment(args.seed)

    if args.trace:
        values, meta, runs, lines = run_traced(workload, args.seed)
        units = declared_metrics(spec, "per_layer")
        print(f"[{workload.name}] traced run, seed {args.seed}")
        for line in lines:
            print(line)
        print(f"layers' own work (trace.coverage): {values['trace.coverage']:.1%}")
        print(f"tracing overhead: {values['trace.overhead_s']:+.3f} s "
              f"({meta['campaign_s_traced']:.3f} s traced vs "
              f"{meta['campaign_s_untraced']:.3f} s untraced)")
    else:
        values, meta, runs = run_untraced(workload, args.seed, args.seconds)
        units = declared_metrics(spec, "end_to_end")
        print(f"[{workload.name}] seed {args.seed}: {meta['rounds']} campaign(s), "
              f"{meta['passes']} passes, {meta['steps']} steps; "
              f"{meta['evaluations']} evaluations; "
              f"{'/'.join(map(str, meta['decisions_per_campaign']))} decisions per campaign "
              f"({meta['decisions_counted']}); decide_tail_ms is the median over campaigns of "
              f"p{'/'.join(map(str, meta['decide_tail_percentile']))} with "
              f"{'/'.join(map(str, meta['decide_tail_samples_beyond']))} samples beyond")
    if set(values) != set(units):
        raise RuntimeError(
            f"measured metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}"
        )
    print("environment: " + json.dumps(env, sort_keys=True))
    for name, value in values.items():
        print(f"  {name:<32} {value:14.6g} {units[name][0]}")
    problems = [p for run in runs for p in run.problems]
    meta = {**env, **meta, "problems": problems}
    metrics = {name: (values[name], *units[name]) for name in values}
    path = write_schema_result(workload.name, args.trace, args.seed, metrics, meta)
    print(f"schema-v1 result: {path.relative_to(ROOT)}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": len(runs),
        "failed": sum(1 for run in runs if run.problems),
        "metrics": {
            name: {"value": value, "unit": units[name][0]}
            for name, value in values.items()
        },
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
