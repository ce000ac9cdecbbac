"""Data builders for every table and figure of the paper's evaluation.

Each builder returns a :class:`FigureData` with plain-dict rows (and,
for line figures, series) so the benchmarks can print them and the
tests can assert on the qualitative claims (DESIGN.md §3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.core.history import convergence_spread
from repro.experiments.presets import SYNTHETIC_BASE_CONFIG, default_cluster
from repro.obs.summary import summarize_trace, summary_rows
from repro.experiments.runner import SundogStudy, SyntheticStudy
from repro.stats.loess import loess
from repro.stats.summarize import summarize
from repro.stats.ttest import TTestResult, welch_t_test
from repro.storm.analytic import AnalyticPerformanceModel
from repro.storm.config import TABLE1_PARAMETERS, TopologyConfig
from repro.storm.metrics import MeasuredRun
from repro.storm.topology import Topology
from repro.sundog import sundog_default_config, sundog_topology
from repro.topology_gen.properties import table2_stats
from repro.topology_gen.suite import PRESETS, base_topology


@dataclass
class FigureData:
    """Rows (tables/bars) and series (lines) for one paper exhibit."""

    exhibit: str
    title: str
    rows: list[dict[str, object]] = field(default_factory=list)
    series: dict[str, tuple[list[float], list[float]]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)


# ----------------------------------------------------------------------
# Tables
# ----------------------------------------------------------------------
def table1_parameters() -> FigureData:
    """Table I: the tuned configuration parameters."""
    data = FigureData("Table I", "Configuration parameters")
    for name, description in TABLE1_PARAMETERS:
        data.rows.append({"Parameter": name, "Description": description})
    return data


def table2_topologies(seed: int = 0) -> FigureData:
    """Table II: statistics of the generated synthetic topologies."""
    data = FigureData("Table II", "Generated topology statistics")
    for size, preset in PRESETS.items():
        topo = base_topology(size, seed=seed)
        row = table2_stats(
            topo, preset.edge_probability, layers=preset.n_layers
        ).as_dict()
        data.rows.append(row)
    return data


#: Table III is literature data quoted by the paper (operator counts of
#: published topologies) — reproduced verbatim, extended with the
#: operator counts of this reproduction's own four topologies.
TABLE3_LITERATURE: tuple[tuple[int, str, int], ...] = (
    (2003, "Data Dissemination Problem in [27]", 40),
    (2004, "Linear Road Benchmark in [28]", 60),
    (2013, "Linear Road Benchmark used in [29]", 7),
    (2013, "DEBS'13 Grand Challenge Query [30]", 3),
)


def table3_literature() -> FigureData:
    data = FigureData("Table III", "Number of operators of topologies in literature")
    for year, description, n_ops in TABLE3_LITERATURE:
        data.rows.append(
            {"Year": year, "Description": description, "# of Ops": n_ops}
        )
    for size in PRESETS:
        topo = base_topology(size)
        data.rows.append(
            {
                "Year": 2015,
                "Description": f"this paper, synthetic '{size}'",
                "# of Ops": len(topo),
            }
        )
    data.rows.append(
        {
            "Year": 2015,
            "Description": "this paper, Sundog",
            "# of Ops": len(sundog_topology()),
        }
    )
    return data


# ----------------------------------------------------------------------
# Figure 3: network load
# ----------------------------------------------------------------------
def _representative_run(
    topology: Topology, base_config: TopologyConfig, max_hint: int = 60
) -> MeasuredRun:
    """Measure the best uniform-hint deployment (noise-free).

    Figure 3 reports average network load per worker during the
    evaluations; the best uniform configuration is the natural
    representative operating point.
    """
    cluster = default_cluster()
    model = AnalyticPerformanceModel(topology, cluster)
    best: MeasuredRun | None = None
    for hint in range(1, max_hint + 1):
        config = base_config.replace(
            parallelism_hints={name: hint for name in topology}
        )
        run = model.evaluate_noise_free(config)
        if best is None or run.throughput_tps > best.throughput_tps:
            best = run
    assert best is not None
    return best


def figure3_network_load() -> FigureData:
    """Figure 3: average network load in MB/s per worker per topology."""
    data = FigureData(
        "Figure 3", "Average network load in MB/s per worker for each topology"
    )
    for size in ("large", "medium", "small"):
        topo = base_topology(size)
        run = _representative_run(topo, SYNTHETIC_BASE_CONFIG)
        data.rows.append(
            {
                "Topology": size,
                "MB/s per worker": round(run.network_mb_per_worker_s, 2),
                "at tuples/s": round(run.throughput_tps, 1),
            }
        )
    sundog = sundog_topology()
    run = _representative_run(sundog, sundog_default_config())
    data.rows.append(
        {
            "Topology": "sundog",
            "MB/s per worker": round(run.network_mb_per_worker_s, 2),
            "at tuples/s": round(run.throughput_tps, 1),
        }
    )
    nic_limit = default_cluster().machine.nic_mbps / 8.0
    data.notes.append(
        f"theoretical NIC limit {nic_limit:.0f} MB/s — the network is "
        "never saturated (paper §IV-B3)"
    )
    return data


# ----------------------------------------------------------------------
# Figures 4-7: synthetic study views
# ----------------------------------------------------------------------
def figure4_throughput(study: SyntheticStudy) -> FigureData:
    """Figure 4: best-config throughput per condition/size/strategy."""
    data = FigureData(
        "Figure 4",
        "Throughput of the best configuration (mean of re-runs, min/max bars)",
    )
    for condition in study.conditions:
        for size in study.sizes:
            for strategy in study.strategies:
                result = study.best_pass(condition, size, strategy)
                mean, lo, hi = result.rerun_summary()
                data.rows.append(
                    {
                        "Condition": condition.label,
                        "Size": size,
                        "Strategy": strategy,
                        "tuples/s": round(mean, 1),
                        "min": round(lo, 1),
                        "max": round(hi, 1),
                    }
                )
    return data


def figure5_convergence(study: SyntheticStudy) -> FigureData:
    """Figure 5: step at which the best performance was first measured."""
    data = FigureData(
        "Figure 5",
        "Convergence speed: steps to reach maximum throughput "
        "(min/avg/max over passes)",
    )
    strategies = [s for s in study.strategies if s != "bo180"]
    for condition in study.conditions:
        for size in study.sizes:
            for strategy in strategies:
                passes = study.passes(condition, size, strategy)
                lo, avg, hi = convergence_spread(passes)
                data.rows.append(
                    {
                        "Condition": condition.label,
                        "Size": size,
                        "Strategy": strategy,
                        "steps(avg)": round(avg, 1),
                        "min": lo,
                        "max": hi,
                    }
                )
    return data


def figure6_loess_traces(study: SyntheticStudy, span: float = 0.75) -> FigureData:
    """Figure 6: LOESS smoothing of the Bayesian optimizer's traces."""
    data = FigureData(
        "Figure 6",
        f"LOESS (span {span}) of Bayesian-optimizer throughput traces",
    )
    source = "bo180" if "bo180" in study.strategies else "bo"
    for condition in study.conditions:
        for size in study.sizes:
            xs: list[float] = []
            ys: list[float] = []
            for result in study.passes(condition, size, source):
                for obs in result.observations:
                    xs.append(obs.step + 1)
                    ys.append(obs.value)
            x_eval = np.linspace(1, max(xs), min(40, int(max(xs))))
            x_s, y_s = loess(np.array(xs), np.array(ys), span=span, x_eval=x_eval)
            key = f"{condition.label} / {size}"
            data.series[key] = (list(map(float, x_s)), list(map(float, y_s)))
    return data


def figure7_step_time(study: SyntheticStudy) -> FigureData:
    """Figure 7: optimizer wall time per step (scalability)."""
    data = FigureData(
        "Figure 7",
        "Average time per optimization step in seconds "
        "(time to choose the next configuration)",
    )
    strategies = [s for s in study.strategies if s != "bo180"]
    for condition in study.conditions:
        for size in study.sizes:
            for strategy in strategies:
                times: list[float] = []
                fit_seconds = 0.0
                refits = updates = 0
                for result in study.passes(condition, size, strategy):
                    times.extend(o.suggest_seconds for o in result.observations)
                    telemetry = result.metadata.get("optimizer_telemetry")
                    if isinstance(telemetry, Mapping):
                        fit_seconds += float(telemetry["gp_fit_seconds_total"])
                        refits += int(telemetry["gp_full_refits"])
                        updates += int(telemetry["gp_incremental_updates"])
                s = summarize(times)
                data.rows.append(
                    {
                        "Condition": condition.label,
                        "Size": size,
                        "Strategy": strategy,
                        "seconds(avg)": round(s.mean, 4),
                        "min": round(s.minimum, 4),
                        "max": round(s.maximum, 4),
                        # Where the GP-paying strategies spend it:
                        # periodic full refits vs rank-1 updates.
                        "gp_fit_s/step": (
                            round(fit_seconds / len(times), 4) if times else 0.0
                        ),
                        "refits": refits,
                        "updates": updates,
                    }
                )
    return data


# ----------------------------------------------------------------------
# Figure 8: Sundog
# ----------------------------------------------------------------------
def figure8a_sundog_throughput(study: SundogStudy) -> FigureData:
    """Figure 8a: Sundog throughput per strategy and parameter set."""
    data = FigureData(
        "Figure 8a",
        "Sundog throughput (mean of re-runs, min/max bars), million tuples/s",
    )
    for (strategy, param_set), results in study.results.items():
        from repro.core.history import best_of

        result = best_of(results)
        mean, lo, hi = result.rerun_summary()
        data.rows.append(
            {
                "Strategy": strategy,
                "Params": param_set,
                "mil tuples/s": round(mean / 1e6, 3),
                "min": round(lo / 1e6, 3),
                "max": round(hi / 1e6, 3),
                "best config": _summarize_config(result.best_config),
            }
        )
    data.rows.sort(key=lambda r: (str(r["Params"]), str(r["Strategy"])))
    for t in sundog_t_tests(study):
        data.notes.append(t)
    return data


def _summarize_config(config: Mapping[str, object]) -> str:
    """Compact rendering of the interesting non-hint parameters."""
    keys = ("batch_size", "batch_parallelism", "worker_threads",
            "receiver_threads", "ackers", "uniform_hint", "max_tasks")
    parts = [f"{k}={config[k]}" for k in keys if k in config]
    hints = [v for k, v in config.items() if k.startswith("hint__")]
    if hints:
        parts.append(f"hints median={int(np.median(hints))}")
    return ", ".join(parts)


def sundog_t_tests(study: SundogStudy) -> list[str]:
    """The paper's §V-D significance statements, recomputed."""
    from repro.core.history import best_of

    def reruns(strategy: str, param_set: str) -> list[float] | None:
        results = study.results.get((strategy, param_set))
        if not results:
            return None
        values = best_of(results).best_rerun_values
        return values if len(values) >= 2 else None

    comparisons = [
        ("pla", "h", "bo", "h"),
        ("pla", "h", "bo180", "h"),
        ("bo", "bs bp cc", "bo", "h bs bp"),
        ("bo", "bs bp cc", "bo180", "h bs bp"),
    ]
    notes = []
    for s1, p1, s2, p2 in comparisons:
        a, b = reruns(s1, p1), reruns(s2, p2)
        if a is None or b is None:
            continue
        test: TTestResult = welch_t_test(a, b)
        notes.append(f"{s1}.{p1} vs {s2}.{p2}: {test.verdict()}")
    return notes


def figure8b_sundog_convergence(study: SundogStudy) -> FigureData:
    """Figure 8b: best-so-far traces for the Figure 8 arms."""
    data = FigureData(
        "Figure 8b", "Sundog convergence: best-so-far throughput by step"
    )
    from repro.core.history import best_of

    trace_arms = [
        ("pla", "h"),
        ("bo180", "h"),
        ("bo180", "h bs bp"),
        ("bo", "bs bp cc"),
    ]
    for strategy, param_set in trace_arms:
        results = study.results.get((strategy, param_set))
        if not results:
            continue
        result = best_of(results)
        trace = result.best_so_far()
        label = f"{strategy}.{param_set}"
        data.series[label] = (
            [float(i + 1) for i in range(len(trace))],
            [v / 1e6 for v in trace],
        )
    return data


def speedup_over_pla(study: SundogStudy) -> float:
    """The headline number: tuned throughput over pla-hints-only (2.8x)."""
    from repro.core.history import best_of

    pla = best_of(study.passes("pla", "h")).rerun_summary()[0]
    candidates = [
        best_of(study.passes(s, p)).rerun_summary()[0]
        for (s, p) in study.results
        if p != "h"
    ]
    if not candidates or pla <= 0:
        raise ValueError("study lacks the arms needed for the speedup")
    return max(candidates) / pla


def trace_summary(events: list[Mapping[str, object]]) -> FigureData:
    """Where-time-goes aggregate of a run trace (``obs summary``).

    Consumes the JSONL event stream an :func:`repro.obs.session` wrote
    and reduces it to per-span timing rows — the suggest/evaluate/tell
    phase split first (the paper's Figure 7 cost axis), then every other
    instrumented span (GP refits vs rank-1 updates, acquisition
    proposals, engine evaluations).
    """
    summary = summarize_trace(events)
    data = FigureData(
        "Obs Summary",
        "Where the wall-clock went (aggregated from the run trace)",
    )
    data.rows = summary_rows(summary)
    data.notes.append(
        f"{summary.n_runs} tuning run(s), {summary.n_steps} steps, "
        f"wall {summary.wall_seconds:.3f}s"
    )
    data.notes.append(
        f"suggest+evaluate+tell account for {summary.coverage:.1%} of "
        f"tuning.run wall-clock ({summary.phase_total_seconds:.3f}s)"
    )
    if summary.failures:
        data.notes.append(f"{summary.failures} failed evaluation(s) in the trace")
    hits = summary.counters.get("objective.cache_hits", 0)
    misses = summary.counters.get("objective.cache_misses", 0)
    if hits or misses:
        data.notes.append(
            f"objective cache: {hits} hits / {misses} misses "
            f"({hits / (hits + misses):.1%} hit rate)"
        )
    return data
