"""Headline bench for the vectorized analytic engine: batch vs scalar.

Every baseline walk, BO candidate screen, and sensitivity sweep is a
pile of analytic evaluations of *different configurations of the same
deployment*.  :class:`~repro.storm.analytic_batch.AnalyticBatchModel`
evaluates an (N, D) configuration matrix in one NumPy pass and is
required to be **bit-compatible** with the scalar engine — same
throughputs, same failure reasons, same bottleneck labels.

Two claims are checked:

* **Speedup** — at N=256 configurations the batch path evaluates at
  least 10x more configs/sec than the scalar loop on the same model.
* **Equality** — the batched :class:`MeasuredRun` objects compare equal
  (dataclass ``==``, nested breakdowns included) to the scalar runs,
  and the max absolute throughput deviation is exactly 0.

Run as a script for the CI smoke check (``--smoke`` scales N down and
asserts equality plus a nonzero speedup; ``--json`` writes the report
for the artifact upload), or under pytest for the full acceptance
numbers:

    PYTHONPATH=src python benchmarks/bench_batch_eval.py --smoke
    PYTHONPATH=src python -m pytest benchmarks/bench_batch_eval.py -v
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.storm.analytic import AnalyticPerformanceModel
from repro.storm.cluster import paper_cluster
from repro.storm.config import TopologyConfig
from repro.topology_gen.suite import make_topology

# After repro: importing it first pins the BLAS pools to one thread.
import numpy as np

#: Full-bench knobs (the acceptance configuration).
N_CONFIGS = 256
REPEATS = 7
TOPOLOGY_SIZE = "medium"


def random_configs(topology, n: int, seed: int = 0) -> list[TopologyConfig]:
    """A deterministic mix of feasible and infeasible configurations."""
    rng = np.random.default_rng(seed)
    names = list(topology)
    configs = []
    for _ in range(n):
        configs.append(
            TopologyConfig(
                parallelism_hints={
                    name: int(rng.integers(1, 33)) for name in names
                },
                batch_size=int(rng.integers(10, 50_001)),
                batch_parallelism=int(rng.integers(1, 65)),
                worker_threads=int(rng.integers(1, 17)),
                receiver_threads=int(rng.integers(1, 9)),
                ackers=int(rng.integers(0, 17)),
                num_workers=80,
            )
        )
    return configs


def run_speedup(
    n_configs: int = N_CONFIGS,
    repeats: int = REPEATS,
    size: str = TOPOLOGY_SIZE,
) -> dict[str, float]:
    """Batch vs scalar configs/sec on the same analytic model.

    The timed batch path is :meth:`AnalyticBatchModel.evaluate` — the
    array-valued pass the baselines, BO screener, and sensitivity sweeps
    consume.  Full :class:`MeasuredRun` materialization (``runs()``) is
    timed separately and checked for equality against the scalar runs,
    but per-row Python object construction is not what the fast path is
    for, so it does not gate the speedup claim.
    """
    topology = make_topology(size)
    model = AnalyticPerformanceModel(topology, paper_cluster())
    configs = random_configs(topology, n_configs)

    # Warm both paths (lazy batch-model build, parallelism tables).
    scalar_runs = [model.evaluate_noise_free(c) for c in configs]
    batch = model.batch_model.evaluate(configs)

    inf = float("inf")
    scalar_seconds = inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        scalar_runs = [model.evaluate_noise_free(c) for c in configs]
        scalar_seconds = min(scalar_seconds, time.perf_counter() - t0)

    batch_seconds = inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        batch = model.batch_model.evaluate(configs)
        batch_seconds = min(batch_seconds, time.perf_counter() - t0)

    materialize_seconds = inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        batch_runs = model.evaluate_noise_free_batch(configs)
        materialize_seconds = min(materialize_seconds, time.perf_counter() - t0)

    mismatches = sum(1 for s, b in zip(scalar_runs, batch_runs) if s != b)
    max_abs_dev = max(
        abs(s.throughput_tps - float(batch.throughput_tps[i]))
        for i, s in enumerate(scalar_runs)
    )
    n_failed = sum(1 for run in scalar_runs if run.failed)
    speedup = scalar_seconds / batch_seconds if batch_seconds > 0 else inf
    print(
        f"analytic N={n_configs} ({size} topology, {n_failed} infeasible): "
        f"scalar {n_configs / scalar_seconds:.0f} cfg/s  "
        f"batch {n_configs / batch_seconds:.0f} cfg/s  "
        f"(+runs() {n_configs / materialize_seconds:.0f} cfg/s)  "
        f"speedup {speedup:.1f}x  "
        f"mismatches {mismatches}  max|dev| {max_abs_dev:.3g}"
    )
    return {
        "n_configs": n_configs,
        "n_failed": n_failed,
        "scalar_seconds": scalar_seconds,
        "batch_seconds": batch_seconds,
        "materialize_seconds": materialize_seconds,
        "scalar_configs_per_s": n_configs / scalar_seconds,
        "batch_configs_per_s": n_configs / batch_seconds,
        "speedup": speedup,
        "materialize_speedup": scalar_seconds / materialize_seconds,
        "mismatched_runs": mismatches,
        "max_abs_throughput_deviation": max_abs_dev,
    }


# ----------------------------------------------------------------------
# pytest entry points (full acceptance numbers)
# ----------------------------------------------------------------------
def test_batch_speedup_and_equality() -> None:
    """N=256 batch pass: >= 10x configs/sec, bit-identical runs."""
    report = run_speedup()
    assert report["mismatched_runs"] == 0, "batch runs diverged from scalar"
    assert report["max_abs_throughput_deviation"] == 0.0
    assert report["speedup"] >= 10.0, (
        f"batch speedup {report['speedup']:.1f}x is below the 10x target"
    )


# ----------------------------------------------------------------------
# Script entry point (CI smoke)
# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    from _harness import add_harness_args, emit, make_metric

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="scaled-down equality + speedup check for CI",
    )
    add_harness_args(parser)
    args = parser.parse_args(argv)
    if args.smoke:
        report = run_speedup(n_configs=64, repeats=2, size="small")
        # The smoke check pins correctness (bit-identical runs) and a
        # nonzero win; the 10x perf claim is asserted by the full bench,
        # not on shared CI runners.
        assert report["mismatched_runs"] == 0, "batch runs diverged from scalar"
        assert report["max_abs_throughput_deviation"] == 0.0
        assert report["speedup"] > 1.0, "batch path slower than scalar loop"
        print("smoke ok")
    else:
        report = run_speedup()
    emit(
        "bench_batch_eval",
        smoke=args.smoke,
        metrics={
            "speedup": make_metric(
                report["speedup"], higher_is_better=True, unit="x"
            ),
            "batch_configs_per_s": make_metric(
                report["batch_configs_per_s"],
                higher_is_better=True,
                unit="cfg/s",
            ),
            "scalar_configs_per_s": make_metric(
                report["scalar_configs_per_s"],
                higher_is_better=True,
                unit="cfg/s",
            ),
            "mismatched_runs": make_metric(
                report["mismatched_runs"], higher_is_better=False
            ),
        },
        meta={k: report[k] for k in ("n_configs", "n_failed")},
        json_path=args.json,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
