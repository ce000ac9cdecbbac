"""Ablation A1: acquisition function choice (EI vs PI vs UCB).

The paper uses Expected Improvement because it "provides a good
tradeoff between exploration and exploitation and it is the method
implemented in Spearmint" (§III-C).  This bench compares the three
standard acquisitions on the medium / time-imbalance tuning problem.
"""

from repro.core.loop import TuningLoop
from repro.core.optimizer import BayesianOptimizer
from repro.experiments.presets import SYNTHETIC_BASE_CONFIG, default_cluster
from repro.experiments.report import render_table
from repro.storm.noise import GaussianNoise
from repro.storm.objective import StormObjective
from repro.storm.spaces import ParallelismCodec
from repro.topology_gen.suite import TopologyCondition, make_topology

# After repro: importing it first pins the BLAS pools to one thread.
import numpy as np

STEPS = 25
SEEDS = (0, 1)


def run_acquisition(acquisition: str) -> float:
    topology = make_topology(
        "medium", TopologyCondition(time_imbalance=1.0, contentious_share=0.0)
    )
    cluster = default_cluster()
    scores = []
    for seed in SEEDS:
        codec = ParallelismCodec(topology, cluster, SYNTHETIC_BASE_CONFIG)
        objective = StormObjective(
            topology, cluster, codec, noise=GaussianNoise(0.03), seed=seed
        )
        optimizer = BayesianOptimizer(codec.space, acquisition=acquisition, seed=seed)
        result = TuningLoop(objective, optimizer, max_steps=STEPS).run()
        scores.append(result.best_value)
    return float(np.mean(scores))


def test_ablation_acquisition(benchmark):
    def run_all():
        return {acq: run_acquisition(acq) for acq in ("ei", "pi", "ucb")}

    scores = benchmark.pedantic(run_all, rounds=1, iterations=1)
    rows = [
        {"Acquisition": acq, "best tuples/s": round(v, 1)}
        for acq, v in scores.items()
    ]
    print()
    print("== Ablation A1: acquisition functions (medium, 100% TiIm) ==")
    print(render_table(rows))
    assert all(v > 0 for v in scores.values())
    # EI should be competitive with the alternatives (within 25%).
    assert scores["ei"] > 0.75 * max(scores.values())


if __name__ == "__main__":
    import sys

    from _harness import pytest_bench_main

    sys.exit(pytest_bench_main(__file__))
