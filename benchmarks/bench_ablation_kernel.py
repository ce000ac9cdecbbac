"""Ablation A2: GP kernel choice (Matérn-5/2 vs RBF vs Matérn-3/2, ARD).

Spearmint's default is the Matérn-5/2 kernel; this bench checks how
much the reproduction's results depend on that choice.
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


def run_kernel(kernel: str, ard: bool) -> float:
    topology = make_topology(
        "small", TopologyCondition(time_imbalance=1.0, contentious_share=0.0)
    )
    cluster = default_cluster()
    scores = []
    for seed in SEEDS:
        codec = ParallelismCodec(topology, cluster, SYNTHETIC_BASE_CONFIG)
        objective = StormObjective(
            topology, cluster, codec, noise=GaussianNoise(0.03), seed=seed
        )
        optimizer = BayesianOptimizer(
            codec.space, kernel=kernel, ard=ard, seed=seed
        )
        result = TuningLoop(objective, optimizer, max_steps=STEPS).run()
        scores.append(result.best_value)
    return float(np.mean(scores))


def test_ablation_kernel(benchmark):
    variants = [
        ("matern52", True),
        ("matern52", False),
        ("matern32", True),
        ("rbf", True),
    ]

    def run_all():
        return {
            (kernel, ard): run_kernel(kernel, ard) for kernel, ard in variants
        }

    scores = benchmark.pedantic(run_all, rounds=1, iterations=1)
    rows = [
        {
            "Kernel": kernel,
            "ARD": ard,
            "best tuples/s": round(v, 1),
        }
        for (kernel, ard), v in scores.items()
    ]
    print()
    print("== Ablation A2: GP kernels (small, 100% TiIm) ==")
    print(render_table(rows))
    values = list(scores.values())
    assert all(v > 0 for v in values)
    # The result should be robust to the kernel choice (within ~35%).
    assert min(values) > 0.65 * max(values)


if __name__ == "__main__":
    import sys

    from _harness import pytest_bench_main

    sys.exit(pytest_bench_main(__file__))
