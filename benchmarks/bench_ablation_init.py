"""Ablation A3: initial design — Latin hypercube size and random fallback.

The optimizer seeds its GP with a space-filling Latin-hypercube design;
this bench varies the design size (and compares plain random sampling)
on the small tuning problem.
"""

from repro.core.loop import TuningLoop
from repro.core.optimizer import BayesianOptimizer
from repro.core.baselines import RandomSearchOptimizer
from repro.experiments.presets import SYNTHETIC_BASE_CONFIG, default_cluster
from repro.experiments.report import render_table
from repro.storm.noise import GaussianNoise
from repro.storm.objective import StormObjective
from repro.storm.spaces import ParallelismCodec
from repro.topology_gen.suite import TopologyCondition, make_topology

# After repro: importing it first pins the BLAS pools to one thread.
import numpy as np

STEPS = 25
SEEDS = (0, 1, 2)


def make_problem(seed: int):
    topology = make_topology(
        "small", TopologyCondition(time_imbalance=1.0, contentious_share=0.0)
    )
    cluster = default_cluster()
    codec = ParallelismCodec(topology, cluster, SYNTHETIC_BASE_CONFIG)
    objective = StormObjective(
        topology, cluster, codec, noise=GaussianNoise(0.03), seed=seed
    )
    return codec, objective


def run_variant(init_points: int | None) -> float:
    scores = []
    for seed in SEEDS:
        codec, objective = make_problem(seed)
        if init_points is None:  # pure random search control
            optimizer = RandomSearchOptimizer(codec.space, seed=seed)
        else:
            optimizer = BayesianOptimizer(
                codec.space, init_points=init_points, seed=seed
            )
        result = TuningLoop(objective, optimizer, max_steps=STEPS).run()
        scores.append(result.best_value)
    return float(np.mean(scores))


def test_ablation_init_design(benchmark):
    variants = {"lhs-4": 4, "lhs-8": 8, "lhs-16": 16, "random-search": None}

    def run_all():
        return {name: run_variant(v) for name, v in variants.items()}

    scores = benchmark.pedantic(run_all, rounds=1, iterations=1)
    rows = [
        {"Init design": name, "best tuples/s": round(v, 1)}
        for name, v in scores.items()
    ]
    print()
    print("== Ablation A3: initial design (small, 100% TiIm) ==")
    print(render_table(rows))
    # Any BO variant should beat pure random search on average.
    bo_scores = [v for name, v in scores.items() if name != "random-search"]
    assert max(bo_scores) >= scores["random-search"] * 0.95


if __name__ == "__main__":
    import sys

    from _harness import pytest_bench_main

    sys.exit(pytest_bench_main(__file__))
