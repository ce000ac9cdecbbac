"""Ablation A4: averaged objective sampling — the paper's future work.

§VI: "our setup could be improved by running each sampling run multiple
times and by using the average performance for each tested parameter
configuration."  This bench implements that extension and measures
whether averaging repeated samples improves the found configuration at
a fixed total evaluation budget.
"""

from repro.core.loop import TuningLoop
from repro.core.optimizer import BayesianOptimizer
from repro.experiments.presets import SYNTHETIC_BASE_CONFIG, default_cluster
from repro.experiments.report import render_table
from repro.storm.noise import InterferenceNoise
from repro.storm.objective import StormObjective
from repro.storm.spaces import ParallelismCodec
from repro.topology_gen.suite import TopologyCondition, make_topology

# After repro: importing it first pins the BLAS pools to one thread.
import numpy as np

TOTAL_EVALUATIONS = 30
SEEDS = (0, 1, 2)


def run_with_repeats(repeats: int) -> float:
    """Spend the same evaluation budget with k-sample averaging."""
    topology = make_topology(
        "small", TopologyCondition(time_imbalance=1.0, contentious_share=0.0)
    )
    cluster = default_cluster()
    scores = []
    for seed in SEEDS:
        codec = ParallelismCodec(topology, cluster, SYNTHETIC_BASE_CONFIG)
        # Heavy-tailed noise is where averaging should matter.
        objective = StormObjective(
            topology,
            cluster,
            codec,
            noise=InterferenceNoise(sigma=0.05, p_interference=0.2, slowdown=0.5),
            seed=seed,
        )

        def averaged(params):
            return float(np.mean([objective(params) for _ in range(repeats)]))

        optimizer = BayesianOptimizer(codec.space, seed=seed)
        steps = TOTAL_EVALUATIONS // repeats
        result = TuningLoop(averaged, optimizer, max_steps=steps).run()
        # Score the found configuration by its true (noise-averaged)
        # performance, not the lucky sample that found it.
        best = result.best_config
        scores.append(float(np.mean([objective(best) for _ in range(20)])))
    return float(np.mean(scores))


def test_ablation_repeated_sampling(benchmark):
    def run_all():
        return {k: run_with_repeats(k) for k in (1, 2, 3)}

    scores = benchmark.pedantic(run_all, rounds=1, iterations=1)
    rows = [
        {
            "Samples per config": k,
            "steps": TOTAL_EVALUATIONS // k,
            "true tuples/s of winner": round(v, 1),
        }
        for k, v in scores.items()
    ]
    print()
    print("== Ablation A4: averaged sampling under heavy-tailed noise ==")
    print(render_table(rows))
    assert all(v > 0 for v in scores.values())


if __name__ == "__main__":
    import sys

    from _harness import pytest_bench_main

    sys.exit(pytest_bench_main(__file__))
