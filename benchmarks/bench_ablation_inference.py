"""Ablation A5: hyperparameter inference — ML-II vs MCMC (Spearmint).

Spearmint slice-samples GP hyperparameters and averages the acquisition
over the posterior (integrated acquisition); the reproduction's default
is the cheaper ML-II point estimate.  This bench compares the two on
the small tuning problem, including their per-step cost (the Figure 7
quantity — MCMC is a large part of why Spearmint needed 35–253 s per
step).
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

STEPS = 20
SEEDS = (0, 1)


def run_inference(mode: str) -> tuple[float, float]:
    topology = make_topology(
        "small", TopologyCondition(time_imbalance=1.0, contentious_share=0.0)
    )
    cluster = default_cluster()
    bests, step_times = [], []
    for seed in SEEDS:
        codec = ParallelismCodec(topology, cluster, SYNTHETIC_BASE_CONFIG)
        objective = StormObjective(
            topology, cluster, codec, noise=GaussianNoise(0.03), seed=seed
        )
        optimizer = BayesianOptimizer(
            codec.space,
            seed=seed,
            hyper_inference=mode,
            mcmc_samples=4,
            mcmc_burn_in=5,
            refit_every=2,
        )
        result = TuningLoop(objective, optimizer, max_steps=STEPS).run()
        bests.append(result.best_value)
        step_times.append(result.mean_suggest_seconds())
    return float(np.mean(bests)), float(np.mean(step_times))


def test_ablation_hyperparameter_inference(benchmark):
    def run_all():
        return {mode: run_inference(mode) for mode in ("ml2", "mcmc")}

    scores = benchmark.pedantic(run_all, rounds=1, iterations=1)
    rows = [
        {
            "Inference": mode,
            "best tuples/s": round(best, 1),
            "mean step seconds": round(step, 4),
        }
        for mode, (best, step) in scores.items()
    ]
    print()
    print("== Ablation A5: ML-II vs MCMC hyperparameter inference ==")
    print(render_table(rows))
    # MCMC's integrated acquisition costs clearly more per step.
    assert scores["mcmc"][1] > scores["ml2"][1]
    # Both find working configurations.
    assert min(v for v, _ in scores.values()) > 0


if __name__ == "__main__":
    import sys

    from _harness import pytest_bench_main

    sys.exit(pytest_bench_main(__file__))
