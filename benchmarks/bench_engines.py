"""Microbenchmarks of the execution engines themselves.

These time single configuration evaluations — the unit of cost every
study multiplies by its step budget — for both the analytic model and
the discrete-event simulator, on the small and large topologies.
"""

import pytest

from repro.storm.analytic import AnalyticPerformanceModel
from repro.storm.cluster import paper_cluster
from repro.storm.simulation import DiscreteEventSimulator
from repro.experiments.presets import SYNTHETIC_BASE_CONFIG
from repro.topology_gen.suite import make_topology


@pytest.mark.parametrize("size", ["small", "large"])
def test_analytic_evaluation_speed(benchmark, size):
    topology = make_topology(size)
    model = AnalyticPerformanceModel(topology, paper_cluster())
    config = SYNTHETIC_BASE_CONFIG.replace(
        parallelism_hints={n: 4 for n in topology}
    )
    run = benchmark(model.evaluate_noise_free, config)
    assert run.throughput_tps > 0


def test_des_evaluation_speed(benchmark):
    topology = make_topology("small")
    sim = DiscreteEventSimulator(
        topology, paper_cluster(), max_batches=20, warmup_batches=2
    )
    config = SYNTHETIC_BASE_CONFIG.replace(
        parallelism_hints={n: 4 for n in topology}
    )
    run = benchmark.pedantic(
        sim.evaluate_noise_free, args=(config,), rounds=3, iterations=1
    )
    assert run.throughput_tps > 0


def test_gp_suggest_speed_large_space(benchmark):
    """One ask/tell round at a realistic history size (Figure 7's cost)."""
    from repro.core.optimizer import BayesianOptimizer
    from repro.storm.spaces import ParallelismCodec

    topology = make_topology("large")
    codec = ParallelismCodec(topology, paper_cluster(), SYNTHETIC_BASE_CONFIG)
    optimizer = BayesianOptimizer(codec.space, seed=0, acq_candidates=512)
    rng_values = iter(range(10_000))
    for _ in range(30):
        config = optimizer.ask()
        optimizer.tell(config, float(next(rng_values)))

    def one_round():
        config = optimizer.ask()
        optimizer.tell(config, float(next(rng_values)))
        return config

    config = benchmark.pedantic(one_round, rounds=3, iterations=1)
    assert config
    # Where the time goes: full refits vs rank-1 updates, pool sizes.
    print(f"\ntelemetry: {optimizer.telemetry}")


if __name__ == "__main__":
    import sys

    from _harness import pytest_bench_main

    sys.exit(pytest_bench_main(__file__))
