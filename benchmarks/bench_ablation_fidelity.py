"""Ablation A6: objective fidelity — analytic model vs discrete-event sim.

The studies evaluate configurations with the closed-form analytic
engine; the discrete-event simulator is the ground-truth mechanism
model.  This bench runs the same short tuning session against both and
checks the optimizer reaches the same regime — evidence that the fast
objective does not distort the optimization landscape.
"""

from repro.core.loop import TuningLoop
from repro.core.optimizer import BayesianOptimizer
from repro.experiments.report import render_table
from repro.storm.cluster import ClusterSpec, MachineSpec
from repro.storm.config import TopologyConfig
from repro.storm.noise import GaussianNoise
from repro.storm.objective import StormObjective
from repro.storm.spaces import ParallelismCodec
from repro.topology_gen.suite import TopologyCondition, make_topology

# After repro: importing it first pins the BLAS pools to one thread.
import numpy as np

STEPS = 15


def run_fidelity(fidelity: str) -> tuple[float, float]:
    # A small cluster keeps DES event counts manageable.
    cluster = ClusterSpec(
        n_machines=8, machine=MachineSpec(cores=4), max_executors_per_worker=50
    )
    topology = make_topology(
        "small", TopologyCondition(time_imbalance=1.0, contentious_share=0.0)
    )
    base = TopologyConfig(
        batch_size=100, batch_parallelism=8, ackers=4, num_workers=8
    )
    codec = ParallelismCodec(topology, cluster, base)
    objective = StormObjective(
        topology,
        cluster,
        codec,
        fidelity=fidelity,  # type: ignore[arg-type]
        noise=GaussianNoise(0.03),
        seed=0,
        des_kwargs={"max_batches": 40},
    )
    optimizer = BayesianOptimizer(codec.space, seed=0)
    result = TuningLoop(objective, optimizer, max_steps=STEPS).run()
    eval_seconds = float(
        np.mean([o.evaluate_seconds for o in result.observations])
    )
    return result.best_value, eval_seconds


def test_ablation_objective_fidelity(benchmark):
    def run_all():
        return {f: run_fidelity(f) for f in ("analytic", "des")}

    scores = benchmark.pedantic(run_all, rounds=1, iterations=1)
    rows = [
        {
            "Fidelity": f,
            "best tuples/s": round(best, 1),
            "mean eval seconds": round(secs, 4),
        }
        for f, (best, secs) in scores.items()
    ]
    print()
    print("== Ablation A6: analytic vs discrete-event objective ==")
    print(render_table(rows))
    analytic_best, analytic_cost = scores["analytic"]
    des_best, des_cost = scores["des"]
    # Same optimization regime under both engines...
    assert 0.5 < des_best / analytic_best < 2.0
    # ...at a fraction of the evaluation cost.
    assert analytic_cost < des_cost


if __name__ == "__main__":
    import sys

    from _harness import pytest_bench_main

    sys.exit(pytest_bench_main(__file__))
