"""Runner strategy construction and the random-search control."""

from __future__ import annotations

import pytest

from repro.core.baselines import ParallelLinearAscent, RandomSearchOptimizer
from repro.core.optimizer import BayesianOptimizer
from repro.experiments.presets import (
    SYNTHETIC_BASE_CONFIG,
    Budget,
    default_cluster,
)
from repro.experiments.runner import (
    SyntheticCellSpec,
    make_synthetic_optimizer,
    run_cell,
)
from repro.storm.spaces import (
    InformedMultiplierCodec,
    ParallelismCodec,
    UniformHintCodec,
)
from repro.topology_gen.suite import TopologyCondition, make_topology


@pytest.fixture(scope="module")
def topo():
    return make_topology("small")


@pytest.fixture(scope="module")
def cluster():
    return default_cluster()


class TestMakeOptimizer:
    def test_pla(self, topo, cluster):
        optimizer, codec = make_synthetic_optimizer(
            "pla", topo, cluster, SYNTHETIC_BASE_CONFIG, 30, 0
        )
        assert isinstance(optimizer, ParallelLinearAscent)
        assert isinstance(codec, UniformHintCodec)
        assert optimizer.ask() == {"uniform_hint": 1}

    def test_ipla(self, topo, cluster):
        optimizer, codec = make_synthetic_optimizer(
            "ipla", topo, cluster, SYNTHETIC_BASE_CONFIG, 30, 0
        )
        assert isinstance(optimizer, ParallelLinearAscent)
        assert isinstance(codec, InformedMultiplierCodec)
        assert "multiplier" in optimizer.ask()

    @pytest.mark.parametrize("strategy", ["bo", "bo180"])
    def test_bo_variants(self, topo, cluster, strategy):
        optimizer, codec = make_synthetic_optimizer(
            strategy, topo, cluster, SYNTHETIC_BASE_CONFIG, 30, 0
        )
        assert isinstance(optimizer, BayesianOptimizer)
        assert isinstance(codec, ParallelismCodec)
        # Seeded with the all-ones default configuration.
        first = optimizer.ask()
        hints = [v for k, v in first.items() if k.startswith("hint__")]
        assert set(hints) == {1}

    def test_ibo(self, topo, cluster):
        optimizer, codec = make_synthetic_optimizer(
            "ibo", topo, cluster, SYNTHETIC_BASE_CONFIG, 30, 0
        )
        assert isinstance(optimizer, BayesianOptimizer)
        assert isinstance(codec, InformedMultiplierCodec)

    def test_random_search_control(self, topo, cluster):
        optimizer, codec = make_synthetic_optimizer(
            "rs", topo, cluster, SYNTHETIC_BASE_CONFIG, 30, 0
        )
        assert isinstance(optimizer, RandomSearchOptimizer)
        assert isinstance(codec, ParallelismCodec)

    def test_unknown(self, topo, cluster):
        with pytest.raises(ValueError):
            make_synthetic_optimizer(
                "annealing", topo, cluster, SYNTHETIC_BASE_CONFIG, 30, 0
            )


def test_random_search_cell_runs():
    budget = Budget(
        steps=6, steps_extended=8, baseline_steps=10, passes=1, repeat_best=2
    )
    spec = SyntheticCellSpec(
        size="small",
        condition=TopologyCondition(0.0, 0.0),
        strategy="rs",
        budget=budget,
    )
    results = run_cell(spec)
    assert results[0].n_steps == 6
    assert results[0].best_value > 0
