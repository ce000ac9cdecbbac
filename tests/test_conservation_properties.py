"""Property-based conservation laws across subsystems.

Random topologies, random configurations, random data — the structural
invariants that must hold regardless: tuple conservation through the
local executor, hint-normalization bounds, volume consistency, and
informed-weight recursions.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.informed import base_parallelism_weights
from repro.storm.config import TopologyConfig
from repro.storm.local import LocalTopologyRunner, repeating_source
from repro.topology_gen.ggen import layer_by_layer


def build_topology(seed: int, n: int, layers: int):
    return layer_by_layer(
        f"cons{seed}", n, min(layers, n), 0.35, seed=seed, cost=1.0
    )


def sources_for(topology):
    return {
        name: repeating_source(
            lambda chunk, name=name: [
                {"id": f"{name}-{chunk}-{i}"} for i in range(64)
            ]
        )
        for name in topology.sources()
    }


@given(
    seed=st.integers(min_value=0, max_value=3000),
    n=st.integers(min_value=3, max_value=14),
    layers=st.integers(min_value=2, max_value=4),
    batch_size=st.integers(min_value=1, max_value=40),
)
@settings(max_examples=40, deadline=None)
def test_local_executor_conserves_tuples(seed, n, layers, batch_size):
    """With unit selectivity, received(o) = sum over parents of emitted.

    Every subscriber receives all of a parent's output, so a bolt's
    received count equals the sum of its parents' emitted counts, and
    pass-through logic emits exactly what it receives.
    """
    topology = build_topology(seed, n, layers)
    runner = LocalTopologyRunner(topology, sources=sources_for(topology))
    result = runner.run(n_batches=2, batch_size=batch_size)
    assert result.source_tuples == 2 * batch_size
    for name in topology.topological_order():
        stat = result.stats[name]
        parents = topology.parents(name)
        if parents:
            expected = sum(result.stats[p].emitted for p in parents)
            assert stat.received == expected
        # Unit selectivity pass-through: emitted == received.
        assert stat.emitted == stat.received
        # Task accounting covers every received tuple exactly once
        # (shuffle groupings split; single-task operators trivially).
        assert sum(stat.per_task_received) == stat.received


@given(
    seed=st.integers(min_value=0, max_value=3000),
    n=st.integers(min_value=3, max_value=20),
)
@settings(max_examples=40, deadline=None)
def test_volumes_match_local_execution(seed, n):
    """The analytic volume recursion predicts local-mode tuple counts."""
    topology = build_topology(seed, n, 3)
    batch_size = 60
    runner = LocalTopologyRunner(topology, sources=sources_for(topology))
    result = runner.run(n_batches=1, batch_size=batch_size)
    volumes = topology.volumes()
    for name in topology.topological_order():
        predicted = volumes[name] * batch_size
        # Spout shares involve integer division of the batch; allow the
        # rounding slack that introduces downstream.
        assert result.stats[name].received == pytest.approx(
            predicted, abs=len(topology.sources())
        )


@given(
    seed=st.integers(min_value=0, max_value=3000),
    hint=st.integers(min_value=1, max_value=200),
    max_tasks=st.integers(min_value=5, max_value=500),
)
@settings(max_examples=60, deadline=None)
def test_hint_normalization_properties(seed, hint, max_tasks):
    topology = build_topology(seed, 8, 3)
    config = TopologyConfig(
        parallelism_hints={n: hint for n in topology}, max_tasks=max_tasks
    )
    hints = config.normalized_hints(topology)
    # Floors at one task per operator.
    assert all(h >= 1 for h in hints.values())
    # Never exceeds the cap by more than the rounding slack.
    assert sum(hints.values()) <= max(max_tasks, len(topology)) + len(topology) // 2
    # No-op when already under the cap.
    if hint * len(topology) <= max_tasks:
        assert hints == {n: hint for n in topology}
    # Scaling is monotone: no operator gains tasks from normalization.
    assert all(hints[n] <= max(1, hint) for n in topology)


@given(seed=st.integers(min_value=0, max_value=3000))
@settings(max_examples=40, deadline=None)
def test_informed_weights_recursion(seed):
    """Weights: spouts 1.0; every bolt the exact sum of its parents."""
    topology = build_topology(seed, 12, 4)
    weights = base_parallelism_weights(topology)
    for name in topology.topological_order():
        parents = topology.parents(name)
        if not parents:
            assert weights[name] == 1.0
        else:
            assert weights[name] == pytest.approx(
                sum(weights[p] for p in parents)
            )
    # Total sink weight cannot exceed total path count; all positive.
    assert all(w >= 1.0 for w in weights.values())


@given(
    seed=st.integers(min_value=0, max_value=3000),
    n=st.integers(min_value=4, max_value=16),
)
@settings(max_examples=40, deadline=None)
def test_volume_mass_conservation(seed, n):
    """With unit selectivities, each operator's input volume equals the
    sum of its parents' output volumes (no tuples appear or vanish)."""
    topology = build_topology(seed, n, 3)
    volumes = topology.volumes()
    for name in topology.topological_order():
        parents = topology.parents(name)
        if parents:
            assert volumes[name] == pytest.approx(
                sum(volumes[p] for p in parents)
            )
    total_source = sum(volumes[s] for s in topology.sources())
    assert total_source == pytest.approx(1.0)
