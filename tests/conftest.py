"""Shared fixtures for the test suite."""

from __future__ import annotations

# repro before numpy: importing repro sets OPENBLAS_NUM_THREADS=1, which
# OpenBLAS reads when numpy loads it, so the suite runs under the same
# one-thread policy as the CLI.
import repro  # noqa: F401
import numpy as np
import pytest

from repro.storm.cluster import ClusterSpec, MachineSpec, small_test_cluster
from repro.storm.config import TopologyConfig
from repro.storm.grouping import Grouping
from repro.storm.topology import (
    Topology,
    TopologyBuilder,
    diamond_topology,
    linear_topology,
)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def tiny_cluster() -> ClusterSpec:
    """A 2-machine, 2-core cluster for hand-computable scenarios."""
    return ClusterSpec(
        n_machines=2,
        machine=MachineSpec(cores=2, core_speed=1.0, memory_mb=4096, nic_mbps=1000.0),
        workers_per_machine=1,
        max_executors_per_worker=20,
    )


@pytest.fixture
def four_machine_cluster() -> ClusterSpec:
    return small_test_cluster()


@pytest.fixture
def chain3() -> Topology:
    """spout -> bolt1 -> bolt2, homogeneous costs."""
    return linear_topology("chain3", 2, cost=10.0, spout_cost=10.0)


@pytest.fixture
def diamond() -> Topology:
    return diamond_topology()


@pytest.fixture
def fan_topology() -> Topology:
    """One spout fanning out to three independent bolts."""
    builder = TopologyBuilder("fan")
    builder.spout("src", cost=5.0)
    for i in range(3):
        builder.bolt(f"work{i}", inputs=["src"], cost=15.0)
    return builder.build()


@pytest.fixture
def default_config() -> TopologyConfig:
    return TopologyConfig(
        batch_size=100,
        batch_parallelism=4,
        worker_threads=8,
        receiver_threads=1,
        ackers=2,
        num_workers=2,
    )


def make_custom_topology(
    specs: list[tuple[str, str, float, list[str]]],
    grouping: Grouping = Grouping.SHUFFLE,
) -> Topology:
    """Helper: build a topology from (name, kind, cost, inputs) rows."""
    builder = TopologyBuilder("custom")
    for name, kind, cost, inputs in specs:
        if kind == "spout":
            builder.spout(name, cost=cost)
        else:
            builder.bolt(name, inputs=inputs, cost=cost, grouping=grouping)
    return builder.build()
