"""Codecs: map optimizer parameter dicts to :class:`TopologyConfig`.

Optimizers (``repro.core``) speak flat dictionaries over a
:class:`~repro.core.parameters.ParameterSpace`; the execution engines
speak :class:`~repro.storm.config.TopologyConfig`.  A codec owns both
sides: it declares the searchable space for one of the paper's
experiment setups and decodes proposals into deployable configurations.

The provided codecs correspond to the paper's parameter sets:

* :class:`ParallelismCodec` — one integer hint per operator plus the
  max-tasks cap (the bo runs of §V-A);
* :class:`UniformHintCodec` — a single uniform hint (pla);
* :class:`InformedMultiplierCodec` — one float multiplier over the base
  parallelism weights (ipla / ibo);
* :class:`SundogParameterCodec` — Figure 8's parameter sets ``h``,
  ``h+bs+bp`` and ``bs+bp+cc`` via its ``include`` flags.
"""

from __future__ import annotations

import abc
import math
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.core.informed import InformedParallelismCodec
from repro.core.parameters import FloatParameter, IntParameter, Parameter, ParameterSpace
from repro.storm.cluster import ClusterSpec
from repro.storm.config import ConfigBatch, TopologyConfig
from repro.storm.topology import Topology

#: Prefix used for per-operator hint parameters in flat dicts.
HINT_PREFIX = "hint__"


class ConfigCodec(abc.ABC):
    """Translates flat parameter dicts into topology configurations."""

    space: ParameterSpace
    topology: Topology

    @abc.abstractmethod
    def decode(self, params: Mapping[str, object]) -> TopologyConfig:
        """Build the deployable configuration for one proposal."""

    def decode_batch(self, X: np.ndarray, order: Sequence[str]) -> ConfigBatch:
        """Decode an ``(N, dim)`` unit-cube matrix into one batch.

        Row ``i`` equals ``decode(space.decode(X[i]))`` with hints laid
        out in ``order``.  This default decodes row by row; codecs with
        a closed form override it to decode column-wise.
        """
        rows = np.atleast_2d(np.asarray(X, dtype=float))
        configs = [self.decode(self.space.decode(row)) for row in rows]
        defaults = [self.topology.operator(name).default_hint for name in order]
        return ConfigBatch.from_configs(configs, order, defaults)


def default_max_hint(topology: Topology, cluster: ClusterSpec) -> int:
    """Per-operator hint ceiling for the searchable space.

    Sized so a topology-wide setting of the ceiling oversubscribes the
    cluster's cores several times — large enough that skewed operators
    can get the parallelism they need (and over-parallelization is
    reachable, and punishable), small enough that the integer grid
    stays meaningful for the GP.
    """
    per_op = math.ceil(6.0 * cluster.total_cores / len(topology))
    return max(8, min(64, per_op))


class ParallelismCodec(ConfigCodec):
    """One hint per operator plus the max-tasks cap (paper §V-A)."""

    def __init__(
        self,
        topology: Topology,
        cluster: ClusterSpec,
        base_config: TopologyConfig | None = None,
        *,
        max_hint: int | None = None,
        include_max_tasks: bool = True,
    ) -> None:
        self.topology = topology
        self.base_config = base_config or TopologyConfig(
            num_workers=cluster.total_workers
        )
        self.max_hint = max_hint or default_max_hint(topology, cluster)
        self.include_max_tasks = include_max_tasks
        params: list[Parameter] = [
            IntParameter(f"{HINT_PREFIX}{name}", 1, self.max_hint)
            for name in topology.topological_order()
        ]
        if include_max_tasks:
            n_ops = len(topology)
            cap = max(n_ops + 1, cluster.max_total_executors)
            params.append(IntParameter("max_tasks", n_ops, cap))
        self.space = ParameterSpace(params)

    def decode(self, params: Mapping[str, object]) -> TopologyConfig:
        hints = {
            name: int(params[f"{HINT_PREFIX}{name}"])  # type: ignore[arg-type]
            for name in self.topology.topological_order()
        }
        max_tasks = (
            int(params["max_tasks"])  # type: ignore[arg-type]
            if self.include_max_tasks
            else self.base_config.max_tasks
        )
        return self.base_config.replace(
            parallelism_hints=hints, max_tasks=max_tasks
        )

    def decode_batch(self, X: np.ndarray, order: Sequence[str]) -> ConfigBatch:
        columns = self.space.decode_batch(X)
        hints = np.stack([columns[f"{HINT_PREFIX}{name}"] for name in order], axis=1)
        if self.include_max_tasks:
            max_tasks = columns["max_tasks"]
        elif self.base_config.max_tasks is not None:
            max_tasks = np.full(len(hints), self.base_config.max_tasks, dtype=np.int64)
        else:
            max_tasks = None
        return ConfigBatch.broadcast(self.base_config, order, hints, max_tasks)


class UniformHintCodec(ConfigCodec):
    """A single ``uniform_hint`` knob — the pla baseline's view."""

    def __init__(
        self,
        topology: Topology,
        cluster: ClusterSpec,
        base_config: TopologyConfig | None = None,
        *,
        max_hint: int | None = None,
    ) -> None:
        self.topology = topology
        self.base_config = base_config or TopologyConfig(
            num_workers=cluster.total_workers
        )
        self.max_hint = max_hint or default_max_hint(topology, cluster)
        self.space = ParameterSpace([IntParameter("uniform_hint", 1, self.max_hint)])

    def ascent_values(self, max_steps: int = 60) -> list[int]:
        """The pla schedule: hints 1, 2, 3, ... up to the budget."""
        return list(range(1, min(self.max_hint, max_steps) + 1))

    def decode(self, params: Mapping[str, object]) -> TopologyConfig:
        hint = int(params["uniform_hint"])  # type: ignore[arg-type]
        hints = {name: hint for name in self.topology}
        return self.base_config.replace(parallelism_hints=hints, max_tasks=None)


class InformedMultiplierCodec(ConfigCodec):
    """One float multiplier over base parallelism weights (ipla / ibo)."""

    def __init__(
        self,
        topology: Topology,
        cluster: ClusterSpec,
        base_config: TopologyConfig | None = None,
        *,
        max_multiplier: float | None = None,
    ) -> None:
        self.topology = topology
        self.base_config = base_config or TopologyConfig(
            num_workers=cluster.total_workers
        )
        self.informed = InformedParallelismCodec(topology)
        if max_multiplier is None:
            # Reach slightly beyond the executor capacity so the informed
            # ascent can also run into the failure wall.
            cap_tasks = cluster.max_total_executors
            max_multiplier = 1.2 * cap_tasks / self.informed.total_weight
        self.max_multiplier = max(max_multiplier, 10.0 * self.informed.multiplier_step())
        low = min(self.informed.multiplier_step() / 4.0, self.max_multiplier / 100.0)
        self.space = ParameterSpace(
            [FloatParameter("multiplier", low, self.max_multiplier)]
        )

    def ascent_values(self, max_steps: int = 60) -> list[float]:
        """The ipla schedule: multiplier raised by one step per run."""
        step = self.informed.multiplier_step()
        return [step * i for i in range(1, max_steps + 1)]

    def decode(self, params: Mapping[str, object]) -> TopologyConfig:
        multiplier = float(params["multiplier"])  # type: ignore[arg-type]
        hints = self.informed.hints_for(multiplier)
        return self.base_config.replace(parallelism_hints=hints, max_tasks=None)

    def decode_batch(self, X: np.ndarray, order: Sequence[str]) -> ConfigBatch:
        multiplier = self.space.decode_batch(X)["multiplier"]
        if (multiplier <= 0).any():
            raise ValueError("multiplier must be > 0")
        weights = np.array([self.informed.weights[name] for name in order])
        # hints_for's max(1, round(weight * multiplier)); round() and
        # np.rint both round ties to even.
        hints = np.maximum(
            1, np.rint(weights[None, :] * multiplier[:, None])
        ).astype(np.int64)
        return ConfigBatch.broadcast(self.base_config, order, hints, None)


class SundogParameterCodec(ConfigCodec):
    """Figure 8's parameter sets over the Sundog topology.

    ``include`` selects parameter groups:

    * ``"h"`` — per-operator parallelism hints (plus max-tasks),
    * ``"bs"`` / ``"bp"`` — Trident batch size and batch parallelism,
    * ``"cc"`` — concurrency parameters (worker threads, receiver
      threads, ackers).

    Groups not included stay at the ``base_config`` values (the Sundog
    developers' manual settings); for the ``bs bp cc`` experiment the
    paper fixes every hint to the best pla value via ``fixed_hint``.
    """

    def __init__(
        self,
        topology: Topology,
        cluster: ClusterSpec,
        base_config: TopologyConfig,
        *,
        include: Iterable[str] = ("h",),
        fixed_hint: int | None = None,
        max_hint: int | None = None,
        batch_size_bounds: tuple[int, int] = (1_000, 500_000),
        batch_parallelism_bounds: tuple[int, int] = (1, 32),
    ) -> None:
        include_set = set(include)
        unknown = include_set - {"h", "bs", "bp", "cc"}
        if unknown:
            raise ValueError(f"unknown parameter groups: {sorted(unknown)}")
        if not include_set:
            raise ValueError("at least one parameter group required")
        self.topology = topology
        self.base_config = base_config
        self.include = include_set
        self.fixed_hint = fixed_hint
        self.max_hint = max_hint or default_max_hint(topology, cluster)

        params: list[Parameter] = []
        if "h" in include_set:
            params.extend(
                IntParameter(f"{HINT_PREFIX}{name}", 1, self.max_hint)
                for name in topology.topological_order()
            )
            n_ops = len(topology)
            cap = max(n_ops + 1, cluster.max_total_executors)
            params.append(IntParameter("max_tasks", n_ops, cap))
        if "bs" in include_set:
            params.append(
                IntParameter("batch_size", *batch_size_bounds, log=True)
            )
        if "bp" in include_set:
            params.append(IntParameter("batch_parallelism", *batch_parallelism_bounds))
        if "cc" in include_set:
            params.append(IntParameter("worker_threads", 1, 32))
            params.append(IntParameter("receiver_threads", 1, 8))
            params.append(IntParameter("ackers", 1, 4 * cluster.total_workers))
        self.space = ParameterSpace(params)

    def decode(self, params: Mapping[str, object]) -> TopologyConfig:
        config = self.base_config
        if "h" in self.include:
            hints = {
                name: int(params[f"{HINT_PREFIX}{name}"])  # type: ignore[arg-type]
                for name in self.topology.topological_order()
            }
            config = config.replace(
                parallelism_hints=hints,
                max_tasks=int(params["max_tasks"]),  # type: ignore[arg-type]
            )
        elif self.fixed_hint is not None:
            hints = {name: self.fixed_hint for name in self.topology}
            config = config.replace(parallelism_hints=hints, max_tasks=None)
        if "bs" in self.include:
            config = config.replace(batch_size=int(params["batch_size"]))  # type: ignore[arg-type]
        if "bp" in self.include:
            config = config.replace(
                batch_parallelism=int(params["batch_parallelism"])  # type: ignore[arg-type]
            )
        if "cc" in self.include:
            config = config.replace(
                worker_threads=int(params["worker_threads"]),  # type: ignore[arg-type]
                receiver_threads=int(params["receiver_threads"]),  # type: ignore[arg-type]
                ackers=int(params["ackers"]),  # type: ignore[arg-type]
            )
        return config
