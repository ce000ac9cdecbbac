"""The Table I configuration surface of a Storm/Trident deployment.

The paper tunes six kinds of parameters (Table I):

==================  =====================================================
Worker Threads      threads in each worker's executor pool
Receiver Threads    threads each worker starts to receive messages
Ackers              number of acker task instances (bookkeeping)
Batch Parallelism   mini-batches processed concurrently (Trident)
Batch Size          tuples per mini-batch (Trident)
Parallelism Hints   task instances per operator (one value per vertex)
==================  =====================================================

:class:`TopologyConfig` bundles one concrete setting of all of them plus
the ``max_tasks`` cap the paper lets Spearmint choose; hints are
normalized against it exactly as described in §V-A.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.storm.topology import Topology


@dataclass(frozen=True)
class TopologyConfig:
    """One complete configuration of a topology deployment.

    Attributes
    ----------
    parallelism_hints:
        Requested task instances per operator.  Operators missing from
        the mapping fall back to their spec's ``default_hint``.
    max_tasks:
        Upper bound on the *total* number of task instances Storm should
        create.  ``None`` disables normalization.  The paper has the
        optimizer choose this value and rescales hints so their sum does
        not exceed it (§V-A).
    batch_size:
        Tuples ingested per Trident mini-batch.
    batch_parallelism:
        Mini-batches allowed in the processing pipeline concurrently
        (a.k.a. pipeline parallelism, §III-B footnote).
    worker_threads:
        Size of the thread pool available to each worker.
    receiver_threads:
        Message-receive threads started per worker.
    ackers:
        Acker task instances for Storm's at-least-once bookkeeping.
        ``None`` means Storm's default of one acker per worker.
    num_workers:
        Worker processes (one per machine in the paper's deployment).
    """

    parallelism_hints: Mapping[str, int] = field(default_factory=dict)
    max_tasks: int | None = None
    batch_size: int = 1000
    batch_parallelism: int = 1
    worker_threads: int = 8
    receiver_threads: int = 1
    ackers: int | None = None
    num_workers: int = 80

    def __post_init__(self) -> None:
        for name, hint in self.parallelism_hints.items():
            if hint < 1:
                raise ValueError(f"hint for {name!r} must be >= 1, got {hint}")
        if self.max_tasks is not None and self.max_tasks < 1:
            raise ValueError("max_tasks must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.batch_parallelism < 1:
            raise ValueError("batch_parallelism must be >= 1")
        if self.worker_threads < 1:
            raise ValueError("worker_threads must be >= 1")
        if self.receiver_threads < 1:
            raise ValueError("receiver_threads must be >= 1")
        if self.ackers is not None and self.ackers < 0:
            raise ValueError("ackers must be >= 0")
        if self.num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        # Freeze the mapping so the dataclass is safely hashable-by-value.
        object.__setattr__(self, "parallelism_hints", dict(self.parallelism_hints))

    # ------------------------------------------------------------------
    # Hints
    # ------------------------------------------------------------------
    def raw_hint(self, topology: Topology, name: str) -> int:
        hint = self.parallelism_hints.get(name)
        if hint is None:
            hint = topology.operator(name).default_hint
        return int(hint)

    def normalized_hints(self, topology: Topology) -> dict[str, int]:
        """Task counts per operator after max-tasks normalization.

        If the hint sum exceeds ``max_tasks``, hints are scaled down
        proportionally, with a floor of one task per operator (Storm
        never instantiates zero tasks for a component).
        """
        hints = {name: self.raw_hint(topology, name) for name in topology}
        if self.max_tasks is None:
            return hints
        total = sum(hints.values())
        if total <= self.max_tasks:
            return hints
        scale = self.max_tasks / total
        return {name: max(1, round(hint * scale)) for name, hint in hints.items()}

    def total_tasks(self, topology: Topology) -> int:
        return sum(self.normalized_hints(topology).values())

    def effective_ackers(self) -> int:
        """Acker count with Storm's one-per-worker default applied."""
        return self.num_workers if self.ackers is None else self.ackers

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def uniform(
        cls, topology: Topology, hint: int, **overrides: object
    ) -> "TopologyConfig":
        """All operators share one hint — the parallel-linear-ascent shape."""
        hints = {name: hint for name in topology}
        return cls(parallelism_hints=hints, **overrides)  # type: ignore[arg-type]

    def with_hints(self, hints: Mapping[str, int]) -> "TopologyConfig":
        merged = dict(self.parallelism_hints)
        merged.update(hints)
        return self.replace(parallelism_hints=merged)

    def replace(self, **changes: object) -> "TopologyConfig":
        from dataclasses import replace as dc_replace

        return dc_replace(self, **changes)  # type: ignore[arg-type]

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def as_dict(self) -> dict[str, object]:
        return {
            "parallelism_hints": dict(self.parallelism_hints),
            "max_tasks": self.max_tasks,
            "batch_size": self.batch_size,
            "batch_parallelism": self.batch_parallelism,
            "worker_threads": self.worker_threads,
            "receiver_threads": self.receiver_threads,
            "ackers": self.ackers,
            "num_workers": self.num_workers,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "TopologyConfig":
        return cls(**data)  # type: ignore[arg-type]


#: One C-level attrgetter call per config instead of four attribute
#: probes from Python (see :meth:`ConfigBatch.from_configs`).
_CONFIG_SCALARS = operator.attrgetter(
    "batch_size", "batch_parallelism", "worker_threads", "receiver_threads"
)


@dataclass(frozen=True, eq=False)
class ConfigBatch:
    """N configurations of one topology as the batch engine's arrays.

    Row ``i`` holds what :class:`TopologyConfig` ``i`` contributes to a
    deployment: ``hints[i, j]`` is the raw hint of operator ``order[j]``
    (defaults filled in), ``max_tasks[i]`` its cap where ``has_cap[i]``,
    and ``n_ackers[i]`` its :meth:`TopologyConfig.effective_ackers`.
    Codecs build one straight from a unit-cube matrix
    (:meth:`repro.storm.spaces.ConfigCodec.decode_batch`) without a
    per-row ``TopologyConfig``; construction runs the same domain checks
    as ``TopologyConfig`` and raises the same ``ValueError`` for the
    first offending row.
    """

    order: tuple[str, ...]
    hints: np.ndarray
    max_tasks: np.ndarray
    has_cap: np.ndarray
    batch_size: np.ndarray
    batch_parallelism: np.ndarray
    worker_threads: np.ndarray
    receiver_threads: np.ndarray
    n_ackers: np.ndarray

    def __post_init__(self) -> None:
        n, d = self.hints.shape
        if d != len(self.order):
            raise ValueError(f"hints have {d} columns for {len(self.order)} operators")
        for name in (
            "max_tasks", "has_cap", "batch_size", "batch_parallelism",
            "worker_threads", "receiver_threads", "n_ackers",
        ):
            if getattr(self, name).shape != (n,):
                raise ValueError(f"{name} must have shape ({n},)")
        # TopologyConfig.__post_init__'s checks, in its order.
        checks = (
            (self.hints < 1).any(axis=1),
            self.has_cap & (self.max_tasks < 1),
            self.batch_size < 1,
            self.batch_parallelism < 1,
            self.worker_threads < 1,
            self.receiver_threads < 1,
            self.n_ackers < 0,
        )
        bad = np.logical_or.reduce(checks)
        if bad.any():
            self._raise_for_row(int(np.argmax(bad)))

    def _raise_for_row(self, i: int) -> None:
        for j, name in enumerate(self.order):
            hint = int(self.hints[i, j])
            if hint < 1:
                raise ValueError(f"hint for {name!r} must be >= 1, got {hint}")
        if self.has_cap[i] and self.max_tasks[i] < 1:
            raise ValueError("max_tasks must be >= 1")
        if self.batch_size[i] < 1:
            raise ValueError("batch_size must be >= 1")
        if self.batch_parallelism[i] < 1:
            raise ValueError("batch_parallelism must be >= 1")
        if self.worker_threads[i] < 1:
            raise ValueError("worker_threads must be >= 1")
        if self.receiver_threads[i] < 1:
            raise ValueError("receiver_threads must be >= 1")
        raise ValueError("ackers must be >= 0")

    def __len__(self) -> int:
        return int(self.hints.shape[0])

    @classmethod
    def broadcast(
        cls,
        base: TopologyConfig,
        order: Sequence[str],
        hints: np.ndarray,
        max_tasks: np.ndarray | None,
    ) -> "ConfigBatch":
        """``base.replace(parallelism_hints=..., max_tasks=...)`` per row.

        ``hints`` is the full ``(N, D)`` hint matrix in ``order``;
        ``max_tasks`` is a per-row cap vector, or ``None`` for no cap.
        Every other field is ``base``'s, repeated.
        """
        n = hints.shape[0]

        def full(value: int) -> np.ndarray:
            return np.full(n, value, dtype=np.int64)

        return cls(
            order=tuple(order),
            hints=hints,
            max_tasks=full(0) if max_tasks is None else max_tasks,
            has_cap=np.full(n, max_tasks is not None, dtype=bool),
            batch_size=full(base.batch_size),
            batch_parallelism=full(base.batch_parallelism),
            worker_threads=full(base.worker_threads),
            receiver_threads=full(base.receiver_threads),
            n_ackers=full(base.effective_ackers()),
        )

    @classmethod
    def from_configs(
        cls,
        configs: Sequence[TopologyConfig],
        order: Sequence[str],
        default_hints: Sequence[int],
    ) -> "ConfigBatch":
        """Config list -> raw hint matrix + per-config scalar vectors."""
        configs = list(configs)
        order = tuple(order)
        n = len(configs)
        d = len(order)
        # Fast path: configs usually hint every operator, so one
        # C-level itemgetter call per row beats d dict.get calls.
        hints = None
        if d > 1:
            get_hints = operator.itemgetter(*order)
            try:
                hints = np.array(
                    [get_hints(c.parallelism_hints) for c in configs],
                    dtype=np.int64,
                ).reshape(n, d)
            except (KeyError, TypeError, ValueError):
                hints = None
        if hints is None:
            hints = np.empty((n, d), dtype=np.int64)
            for i, config in enumerate(configs):
                ph = config.parallelism_hints
                row = hints[i]
                for j, name in enumerate(order):
                    hint = ph.get(name)
                    row[j] = default_hints[j] if hint is None else hint
        scalars = np.array(
            [_CONFIG_SCALARS(c) for c in configs], dtype=np.int64
        ).reshape(n, 4)
        raw_caps = [c.max_tasks for c in configs]
        has_cap = np.array([cap is not None for cap in raw_caps], dtype=bool)
        max_tasks = np.array(
            [0 if cap is None else cap for cap in raw_caps], dtype=np.int64
        )
        n_ackers = np.fromiter(
            (c.effective_ackers() for c in configs), dtype=np.int64, count=n
        )
        return cls(
            order=order,
            hints=hints,
            max_tasks=max_tasks,
            has_cap=has_cap,
            batch_size=scalars[:, 0],
            batch_parallelism=scalars[:, 1],
            worker_threads=scalars[:, 2],
            receiver_threads=scalars[:, 3],
            n_ackers=n_ackers,
        )


#: Human-readable catalogue of the Table I parameters, used by the
#: Table I benchmark and the documentation.
TABLE1_PARAMETERS: tuple[tuple[str, str], ...] = (
    ("Worker Threads", "Number of threads per worker"),
    ("Receiver Threads", "Number of receiver threads per worker"),
    ("Ackers", "Number of acker tasks"),
    ("Batch Parallelism", "Number of batches being processed in parallel"),
    ("Batch Size", "Number of tuples in each batch"),
    ("Parallelism Hints", "Number of task instances to create for operators"),
)
