"""Local-mode execution: run a topology's real logic, single-process.

Storm ships a "local mode" that runs a topology inside one JVM for
development and testing; this is its counterpart.  Operators carry
actual Python logic (spout functions produce value rows, bolt functions
map an input tuple to zero or more output rows), tuples are routed
through the declared groupings to per-task partitions, and Trident
mini-batch semantics apply: a batch fully passes one operator before
the next operator sees it.

This is *functional* execution — correctness, selectivities, grouping
skew, per-operator tuple accounting — not a performance model; the
analytic and discrete-event engines cover timing.  The two connect
through :meth:`LocalRunResult.measured_selectivities`, which calibrates
a performance-model topology from observed behaviour of real logic
(used by the Sundog example to set the Filter selectivity from actual
text rather than an assumed constant).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np

from repro.storm.grouping import Grouping, load_fractions
from repro.storm.topology import Topology
from repro.storm.tuples import Batch, Tuple

#: A spout source yields value rows (dicts) indefinitely or until
#: exhausted.
SpoutSource = Iterator[Mapping[str, object]]
#: Bolt logic maps one input tuple to zero or more output value rows.
BoltLogic = Callable[[Tuple], Iterable[Mapping[str, object]]]


class BatchAwareBolt:
    """Bolt logic with Trident batch boundaries (aggregators, counters).

    Subclasses override :meth:`process` for per-tuple work and
    :meth:`end_batch` to flush per-batch aggregates — how Trident's
    ``persistentAggregate``-style operators behave.  Instances are also
    plain callables so they fit the :data:`BoltLogic` signature.
    """

    def begin_batch(self, batch_id: int) -> None:  # pragma: no cover - hook
        """Called before the first tuple of each batch."""

    def process(self, item: Tuple) -> Iterable[Mapping[str, object]]:
        """Per-tuple logic; default emits nothing (aggregate-only bolts)."""
        return []

    def end_batch(self) -> Iterable[Mapping[str, object]]:
        """Called after the last tuple of each batch; emits aggregates."""
        return []

    def __call__(self, item: Tuple) -> Iterable[Mapping[str, object]]:
        return self.process(item)


class LocalExecutionError(RuntimeError):
    """Raised when a topology cannot be executed locally."""


@dataclass
class OperatorStats:
    """Per-operator tuple accounting for one local run."""

    received: int = 0
    emitted: int = 0
    per_task_received: list[int] = field(default_factory=list)

    @property
    def selectivity(self) -> float:
        """Observed emitted-per-received ratio (0 when starved)."""
        return self.emitted / self.received if self.received else 0.0


@dataclass
class LocalRunResult:
    """Outcome of running batches through a topology locally."""

    batches: int
    source_tuples: int
    stats: dict[str, OperatorStats]
    #: Tuples *received* by each sink operator (their own emissions go
    #: nowhere by definition — writers write, they do not forward).
    sink_tuples: dict[str, list[Tuple]]

    def measured_selectivities(self) -> dict[str, float]:
        return {name: s.selectivity for name, s in self.stats.items()}


def _default_bolt_logic(selectivity: float) -> BoltLogic:
    """Pass-through logic emitting ``selectivity`` copies in expectation.

    Deterministic: emits ``floor(selectivity)`` copies plus one more on
    a fixed rotation, so long runs converge to the declared value
    without randomness.
    """
    base = int(selectivity)
    fraction = selectivity - base
    counter = {"seen": 0, "extra": 0.0}

    def logic(item: Tuple) -> Iterable[Mapping[str, object]]:
        counter["seen"] += 1
        copies = base
        counter["extra"] += fraction
        if counter["extra"] >= 1.0 - 1e-12:
            counter["extra"] -= 1.0
            copies += 1
        return [dict(item.values) for _ in range(copies)]

    return logic


class LocalTopologyRunner:
    """Execute a topology's logic on real data, batch by batch.

    Parameters
    ----------
    topology:
        The operator DAG; per-operator task counts come from
        ``parallelism_hints`` (default 1 each) and only influence the
        grouping partitions (useful for asserting FIELDS skew).
    sources:
        Spout name → row iterator.  Every spout needs one.
    logic:
        Bolt name → :data:`BoltLogic`.  Missing bolts run declared-
        selectivity pass-through logic.
    """

    def __init__(
        self,
        topology: Topology,
        sources: Mapping[str, SpoutSource],
        logic: Mapping[str, BoltLogic] | None = None,
        *,
        parallelism_hints: Mapping[str, int] | None = None,
        seed: int = 0,
    ) -> None:
        self.topology = topology
        self._sources = dict(sources)
        missing = set(topology.sources()) - set(self._sources)
        if missing:
            raise LocalExecutionError(f"spouts without sources: {sorted(missing)}")
        self._logic: dict[str, BoltLogic] = {}
        logic = dict(logic or {})
        for name in topology.topological_order():
            op = topology.operator(name)
            if op.is_spout:
                continue
            self._logic[name] = logic.pop(name, _default_bolt_logic(op.selectivity))
        if logic:
            raise LocalExecutionError(f"logic for unknown operators: {sorted(logic)}")
        self._hints = {
            name: int((parallelism_hints or {}).get(name, 1))
            for name in topology.topological_order()
        }
        if any(h < 1 for h in self._hints.values()):
            raise LocalExecutionError("parallelism hints must be >= 1")
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------
    def run(self, n_batches: int, batch_size: int) -> LocalRunResult:
        """Pull ``n_batches`` mini-batches through the topology."""
        if n_batches < 1 or batch_size < 1:
            raise ValueError("n_batches and batch_size must be >= 1")
        stats = {
            name: OperatorStats(per_task_received=[0] * self._hints[name])
            for name in self.topology.topological_order()
        }
        sink_tuples: dict[str, list[Tuple]] = {
            name: [] for name in self.topology.sinks()
        }
        source_total = 0
        for batch_id in range(n_batches):
            emitted = self._run_batch(batch_id, batch_size, stats, sink_tuples)
            source_total += emitted
        return LocalRunResult(
            batches=n_batches,
            source_tuples=source_total,
            stats=stats,
            sink_tuples=sink_tuples,
        )

    def _run_batch(
        self,
        batch_id: int,
        batch_size: int,
        stats: dict[str, OperatorStats],
        sink_tuples: dict[str, list[Tuple]],
    ) -> int:
        topo = self.topology
        inboxes: dict[str, Batch] = {
            name: Batch(batch_id=batch_id) for name in topo.topological_order()
        }
        # Spouts share the batch evenly (the engines' modelling choice).
        spouts = topo.sources()
        share = batch_size // len(spouts)
        remainder = batch_size - share * len(spouts)
        source_emitted = 0
        for idx, spout in enumerate(spouts):
            want = share + (1 if idx < remainder else 0)
            source = self._sources[spout]
            for _ in range(want):
                try:
                    row = next(source)
                except StopIteration as exc:
                    raise LocalExecutionError(
                        f"source for spout {spout!r} exhausted"
                    ) from exc
                inboxes[spout].append(
                    Tuple(values=row, source=spout, batch_id=batch_id)
                )
                source_emitted += 1

        for name in topo.topological_order():
            op = topo.operator(name)
            inbox = inboxes[name]
            stat = stats[name]
            outputs: list[Tuple] = []
            if op.is_spout:
                stat.received += len(inbox)
                self._account_tasks(name, inbox, stat)
                outputs = list(inbox)
            else:
                stat.received += len(inbox)
                self._account_tasks(name, inbox, stat)
                logic = self._logic[name]
                if isinstance(logic, BatchAwareBolt):
                    logic.begin_batch(batch_id)
                for item in inbox:
                    for row in logic(item):
                        outputs.append(
                            Tuple(values=row, source=name, batch_id=batch_id)
                        )
                if isinstance(logic, BatchAwareBolt):
                    for row in logic.end_batch():
                        outputs.append(
                            Tuple(values=row, source=name, batch_id=batch_id)
                        )
            stat.emitted += len(outputs)
            children = topo.children(name)
            if not children:
                sink_tuples[name].extend(inbox)
                continue
            # Every subscriber receives all emitted tuples (§III-A).
            for child in children:
                for item in outputs:
                    inboxes[child].append(item)
        return source_emitted

    def _account_tasks(self, name: str, inbox: Batch, stat: OperatorStats) -> None:
        """Distribute received tuples over task partitions per grouping."""
        n_tasks = self._hints[name]
        if n_tasks == 1 or len(inbox) == 0:
            stat.per_task_received[0] += len(inbox)
            return
        parents = self.topology.parents(name)
        grouping = (
            self.topology.edge(parents[0], name).grouping
            if parents
            else Grouping.SHUFFLE
        )
        if grouping is Grouping.FIELDS:
            # Hash the first field so equal keys land on equal tasks.
            for item in inbox:
                first = next(iter(item.values.values()), None)
                task = hash(str(first)) % n_tasks
                stat.per_task_received[task] += 1
        elif grouping is Grouping.GLOBAL:
            stat.per_task_received[0] += len(inbox)
        elif grouping is Grouping.ALL:
            for task in range(n_tasks):
                stat.per_task_received[task] += len(inbox)
        else:  # shuffle: round-robin through a random starting offset
            fractions = load_fractions(grouping, n_tasks)
            counts = np.floor(fractions * len(inbox)).astype(int)
            leftover = len(inbox) - int(counts.sum())
            for i in range(leftover):
                counts[i % n_tasks] += 1
            for task, count in enumerate(counts):
                stat.per_task_received[task] += int(count)


def iterate_rows(rows: Iterable[Mapping[str, object]]) -> SpoutSource:
    """Adapt a finite row collection into a spout source iterator."""
    return iter(list(rows))


def repeating_source(
    make_rows: Callable[[int], Iterable[Mapping[str, object]]],
) -> SpoutSource:
    """A spout source that regenerates rows chunk by chunk, forever."""

    def generate() -> Iterator[Mapping[str, object]]:
        chunk = 0
        while True:
            yield from make_rows(chunk)
            chunk += 1

    return generate()
