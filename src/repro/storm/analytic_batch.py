"""Vectorized batch evaluation of the analytic performance model.

:class:`AnalyticBatchModel` evaluates N configurations of one topology
in a single NumPy pass: all topology-dependent structures (operator
order, layer map, grouping-skew tables, network demand coefficients)
are precomputed once in ``__init__``, and ``evaluate`` takes a
:class:`~repro.storm.config.ConfigBatch` (an ``(N, D)`` hint matrix plus
per-config scalar vectors, decoded straight from a unit-cube matrix or
built from a list of :class:`~repro.storm.config.TopologyConfig`), then
computes the per-operator effective-cost matrix, efficiency/parallelism
vectors, the six capacity caps, and the bottleneck argmax for every row
at once.

Bit-compatibility contract
--------------------------
The result is **bit-identical** to calling
:meth:`repro.storm.analytic.AnalyticPerformanceModel.evaluate_noise_free`
per config (property-tested in ``tests/test_analytic_batch.py``).  That
only holds because every arithmetic expression here mirrors the scalar
engine's *operation order* exactly — IEEE-754 float arithmetic is
neither associative nor distributive, so the vectorization axis is the
config axis (N) while operators, layers, edges and sources are still
accumulated sequentially in the scalar engine's iteration order.  When
editing either engine, change both in lockstep; the equivalence test
will catch any drift.

Two deliberate non-vectorizations keep this exact:

* ``effective_parallelism(g, n)`` computes ``1.0 / fractions.max()``,
  and ``1/(1/n) != n`` in floats — so skew factors come from small
  per-grouping lookup tables built by calling the scalar function once
  per distinct task count, then gathered with ``np.take``.
* hint normalization uses ``np.rint`` (ties-to-even), the same rounding
  as Python's ``round`` in the scalar path.
"""

from __future__ import annotations

import math
import threading
import time
from collections import OrderedDict
from typing import Callable, Sequence

import numpy as np

from repro.obs import runtime as obs_runtime
from repro.storm.acker import AckerModel
from repro.storm.analytic import CalibrationParams, CapacityBreakdown
from repro.storm.cluster import ClusterSpec
from repro.storm.config import ConfigBatch, TopologyConfig
from repro.storm.grouping import Grouping, effective_parallelism, remote_fraction
from repro.storm.metrics import MeasuredRun
from repro.storm.schedule import WorkloadPoint, WorkloadSchedule
from repro.storm.topology import Topology

#: Cap names in :class:`CapacityBreakdown` insertion order — ``argmin``
#: over rows stacked in this order picks the same cap as the scalar
#: ``min(caps, key=...)`` (both take the first minimum on ties).
CAP_NAMES = (
    "pipeline_fill",
    "bottleneck_stage",
    "cpu_saturation",
    "acker",
    "receiver",
    "nic",
)


class BatchEvaluation:
    """Result of one vectorized pass over N configurations.

    Exposes the headline vectors directly (``throughput_tps``,
    ``failed``, ``limiting_cap``, ``bottleneck`` ...) for consumers that
    only need scores — candidate screening, sensitivity sweeps — and
    materializes full per-row :class:`MeasuredRun` objects on demand via
    :meth:`run` / :meth:`runs` for consumers that need the scalar
    engine's exact output (details dict included).
    """

    def __init__(
        self,
        *,
        order: tuple[str, ...],
        throughput_tps: np.ndarray,
        failed_capacity: np.ndarray,
        failed_latency: np.ndarray,
        failed_memory: np.ndarray,
        latency_ms: np.ndarray,
        network_mb_per_worker_s: np.ndarray,
        total_tasks: np.ndarray,
        total_executors: np.ndarray,
        total_work_ms: np.ndarray,
        eta: np.ndarray,
        caps: np.ndarray,
        limiting_idx: np.ndarray,
        bottleneck_idx: np.ndarray,
        stage_times_ms: np.ndarray,
        task_mb: np.ndarray,
        data_mb: np.ndarray,
        memory_budget_mb: float,
        max_total_executors: int,
        batch_timeout_ms: float,
    ) -> None:
        self._order = order
        self.throughput_tps = throughput_tps
        self.failed_capacity = failed_capacity
        self.failed_latency = failed_latency
        self.failed_memory = failed_memory
        self.failed = failed_capacity | failed_latency | failed_memory
        self.latency_ms = latency_ms
        self.network_mb_per_worker_s = network_mb_per_worker_s
        self.total_tasks = total_tasks
        self.total_executors = total_executors
        self.total_work_ms = total_work_ms
        self.eta = eta
        self.caps = caps
        self.limiting_idx = limiting_idx
        self.bottleneck_idx = bottleneck_idx
        self.stage_times_ms = stage_times_ms
        self._task_mb = task_mb
        self._data_mb = data_mb
        self._memory_budget_mb = memory_budget_mb
        self._max_total_executors = max_total_executors
        self._batch_timeout_ms = batch_timeout_ms

    def __len__(self) -> int:
        return int(self.throughput_tps.shape[0])

    @property
    def limiting_cap(self) -> list[str]:
        """Binding cap name per row ('' for failed rows)."""
        return [
            "" if self.failed[i] else CAP_NAMES[int(self.limiting_idx[i])]
            for i in range(len(self))
        ]

    @property
    def bottleneck(self) -> list[str]:
        """Slowest-stage operator name per row ('' for failed rows)."""
        return [
            "" if self.failed[i] else self._order[int(self.bottleneck_idx[i])]
            for i in range(len(self))
        ]

    def failure_reason(self, i: int) -> str:
        """The scalar engine's failure message for row ``i`` ('' if ok)."""
        if self.failed_capacity[i]:
            return (
                f"{int(self.total_executors[i])} executors exceed cluster "
                f"capacity {self._max_total_executors}"
            )
        if self.failed_latency[i]:
            return (
                f"batch latency {float(self.latency_ms[i]):.0f} ms exceeds "
                f"the {self._batch_timeout_ms:.0f} ms message timeout "
                "(batches replay forever)"
            )
        if self.failed_memory[i]:
            return (
                f"memory exhausted: {float(self._task_mb[i]):.0f} MB task "
                f"overhead + {float(self._data_mb[i]):.0f} MB in-flight "
                f"data > {self._memory_budget_mb:.0f} MB budget"
            )
        return ""

    def run(self, i: int) -> MeasuredRun:
        """Materialize row ``i`` as the scalar engine's ``MeasuredRun``."""
        total_tasks = int(self.total_tasks[i])
        if self.failed[i]:
            return MeasuredRun.failure(self.failure_reason(i), total_tasks=total_tasks)
        caps = CapacityBreakdown(
            pipeline_fill=float(self.caps[0, i]),
            bottleneck_stage=float(self.caps[1, i]),
            cpu_saturation=float(self.caps[2, i]),
            acker=float(self.caps[3, i]),
            receiver=float(self.caps[4, i]),
            nic=float(self.caps[5, i]),
        )
        stage_times = {
            name: float(self.stage_times_ms[d, i])
            for d, name in enumerate(self._order)
        }
        return MeasuredRun(
            throughput_tps=float(self.throughput_tps[i]),
            network_mb_per_worker_s=float(self.network_mb_per_worker_s[i]),
            batch_latency_ms=float(self.latency_ms[i]),
            total_tasks=total_tasks,
            details={
                "caps": caps,
                "limiting_cap": CAP_NAMES[int(self.limiting_idx[i])],
                "eta": float(self.eta[i]),
                "stage_times_ms": stage_times,
                "total_work_ms": float(self.total_work_ms[i]),
                "total_executors": int(self.total_executors[i]),
            },
        )

    def runs(self) -> list[MeasuredRun]:
        return [self.run(i) for i in range(len(self))]


class AnalyticBatchModel:
    """Evaluate an ``(N, D)`` configuration matrix in one NumPy pass."""

    def __init__(
        self,
        topology: Topology,
        cluster: ClusterSpec,
        calibration: CalibrationParams | None = None,
        schedule: WorkloadSchedule | None = None,
    ) -> None:
        self.topology = topology
        self.cluster = cluster
        self.calibration = calibration or CalibrationParams()
        self.schedule = schedule
        cal = self.calibration

        # --- topology-dependent structures, computed once -------------
        self._order: tuple[str, ...] = tuple(topology.topological_order())
        self._index = {name: d for d, name in enumerate(self._order)}
        volumes = topology.volumes()
        self._volumes = [float(volumes[name]) for name in self._order]
        ops = [topology.operator(name) for name in self._order]
        self._costs = [float(op.cost) for op in ops]
        self._contentious = [bool(op.contentious) for op in ops]
        self._default_hints = [int(op.default_hint) for op in ops]
        # Layer map: operators grouped by layer, layers visited in the
        # scalar engine's first-occurrence order.  Because a layer-k
        # operator always has a layer-(k-1) predecessor earlier in the
        # topological order, first occurrence is simply ascending layer.
        layer_of = {name: topology.layer_of(name) for name in self._order}
        n_layers = max(layer_of.values()) + 1 if self._order else 0
        self._layer_members: list[list[int]] = [[] for _ in range(n_layers)]
        for d, name in enumerate(self._order):
            self._layer_members[layer_of[name]].append(d)
        # Incoming groupings per operator (skew-bounded parallelism).
        self._op_groupings: list[list[Grouping]] = [
            [topology.edge(p, name).grouping for p in topology.parents(name)]
            for name in self._order
        ]
        # Column views for the matrix pass: per-operator constant rows,
        # the columns with no incoming grouping, and — per distinct
        # grouping — the columns it bounds (one table gather each).
        self._cost_row = np.asarray(self._costs, dtype=np.float64)
        self._volume_row = np.asarray(self._volumes, dtype=np.float64)
        self._contentious_row = np.asarray(self._contentious, dtype=bool)
        self._no_grouping_cols = np.asarray(
            [j for j, gs in enumerate(self._op_groupings) if not gs],
            dtype=np.intp,
        )
        # Complement: operators fed by at least one grouped stream —
        # the columns a workload point's skew shaves.
        self._grouped_cols = np.asarray(
            [j for j, gs in enumerate(self._op_groupings) if gs],
            dtype=np.intp,
        )
        grouped: dict[Grouping, list[int]] = {}
        for j, gs in enumerate(self._op_groupings):
            for grouping in dict.fromkeys(gs):
                grouped.setdefault(grouping, []).append(j)
        self._grouping_cols = [
            (grouping, np.asarray(cols, dtype=np.intp))
            for grouping, cols in grouped.items()
        ]
        # Network demand coefficients as (E, 1) columns, unreduced to
        # preserve the scalar engine's multiply order (see module
        # docstring); broadcasting against (1, N) batches keeps the
        # per-edge expression shape.
        edge_terms = [
            (
                float(volumes[edge.src]),
                float(topology.operator(edge.src).selectivity),
                float(remote_fraction(edge.grouping, cluster.n_machines)),
                float(topology.operator(edge.src).tuple_bytes),
            )
            for edge in topology.edges
        ]
        edge_matrix = np.asarray(edge_terms, dtype=np.float64).reshape(-1, 4)
        self._edge_vol = edge_matrix[:, 0:1]
        self._edge_sel = edge_matrix[:, 1:2]
        self._edge_frac = edge_matrix[:, 2:3]
        self._edge_bytes = edge_matrix[:, 3:4]
        ingest_terms = [
            (float(volumes[s]), float(topology.operator(s).tuple_bytes))
            for s in topology.sources()
        ]
        ingest_matrix = np.asarray(ingest_terms, dtype=np.float64).reshape(-1, 2)
        self._ingest_vol = ingest_matrix[:, 0:1]
        self._ingest_bytes = ingest_matrix[:, 1:2]
        self._inflight_bytes_per_batch_unit = sum(
            volumes[name] * topology.operator(name).tuple_bytes
            for name in self._order
        )
        self._ack_demand_units = AckerModel(
            ack_cost_units=cal.ack_cost_units
        ).demand_units_per_source_tuple(topology)
        # Grouping-skew lookup tables, grown lazily: table[g][n] is the
        # scalar effective_parallelism(g, n); index 0 is unused.
        self._par_tables: dict[Grouping, np.ndarray] = {}
        #: How many times a lookup table was (re)built — regression
        #: telemetry for the screener-reuse fix (tables grow
        #: geometrically, so this stays O(log n_max), not O(rounds)).
        self.table_constructions = 0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    @property
    def order(self) -> tuple[str, ...]:
        """Operator order of the hint columns a :class:`ConfigBatch` needs."""
        return self._order

    def evaluate(
        self,
        configs: ConfigBatch | Sequence[TopologyConfig],
        *,
        workload_time_s: float = 0.0,
    ) -> BatchEvaluation:
        """Vectorized noise-free mechanics for all ``configs`` at once.

        ``configs`` is a :class:`ConfigBatch` laid out in :attr:`order`
        or a sequence of :class:`TopologyConfig` (converted with
        :meth:`ConfigBatch.from_configs`).  ``workload_time_s`` samples
        the model's :class:`~repro.storm.schedule.WorkloadSchedule` (if
        any) at that offset; all N rows see the same workload point,
        mirroring the scalar engine evaluated N times at the same
        instant.
        """
        ctx = obs_runtime.current()
        started = time.perf_counter()
        point = (
            self.schedule.at(workload_time_s) if self.schedule is not None else None
        )
        with ctx.tracer.span(
            "engine.analytic.evaluate_batch", n_configs=len(configs)
        ) as span:
            if isinstance(configs, ConfigBatch):
                if configs.order != self._order:
                    raise ValueError(
                        "ConfigBatch operator order does not match the topology"
                    )
                batch = configs
            else:
                batch = ConfigBatch.from_configs(
                    configs, self._order, self._default_hints
                )
            result = self._mechanics(batch, point)
            span.set_attribute("n_failed", int(result.failed.sum()))
        seconds = time.perf_counter() - started
        ctx.metrics.histogram("engine.batch_size").record(float(len(configs)))
        ctx.metrics.histogram("engine.batch_seconds").record(seconds)
        return result

    def throughputs(
        self,
        configs: ConfigBatch | Sequence[TopologyConfig],
        *,
        workload_time_s: float = 0.0,
    ) -> np.ndarray:
        """Shorthand: the throughput vector (0.0 for infeasible rows)."""
        return self.evaluate(
            configs, workload_time_s=workload_time_s
        ).throughput_tps

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _table(self, grouping: Grouping, n_max: int) -> np.ndarray:
        table = self._par_tables.get(grouping)
        if table is None or table.shape[0] <= n_max:
            # Grow geometrically: a hint ceiling that creeps upward one
            # step per ask round must not rebuild the table every call.
            # Entries are pure functions of n, so regrowing is exact.
            size = n_max
            if table is not None:
                size = max(size, 2 * (table.shape[0] - 1))
            values = [math.nan]
            values.extend(
                effective_parallelism(grouping, n) for n in range(1, size + 1)
            )
            table = np.asarray(values, dtype=np.float64)
            self._par_tables[grouping] = table
            self.table_constructions += 1
        return table

    def _normalize_hints(
        self, hints: np.ndarray, max_tasks: np.ndarray, has_cap: np.ndarray
    ) -> np.ndarray:
        """Vectorized ``TopologyConfig.normalized_hints``.

        ``max(1, round(hint * scale))`` with Python's banker's rounding
        == ``np.maximum(1, np.rint(hint * scale))``.
        """
        totals = hints.sum(axis=1)
        need = has_cap & (totals > max_tasks)
        if not bool(need.any()):
            return hints
        scale = max_tasks[need] / totals[need]
        scaled = np.maximum(
            1, np.rint(hints[need] * scale[:, None])
        ).astype(np.int64)
        out = hints.copy()
        out[need] = scaled
        return out

    def _mechanics(
        self,
        batch: ConfigBatch,
        point: WorkloadPoint | None = None,
    ) -> BatchEvaluation:
        cal = self.calibration
        cluster = self.cluster
        machine = cluster.machine
        n = len(batch)
        d = len(self._order)
        if n == 0:
            empty = np.empty(0)
            empty_bool = np.empty(0, dtype=bool)
            empty_int = np.empty(0, dtype=np.int64)
            return BatchEvaluation(
                order=self._order,
                throughput_tps=empty,
                failed_capacity=empty_bool,
                failed_latency=empty_bool,
                failed_memory=empty_bool,
                latency_ms=empty,
                network_mb_per_worker_s=empty,
                total_tasks=empty_int,
                total_executors=empty_int,
                total_work_ms=empty,
                eta=empty,
                caps=np.empty((6, 0)),
                limiting_idx=empty_int,
                bottleneck_idx=empty_int,
                stage_times_ms=np.empty((d, 0)),
                task_mb=empty,
                data_mb=empty,
                memory_budget_mb=machine.memory_mb * cal.usable_memory_fraction,
                max_total_executors=cluster.max_total_executors,
                batch_timeout_ms=cal.batch_timeout_ms,
            )

        batch_size = batch.batch_size
        batch_parallelism = batch.batch_parallelism
        worker_threads = batch.worker_threads
        receiver_threads = batch.receiver_threads
        n_ackers = batch.n_ackers
        hints = self._normalize_hints(batch.hints, batch.max_tasks, batch.has_cap)

        total_tasks = hints.sum(axis=1)
        total_executors = total_tasks + n_ackers
        failed_capacity = total_executors > cluster.max_total_executors

        n_machines = cluster.n_machines
        cores = machine.cores
        core_speed = machine.core_speed

        # _efficiency, vectorized with identical expression shape.
        per_worker = (
            receiver_threads
            + 2.0
            + cal.pool_oversubscription_weight
            * np.maximum(0, worker_threads - cores)
        )
        threads_per_machine = (
            total_executors / n_machines
            + per_worker * cluster.workers_per_machine
        )
        excess = np.maximum(0.0, (threads_per_machine - cores) / cores)
        cs_efficiency = 1.0 / (1.0 + cal.context_switch_kappa * excess**2)
        overhead_share = np.minimum(
            0.95,
            cal.per_task_cpu_overhead
            * total_executors
            / cluster.total_compute_rate,
        )
        eta = cs_efficiency * (1.0 - overhead_share)

        usable_cores = np.minimum(
            cores, worker_threads * cluster.workers_per_machine
        )
        cluster_rate = usable_cores * n_machines * core_speed * eta

        B = batch_size.astype(np.float64)
        P = batch_parallelism.astype(np.float64)

        # Per-operator stage times as one (N, D) matrix pass.  Every
        # elementwise expression keeps the scalar engine's shape, and
        # the operator-order work sum uses np.cumsum — a strict
        # left-to-right scan, bit-identical to the scalar accumulation
        # (np.sum's pairwise reduction is NOT).
        n_max = int(hints.max()) if hints.size else 1
        machine_cores = usable_cores * n_machines  # int64 vector
        machine_cores_f = machine_cores.astype(np.float64)
        stage_overhead = cal.stage_overhead_ms
        hints_f = hints.astype(np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            cost_matrix = np.where(
                self._contentious_row, self._cost_row * hints_f, self._cost_row
            )
            if point is not None:
                # Scalar path: cost = effective_cost(...) * point.load.
                cost_matrix = cost_matrix * point.load
            work = (B[:, None] * self._volume_row) * cost_matrix
            total_work = np.cumsum(work, axis=1)[:, -1]

            # Skew-bounded parallelism: one table gather per distinct
            # grouping; min over a column's incoming groupings (and the
            # machine-core ceiling) is order-independent, so the
            # gather-then-minimum order matches the scalar loop exactly.
            parallelism = np.full((n, d), np.inf)
            no_group = self._no_grouping_cols
            if no_group.size:
                parallelism[:, no_group] = hints_f[:, no_group]
            for grouping, cols in self._grouping_cols:
                bound = self._table(grouping, n_max).take(hints[:, cols])
                np.minimum(parallelism[:, cols], bound, out=bound)
                parallelism[:, cols] = bound
            if (
                point is not None
                and point.skew != 0.0
                and self._grouped_cols.size
            ):
                # Scalar path: parallelism *= (1.0 - point.skew) for
                # operators with incoming groupings, before the
                # machine-core clamp.
                skew_factor = 1.0 - point.skew
                parallelism[:, self._grouped_cols] = (
                    parallelism[:, self._grouped_cols] * skew_factor
                )
            # min(parallelism, usable_cores * n_machines): Python's
            # min may return the int, but the downstream float
            # arithmetic is value-identical either way.
            np.minimum(parallelism, machine_cores_f[:, None], out=parallelism)
            rate = np.maximum(parallelism, 1e-12) * core_speed * eta[:, None]
            compute_time = np.where(work > 0, work / rate, 0.0)
            stage_times = np.ascontiguousarray((compute_time + stage_overhead).T)

            ack_work = B * self._ack_demand_units
            total_work = total_work + ack_work

            # Layer times and batch latency: max within a layer, summed
            # across layers in ascending-layer (= first-occurrence) order.
            sum_layer_times = np.zeros(n, dtype=np.float64)
            for members in self._layer_members:
                if len(members) == 1:
                    layer_time = stage_times[members[0]]
                else:
                    layer_time = np.maximum.reduce(stage_times[members])
                sum_layer_times = sum_layer_times + layer_time
            t_max = np.maximum.reduce(stage_times, axis=0)
            latency = sum_layer_times + cal.batch_overhead_ms
            failed_latency = ~failed_capacity & (latency > cal.batch_timeout_ms)

            # The six caps (source tuples/s), batches_to_tps inlined as
            # ((rate * B) * 1000.0) to match the scalar helper.
            inf = np.inf
            cap_pipeline = np.where(latency > 0, P / latency * B * 1000.0, inf)
            cap_stage = np.where(t_max > 0, 1.0 / t_max * B * 1000.0, inf)
            cap_cpu = np.where(
                total_work > 0, cluster_rate / total_work * B * 1000.0, inf
            )
            if self._ack_demand_units <= 0:
                cap_acker = np.full(n, inf)
            else:
                # n_ackers * (core_speed * eta): the scalar path passes
                # core_speed * eta as one argument, so it multiplies first.
                acker_speed = core_speed * eta
                cap_acker = np.where(
                    n_ackers == 0,
                    inf,
                    n_ackers * acker_speed * 1000.0 / self._ack_demand_units,
                )

            # Per-edge/per-source terms as (E, N) matrices; the edge-order
            # sums are again strict sequential scans via np.cumsum.
            wire = 1.0 + cal.wire_overhead
            if self._edge_vol.size:
                emitted = (B[None, :] * self._edge_vol) * self._edge_sel
                remote = emitted * self._edge_frac
                remote_tuples = np.cumsum(remote, axis=0)[-1]
                remote_bytes = np.cumsum(
                    (remote * self._edge_bytes) * wire, axis=0
                )[-1]
            else:
                remote_tuples = np.zeros(n, dtype=np.float64)
                remote_bytes = np.zeros(n, dtype=np.float64)
            if self._ingest_vol.size:
                ingest_bytes = np.cumsum(
                    ((B[None, :] * self._ingest_vol) * self._ingest_bytes) * wire,
                    axis=0,
                )[-1]
            else:
                ingest_bytes = np.zeros(n, dtype=np.float64)
            if point is not None:
                # Load scales tuple *weight*, not tuple count: byte
                # totals grow, remote_tuples (receiver cap) does not.
                remote_bytes = remote_bytes * point.load
                ingest_bytes = ingest_bytes * point.load

            rec_per_worker = remote_tuples / cluster.total_workers
            rec_capacity = receiver_threads * cal.receiver_tuples_per_ms
            cap_receiver = np.where(
                remote_tuples > 0,
                rec_capacity / rec_per_worker * B * 1000.0,
                inf,
            )
            bytes_per_batch = remote_bytes + ingest_bytes
            nic_per_machine = bytes_per_batch / n_machines
            cap_nic = np.where(
                bytes_per_batch > 0,
                machine.nic_bytes_per_ms / nic_per_machine * B * 1000.0,
                inf,
            )

            caps = np.stack(
                [cap_pipeline, cap_stage, cap_cpu, cap_acker, cap_receiver, cap_nic]
            )
            limiting_idx = np.argmin(caps, axis=0)
            throughput = caps[limiting_idx, np.arange(n)]

            # Memory feasibility.
            executors_per_machine = total_executors / n_machines
            task_mb = executors_per_machine * cal.per_task_memory_mb
            inflight_bytes = B * P * self._inflight_bytes_per_batch_unit
            if point is not None:
                inflight_bytes = inflight_bytes * point.load
            data_mb = inflight_bytes / n_machines / 1e6
            budget = machine.memory_mb * cal.usable_memory_fraction
            failed_memory = (
                ~failed_capacity
                & ~failed_latency
                & (task_mb + data_mb > budget)
            )

            failed = failed_capacity | failed_latency | failed_memory
            throughput = np.where(failed, 0.0, throughput)

            batches_per_ms = np.where(B > 0, throughput / (B * 1000.0), 0.0)
            network_bytes_per_ms = batches_per_ms * (remote_bytes + ingest_bytes)
            network_mb = (
                network_bytes_per_ms * 1000.0 / 1e6 / cluster.total_workers
            )
            network_mb = np.where(failed, 0.0, network_mb)
            latency_out = np.where(failed, 0.0, latency)

        bottleneck_idx = np.argmax(stage_times, axis=0)

        return BatchEvaluation(
            order=self._order,
            throughput_tps=throughput,
            failed_capacity=failed_capacity,
            failed_latency=failed_latency,
            failed_memory=failed_memory,
            latency_ms=np.where(failed_latency, latency, latency_out),
            network_mb_per_worker_s=network_mb,
            total_tasks=total_tasks,
            total_executors=total_executors,
            total_work_ms=total_work,
            eta=eta,
            caps=caps,
            limiting_idx=limiting_idx,
            bottleneck_idx=bottleneck_idx,
            stage_times_ms=stage_times,
            task_mb=task_mb,
            data_mb=data_mb,
            memory_budget_mb=budget,
            max_total_executors=cluster.max_total_executors,
            batch_timeout_ms=cal.batch_timeout_ms,
        )


#: Screener model reuse: optimizer factories build a fresh screener per
#: pass, but the (topology, cluster, calibration) triple — and hence the
#: batch model with its grouping tables — is identical across passes and
#: ask rounds.  A small LRU keyed by object identity (entries hold
#: strong references, so the ids stay valid while cached) hands every
#: screener for the same deployment the same shared model.
_SCREENER_CACHE_SIZE = 32
_screener_lock = threading.Lock()
_screener_models: OrderedDict[
    tuple[int, int],
    tuple[Topology, ClusterSpec, CalibrationParams | None, AnalyticBatchModel],
] = OrderedDict()


def _screener_model(
    topology: Topology,
    cluster: ClusterSpec,
    calibration: CalibrationParams | None,
) -> AnalyticBatchModel:
    key = (id(topology), id(cluster))
    with _screener_lock:
        entry = _screener_models.get(key)
        if entry is not None:
            cached_topo, cached_cluster, cached_cal, model = entry
            if (
                cached_topo is topology
                and cached_cluster is cluster
                and cached_cal == calibration
            ):
                _screener_models.move_to_end(key)
                return model
        model = AnalyticBatchModel(topology, cluster, calibration)
        _screener_models[key] = (topology, cluster, calibration, model)
        _screener_models.move_to_end(key)
        while len(_screener_models) > _SCREENER_CACHE_SIZE:
            _screener_models.popitem(last=False)
        return model


def make_analytic_screener(
    codec: object,
    topology: Topology,
    cluster: ClusterSpec,
    calibration: CalibrationParams | None = None,
) -> Callable[[np.ndarray], np.ndarray]:
    """Feasibility screener for BO candidate pools.

    Returns a callable mapping an ``(M, dim)`` unit-cube candidate
    matrix to a boolean keep-mask: candidates whose decoded
    configuration the batch analytic model marks infeasible (executor
    capacity, batch timeout, memory) are screened out of the
    acquisition ranking before the expensive gradient refinement.  Pass
    it as ``BayesianOptimizer(..., screener=...)``.

    ``codec`` is any :class:`repro.storm.spaces.ConfigCodec`; its
    ``decode_batch`` turns the whole matrix into one
    :class:`ConfigBatch` (column-wise for the codecs with a closed form,
    row by row otherwise).

    Screeners for the same (topology, cluster, calibration) share one
    :class:`AnalyticBatchModel`, so repeat passes reuse the
    already-built grouping tables instead of rebuilding them per ask
    round.
    """
    batch_model = _screener_model(topology, cluster, calibration)
    order = batch_model.order

    def screen(candidates: np.ndarray) -> np.ndarray:
        batch = codec.decode_batch(candidates, order)  # type: ignore[attr-defined]
        return ~batch_model.evaluate(batch).failed

    return screen
