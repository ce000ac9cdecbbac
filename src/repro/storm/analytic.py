"""Analytic bottleneck model of a Storm/Trident deployment.

This is the fast execution engine: a closed-form steady-state capacity
analysis of the same mechanics the discrete-event simulator
(:mod:`repro.storm.simulation`) realizes event-by-event.  Experiments
default to it because Bayesian-optimization studies evaluate thousands
of configurations; tests cross-validate it against the DES.

Model summary (DESIGN.md §5).  For batch size ``B``, batch parallelism
``P`` and per-operator task counts ``n_o``:

* effective per-tuple cost ``c'_o = c_o * n_o`` for contentious
  operators (parallelising a bolt gated on a shared resource only adds
  contention, §IV-B2), else ``c_o``;
* per-batch stage time ``T_o = B v_o c'_o / (p_o * speed * eta)`` where
  ``v_o`` is the operator's relative tuple volume, ``p_o`` its usable
  parallelism (tasks, grouping skew, cores) and ``eta`` the
  context-switch efficiency of the placement;
* batch completion rate = min(pipeline fill ``P / T_lat``, bottleneck
  stage ``1 / max T_o``, CPU saturation, acker capacity, receiver
  capacity, NIC capacity), with ``T_lat = sum of layer times + per-batch
  coordination overhead``;
* throughput = rate × ``B``; configurations exceeding executor or
  memory capacity fail with zero throughput (the parallel linear
  ascent's stop signal).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.obs import runtime as obs_runtime
from repro.storm.acker import AckerModel
from repro.storm.cluster import ClusterSpec
from repro.storm.config import TopologyConfig
from repro.storm.faults import FaultPlan, inject_faults
from repro.storm.grouping import effective_parallelism, remote_fraction
from repro.storm.metrics import MeasuredRun
from repro.storm.noise import NoiseModel, NoNoise, draw_observation
from repro.storm.schedule import WorkloadPoint, WorkloadSchedule
from repro.storm.topology import Topology, effective_cost

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.storm.analytic_batch import AnalyticBatchModel


@dataclass(frozen=True)
class CalibrationParams:
    """Tunable constants of the execution model.

    Defaults are calibrated so the paper's Sundog anchors reproduce
    (≈0.6M tuples/s with the developers' manual settings, ≈1.7M after
    batch tuning) and the synthetic topologies land in a plausible
    regime; EXPERIMENTS.md documents the calibration.
    """

    #: Per-mini-batch coordination/commit overhead in ms (Trident batch
    #: setup, master batch coordinator round-trips, state commit).
    batch_overhead_ms: float = 150.0
    #: Per-operator, per-batch coordination overhead in ms: every bolt
    #: sees a batch-begin and batch-commit signal from the master batch
    #: coordinator regardless of how many tuples the batch carries.
    #: This is the latency *floor* that parallelism hints cannot tune
    #: away — the reason hint-only tuning plateaus on Sundog while
    #: batch-size/batch-parallelism tuning unlocks ~2.8x (§V-D).
    stage_overhead_ms: float = 20.0
    #: Storm fails tuples (and Trident the whole batch) that are not
    #: fully processed within the message timeout
    #: (``topology.message.timeout.secs``, default 30 s).  A deployment
    #: whose batch latency exceeds it replays batches forever and
    #: measures zero throughput — the cliff the parallel linear ascent
    #: falls off (its three-consecutive-zeros stop rule, §V-A).
    batch_timeout_ms: float = 30_000.0
    #: Context-switch penalty coefficient: efficiency is
    #: ``1 / (1 + kappa * max(0, (threads - cores) / cores)^2)``.
    #: Quadratic in the oversubscription ratio: a couple of extra
    #: runnable threads per core are nearly free, drowning a 4-core
    #: machine in dozens of executors is not.
    context_switch_kappa: float = 0.03
    #: Background CPU each executor burns per millisecond regardless of
    #: load (heartbeats, disruptor-queue polling, metrics).  This is
    #: what makes *over*-parallelization costly: a cluster drowning in
    #: executors loses budget before processing a single tuple.
    per_task_cpu_overhead: float = 0.012
    #: Idle worker-pool threads beyond the core count still burn a
    #: fraction of a runnable thread each (scheduler pressure).
    pool_oversubscription_weight: float = 0.25
    #: Tuples one receiver thread can deserialize per millisecond.
    receiver_tuples_per_ms: float = 300.0
    #: Heap overhead per executor (task bookkeeping, buffers).
    per_task_memory_mb: float = 32.0
    #: Memory fraction of a machine usable for in-flight batch data.
    usable_memory_fraction: float = 0.8
    #: Acker cost model.
    ack_cost_units: float = 0.002
    #: Fraction of a batch's tuple bytes that is framing/serialization
    #: overhead on the wire.
    wire_overhead: float = 0.1

    def __post_init__(self) -> None:
        if self.batch_overhead_ms < 0:
            raise ValueError("batch_overhead_ms must be >= 0")
        if self.context_switch_kappa < 0:
            raise ValueError("context_switch_kappa must be >= 0")
        if self.receiver_tuples_per_ms <= 0:
            raise ValueError("receiver_tuples_per_ms must be > 0")
        if not 0 < self.usable_memory_fraction <= 1:
            raise ValueError("usable_memory_fraction must be in (0, 1]")


@dataclass(frozen=True)
class CapacityBreakdown:
    """The individual throughput caps (tuples/s) and which one bound."""

    pipeline_fill: float
    bottleneck_stage: float
    cpu_saturation: float
    acker: float
    receiver: float
    nic: float

    def limiting(self) -> tuple[str, float]:
        caps = {
            "pipeline_fill": self.pipeline_fill,
            "bottleneck_stage": self.bottleneck_stage,
            "cpu_saturation": self.cpu_saturation,
            "acker": self.acker,
            "receiver": self.receiver,
            "nic": self.nic,
        }
        name = min(caps, key=lambda k: caps[k])
        return name, caps[name]


class AnalyticPerformanceModel:
    """Evaluate configurations of one topology on one cluster."""

    def __init__(
        self,
        topology: Topology,
        cluster: ClusterSpec,
        calibration: CalibrationParams | None = None,
        noise: NoiseModel | None = None,
        seed: int | None = None,
        faults: FaultPlan | None = None,
        schedule: WorkloadSchedule | None = None,
    ) -> None:
        self.topology = topology
        self.cluster = cluster
        self.calibration = calibration or CalibrationParams()
        self.noise = noise or NoNoise()
        self.faults = faults
        self.schedule = schedule
        self._rng = np.random.default_rng(seed)
        self._acker_model = AckerModel(ack_cost_units=self.calibration.ack_cost_units)
        # Topology-derived constants, independent of the configuration.
        self._volumes = topology.volumes()
        self._order = topology.topological_order()
        self._layers = {name: topology.layer_of(name) for name in self._order}
        self._edge_min_parallelism_grouping = {
            name: [
                topology.edge(p, name).grouping for p in topology.parents(name)
            ]
            for name in self._order
        }
        # Hoisted per-evaluation invariants (PR 5): grouping skew and
        # network/memory demand coefficients depend only on the topology
        # and cluster, so compute them once instead of per evaluation.
        # The stored factors are deliberately kept *unreduced* (volume,
        # selectivity, fraction, bytes as separate terms) so the
        # per-evaluation arithmetic performs the exact same float
        # operations, in the same order, as the original inline code —
        # bit-for-bit identical results.
        self._parallelism_cache: dict[tuple[str, int], float] = {}
        self._ack_demand_units = self._acker_model.demand_units_per_source_tuple(
            topology
        )
        self._edge_terms = tuple(
            (
                self._volumes[edge.src],
                topology.operator(edge.src).selectivity,
                remote_fraction(edge.grouping, cluster.n_machines),
                topology.operator(edge.src).tuple_bytes,
            )
            for edge in topology.edges
        )
        self._ingest_terms = tuple(
            (self._volumes[s], topology.operator(s).tuple_bytes)
            for s in topology.sources()
        )
        self._inflight_bytes_per_batch_unit = sum(
            self._volumes[name] * topology.operator(name).tuple_bytes
            for name in self._order
        )
        self._batch_model: AnalyticBatchModel | None = None

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def evaluate(
        self,
        config: TopologyConfig,
        *,
        seed: int | None = None,
        workload_time_s: float = 0.0,
    ) -> MeasuredRun:
        """Deterministic mechanics plus faults and observation noise.

        ``seed`` draws the noise (and any injected fault decision, see
        :mod:`repro.storm.faults`) from a per-evaluation stream instead
        of the engine's shared one (see
        :func:`repro.storm.noise.draw_observation`).  ``workload_time_s``
        samples the engine's :class:`WorkloadSchedule` (if any) at that
        offset; without a schedule it is ignored.
        """
        run = inject_faults(
            self.faults,
            lambda: self.evaluate_noise_free(
                config, workload_time_s=workload_time_s
            ),
            config_key=repr(config),
            seed=seed,
            tracer=obs_runtime.current().tracer,
            engine="analytic",
        )
        if run.failed:
            return run
        observed = draw_observation(self.noise, run.throughput_tps, self._rng, seed)
        return run.with_throughput(observed)

    def __call__(self, config: TopologyConfig) -> float:
        return self.evaluate(config).throughput_tps

    def evaluate_noise_free(
        self, config: TopologyConfig, *, workload_time_s: float = 0.0
    ) -> MeasuredRun:
        """Closed-form steady-state evaluation of one configuration.

        Computes per-operator stage times, batch latency, and the six
        throughput caps of DESIGN.md §5, returning the binding one in
        ``details["limiting_cap"]``; infeasible deployments (executor
        capacity, batch timeout, memory) fail with zero throughput.
        """
        ctx = obs_runtime.current()
        with ctx.tracer.span("engine.analytic.evaluate") as span:
            run = self._evaluate_mechanics(config, self._point_at(workload_time_s))
            if run.failed:
                span.set_attribute("failed", True)
            else:
                span.set_attribute(
                    "limiting_cap", run.details.get("limiting_cap", "")
                )
            return run

    @property
    def batch_model(self) -> AnalyticBatchModel:
        """Vectorized evaluator sharing this model's hoisted structures.

        Built lazily so a pickled model stays small; the batch model is
        reconstructed on first use.
        """
        if self._batch_model is None:
            from repro.storm.analytic_batch import AnalyticBatchModel

            self._batch_model = AnalyticBatchModel(
                self.topology,
                self.cluster,
                self.calibration,
                schedule=self.schedule,
            )
        return self._batch_model

    def evaluate_noise_free_batch(
        self,
        configs: Sequence[TopologyConfig],
        *,
        workload_time_s: float = 0.0,
    ) -> list[MeasuredRun]:
        """Batch counterpart of :meth:`evaluate_noise_free`.

        One vectorized pass over all ``configs`` (span
        ``engine.analytic.evaluate_batch``), bit-identical to calling
        :meth:`evaluate_noise_free` per config.
        """
        batch = self.batch_model.evaluate(configs, workload_time_s=workload_time_s)
        return batch.runs()

    def evaluate_batch(
        self,
        configs: Sequence[TopologyConfig],
        *,
        seeds: Sequence[int | None] | None = None,
        workload_time_s: float = 0.0,
    ) -> list[MeasuredRun]:
        """Batch counterpart of :meth:`evaluate`: mechanics + faults + noise.

        The deterministic mechanics run as one vectorized pass; fault
        decisions and noise draws then replay per evaluation in list
        order, exactly as a serial loop over :meth:`evaluate` would
        (same per-seed streams, same shared-RNG draw order), so the
        observations are bit-identical.  :class:`~repro.storm.noise.NoNoise`
        short-circuits the per-row draw entirely — the vectorized fast
        path for the common deterministic-objective case.
        """
        if seeds is not None and len(seeds) != len(configs):
            raise ValueError("seeds must match configs in length")
        batch = self.batch_model.evaluate(configs, workload_time_s=workload_time_s)
        tracer = obs_runtime.current().tracer
        noiseless = type(self.noise) is NoNoise
        out: list[MeasuredRun] = []
        for i, config in enumerate(configs):
            seed = seeds[i] if seeds is not None else None
            run = inject_faults(
                self.faults,
                lambda index=i: batch.run(index),
                config_key=repr(config),
                seed=seed,
                tracer=tracer,
                engine="analytic",
            )
            if run.failed:
                out.append(run)
                continue
            if noiseless:
                # NoNoise returns max(0.0, value) == value for the
                # non-negative throughputs the engine produces.
                out.append(run.with_throughput(run.throughput_tps))
                continue
            observed = draw_observation(
                self.noise, run.throughput_tps, self._rng, seed
            )
            out.append(run.with_throughput(observed))
        return out

    def _point_at(self, workload_time_s: float) -> WorkloadPoint | None:
        """Sample the schedule; ``None`` (no schedule) keeps the static path."""
        if self.schedule is None:
            return None
        return self.schedule.at(workload_time_s)

    def _evaluate_mechanics(
        self, config: TopologyConfig, point: WorkloadPoint | None = None
    ) -> MeasuredRun:
        topo = self.topology
        cluster = self.cluster
        cal = self.calibration
        hints = config.normalized_hints(topo)
        n_ackers = config.effective_ackers()
        total_executors = sum(hints.values()) + n_ackers

        if total_executors > cluster.max_total_executors:
            return MeasuredRun.failure(
                f"{total_executors} executors exceed cluster capacity "
                f"{cluster.max_total_executors}",
                total_tasks=sum(hints.values()),
            )

        machine = cluster.machine
        n_machines = cluster.n_machines
        eta = self._efficiency(config, total_executors)
        usable_cores = min(
            machine.cores,
            config.worker_threads * cluster.workers_per_machine,
        )
        cluster_rate = usable_cores * n_machines * machine.core_speed * eta

        B = float(config.batch_size)
        P = float(config.batch_parallelism)

        # Per-operator per-batch stage times.  A workload point scales
        # per-tuple cost by its load and shaves grouped-stream
        # parallelism by its skew — mirrored expression-for-expression
        # in AnalyticBatchModel._mechanics (bit-compatibility contract).
        skew_factor = 1.0 - point.skew if point is not None else 1.0
        stage_times: dict[str, float] = {}
        total_work = 0.0
        for name in self._order:
            op = topo.operator(name)
            n_tasks = hints[name]
            cost = effective_cost(op, n_tasks)
            if point is not None:
                cost = cost * point.load
            tuples = B * self._volumes[name]
            work = tuples * cost  # compute-unit milliseconds
            total_work += work
            parallelism = self._operator_parallelism(name, n_tasks)
            if (
                point is not None
                and point.skew != 0.0
                and self._edge_min_parallelism_grouping[name]
            ):
                parallelism = parallelism * skew_factor
            parallelism = min(parallelism, usable_cores * n_machines)
            rate = max(parallelism, 1e-12) * machine.core_speed * eta
            compute_time = work / rate if work > 0 else 0.0
            stage_times[name] = compute_time + cal.stage_overhead_ms

        # Acker work rides along on the CPU budget.
        ack_work = B * self._ack_demand_units
        total_work += ack_work

        # Layer times and batch latency.
        layer_time: dict[int, float] = {}
        for name, t in stage_times.items():
            layer = self._layers[name]
            layer_time[layer] = max(layer_time.get(layer, 0.0), t)
        sum_layer_times = sum(layer_time.values())
        t_max = max(stage_times.values()) if stage_times else 0.0
        latency = sum_layer_times + cal.batch_overhead_ms
        if latency > cal.batch_timeout_ms:
            return MeasuredRun.failure(
                f"batch latency {latency:.0f} ms exceeds the "
                f"{cal.batch_timeout_ms:.0f} ms message timeout (batches "
                "replay forever)",
                total_tasks=sum(hints.values()),
            )

        # Throughput caps, all expressed in source tuples per second.
        def batches_to_tps(rate_batches_per_ms: float) -> float:
            return rate_batches_per_ms * B * 1000.0

        cap_pipeline = batches_to_tps(P / latency) if latency > 0 else math.inf
        cap_stage = batches_to_tps(1.0 / t_max) if t_max > 0 else math.inf
        cap_cpu = (
            batches_to_tps(cluster_rate / total_work) if total_work > 0 else math.inf
        )
        # Inlined AckerModel.max_throughput_tps with the demand term
        # hoisted to __init__ (same operations, same order).
        if n_ackers == 0 or self._ack_demand_units <= 0:
            cap_acker = math.inf
        else:
            cap_acker = (
                self._acker_model.capacity_units_per_ms(
                    n_ackers, machine.core_speed * eta
                )
                * 1000.0
                / self._ack_demand_units
            )
        remote_tuples, remote_bytes, ingest_bytes = self._network_demand(B, hints)
        if point is not None:
            # Load is per-tuple weight: heavier tuples ship more bytes,
            # but the tuple *count* per batch is unchanged.
            remote_bytes = remote_bytes * point.load
            ingest_bytes = ingest_bytes * point.load
        cap_receiver = self._receiver_cap(config, remote_tuples, B)
        cap_nic = self._nic_cap(remote_bytes + ingest_bytes, B)

        caps = CapacityBreakdown(
            pipeline_fill=cap_pipeline,
            bottleneck_stage=cap_stage,
            cpu_saturation=cap_cpu,
            acker=cap_acker,
            receiver=cap_receiver,
            nic=cap_nic,
        )
        limiting_name, throughput = caps.limiting()

        # Memory feasibility: executor overhead plus resident batch data.
        mem_fail = self._memory_exceeded(config, hints, total_executors, B, P, point)
        if mem_fail is not None:
            return MeasuredRun.failure(mem_fail, total_tasks=sum(hints.values()))

        batches_per_ms = throughput / (B * 1000.0) if B > 0 else 0.0
        network_bytes_per_ms = batches_per_ms * (remote_bytes + ingest_bytes)
        network_mb_per_worker_s = (
            network_bytes_per_ms * 1000.0 / 1e6 / cluster.total_workers
        )

        return MeasuredRun(
            throughput_tps=throughput,
            network_mb_per_worker_s=network_mb_per_worker_s,
            batch_latency_ms=latency,
            total_tasks=sum(hints.values()),
            details={
                "caps": caps,
                "limiting_cap": limiting_name,
                "eta": eta,
                "stage_times_ms": stage_times,
                "total_work_ms": total_work,
                "total_executors": total_executors,
            },
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _efficiency(self, config: TopologyConfig, total_executors: int) -> float:
        """Combined context-switch and per-executor-overhead efficiency."""
        cluster = self.cluster
        cal = self.calibration
        system_threads = 2.0
        per_worker = (
            config.receiver_threads
            + system_threads
            + cal.pool_oversubscription_weight
            * max(0, config.worker_threads - cluster.machine.cores)
        )
        threads_per_machine = (
            total_executors / cluster.n_machines
            + per_worker * cluster.workers_per_machine
        )
        cores = cluster.machine.cores
        excess = max(0.0, (threads_per_machine - cores) / cores)
        cs_efficiency = 1.0 / (1.0 + cal.context_switch_kappa * excess**2)
        overhead_share = min(
            0.95,
            cal.per_task_cpu_overhead
            * total_executors
            / cluster.total_compute_rate,
        )
        return cs_efficiency * (1.0 - overhead_share)

    def _operator_parallelism(self, name: str, n_tasks: int) -> float:
        """Usable parallelism of an operator's task set.

        Bounded by the task count and by the load skew the incoming
        groupings induce (a FIELDS consumer is held back by its hottest
        key partition; GLOBAL pins everything on one task).
        """
        key = (name, n_tasks)
        cached = self._parallelism_cache.get(key)
        if cached is not None:
            return cached
        groupings = self._edge_min_parallelism_grouping[name]
        if not groupings:
            value = float(n_tasks)
        else:
            value = min(effective_parallelism(g, n_tasks) for g in groupings)
        self._parallelism_cache[key] = value
        return value

    def _network_demand(
        self, batch_size: float, hints: dict[str, int]
    ) -> tuple[float, float, float]:
        """Remote tuples, remote bytes and source-ingest bytes per batch."""
        wire = 1.0 + self.calibration.wire_overhead
        remote_tuples = 0.0
        remote_bytes = 0.0
        for volume, selectivity, frac, tuple_bytes in self._edge_terms:
            emitted = batch_size * volume * selectivity
            remote_tuples += emitted * frac
            remote_bytes += emitted * frac * tuple_bytes * wire
        ingest_bytes = sum(
            batch_size * volume * tuple_bytes * wire
            for volume, tuple_bytes in self._ingest_terms
        )
        return remote_tuples, remote_bytes, ingest_bytes

    def _receiver_cap(
        self, config: TopologyConfig, remote_tuples_per_batch: float, B: float
    ) -> float:
        if remote_tuples_per_batch <= 0:
            return math.inf
        per_worker = remote_tuples_per_batch / self.cluster.total_workers
        capacity = config.receiver_threads * self.calibration.receiver_tuples_per_ms
        batches_per_ms = capacity / per_worker
        return batches_per_ms * B * 1000.0

    def _nic_cap(self, bytes_per_batch: float, B: float) -> float:
        if bytes_per_batch <= 0:
            return math.inf
        per_machine = bytes_per_batch / self.cluster.n_machines
        batches_per_ms = self.cluster.machine.nic_bytes_per_ms / per_machine
        return batches_per_ms * B * 1000.0

    def _memory_exceeded(
        self,
        config: TopologyConfig,
        hints: dict[str, int],
        total_executors: int,
        B: float,
        P: float,
        point: WorkloadPoint | None = None,
    ) -> str | None:
        cal = self.calibration
        cluster = self.cluster
        executors_per_machine = total_executors / cluster.n_machines
        task_mb = executors_per_machine * cal.per_task_memory_mb
        inflight_bytes = B * P * self._inflight_bytes_per_batch_unit
        if point is not None:
            inflight_bytes = inflight_bytes * point.load
        data_mb = inflight_bytes / cluster.n_machines / 1e6
        budget = cluster.machine.memory_mb * cal.usable_memory_fraction
        if task_mb + data_mb > budget:
            return (
                f"memory exhausted: {task_mb:.0f} MB task overhead + "
                f"{data_mb:.0f} MB in-flight data > {budget:.0f} MB budget"
            )
        return None
