"""Discrete-event simulation of a Storm/Trident deployment.

Where :mod:`repro.storm.analytic` solves the steady state in closed
form, this engine plays the system out event by event:

* task instances are placed on machines by the real
  :class:`~repro.storm.scheduler.EvenScheduler`;
* each machine is a processor-sharing server — active jobs share
  ``min(cores, worker_threads)`` cores, degraded by the same
  context-switch efficiency the analytic model charges;
* a mini-batch is a wave of jobs through the DAG: operator *o* may start
  processing batch *b* only when every parent has finished batch *b*
  (Trident's per-batch barrier), with a network transfer delay on
  remote edges; each operator processes batches one at a time in FIFO
  order (Trident commits batch state in order, so an operator cannot
  run ahead into the next batch);
* at most ``batch_parallelism`` batches are in flight; a completed batch
  pays the per-batch coordination overhead before its pipeline slot is
  reused;
* acker work for a batch must finish before the batch commits.

The processor-sharing dynamics use per-machine virtual-time counters so
each event costs O(log jobs) instead of a full rescan.

The simulation is exact for the mechanics it models and is used to
validate the analytic engine (see ``tests/test_cross_validation.py``);
experiments use the analytic engine for speed.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from repro.obs import runtime as obs_runtime
from repro.storm.acker import AckerModel
from repro.storm.analytic import AnalyticPerformanceModel, CalibrationParams
from repro.storm.cluster import ClusterSpec
from repro.storm.config import TopologyConfig
from repro.storm.faults import FaultPlan, inject_faults
from repro.storm.grouping import load_fractions, remote_fraction
from repro.storm.metrics import MeasuredRun
from repro.storm.noise import NoiseModel, NoNoise, draw_observation
from repro.storm.schedule import WorkloadPoint, WorkloadSchedule
from repro.storm.scheduler import Assignment, EvenScheduler, SchedulingError
from repro.storm.topology import Topology, effective_cost


class _Machine:
    """Processor-sharing server with a virtual-time progress counter.

    ``virtual`` advances at the per-job service rate; a job admitted at
    virtual time ``v`` with work ``w`` completes when ``virtual`` reaches
    ``v + w``.  Because all jobs on a machine share the same rate, a
    single counter orders completions correctly.

    The active set is a heap of ``(target_virtual, job_id)`` pairs; job
    identity/payload lives in the event loop's ``job_index`` so heap
    operations compare plain floats and ints only.
    """

    __slots__ = (
        "machine_id",
        "usable_cores",
        "core_speed",
        "efficiency",
        "_speed",
        "virtual",
        "last_update",
        "active",
        "n_active",
    )

    def __init__(
        self,
        machine_id: int,
        usable_cores: float,
        core_speed: float,
        efficiency: float,
    ) -> None:
        self.machine_id = machine_id
        self.usable_cores = usable_cores
        self.core_speed = core_speed
        self.efficiency = efficiency
        self._speed = core_speed * efficiency  # rate when cores are not shared
        self.virtual = 0.0
        self.last_update = 0.0
        self.active: list[tuple[float, int]] = []  # heap by target_virtual
        self.n_active = 0

    def rate(self) -> float:
        """Service rate per job in compute units per ms."""
        n = self.n_active
        if n == 0:
            return 0.0
        if n <= self.usable_cores:
            return self._speed
        return self._speed * (self.usable_cores / n)

    def advance_to(self, now: float) -> None:
        if now > self.last_update:
            self.virtual += self.rate() * (now - self.last_update)
            self.last_update = now

    def add_job(self, job, now: float) -> None:
        """Admit a job object (reads ``.job_id``/``.work``, stamps
        ``.target_virtual``).  The event loop uses :meth:`add_work`."""
        self.advance_to(now)
        target = self.virtual + job.work
        job.target_virtual = target
        heapq.heappush(self.active, (target, job.job_id))
        self.n_active += 1

    def add_work(self, job_id: int, work: float, now: float) -> None:
        self.advance_to(now)
        heapq.heappush(self.active, (self.virtual + work, job_id))
        self.n_active += 1

    def next_completion_time(self, now: float) -> float:
        """Absolute time the earliest active job completes.

        Pure peek: machine state (``virtual``/``last_update``) is NOT
        mutated, so callers may probe freely — the clock only advances
        through :meth:`advance_to` (or admitting/draining jobs, which
        advance explicitly).  The projection ``virtual + rate * dt`` is
        exactly what :meth:`advance_to` would commit, so the returned
        time is identical to the old peek-that-advanced behaviour.
        """
        if not self.active:
            return math.inf
        rate = self.rate()
        if rate <= 0:
            return math.inf
        virtual = self.virtual
        if now > self.last_update:
            virtual += rate * (now - self.last_update)
        return now + max(0.0, self.active[0][0] - virtual) / rate


@dataclass
class _BatchState:
    """Barrier bookkeeping for one in-flight batch."""

    batch_id: int
    pending_jobs: dict[str, int] = field(default_factory=dict)
    parents_done: dict[str, int] = field(default_factory=dict)
    operators_done: int = 0
    acker_done: bool = False
    started_at: float = 0.0
    #: Workload point sampled at admission — a batch admitted mid-flash
    #: carries the flash's weight through every downstream stage.
    point: WorkloadPoint | None = None


class DiscreteEventSimulator:
    """Simulate a measurement window of one configuration.

    Parameters
    ----------
    topology, cluster:
        The deployment under test.
    calibration:
        Shared execution-model constants (same object the analytic
        engine uses, so the two engines are directly comparable).
    noise:
        Observation noise applied to the measured throughput.
    max_sim_time_ms:
        Simulated measurement window (the paper used 2-minute windows).
    max_batches:
        Hard cap on simulated batches so very fast configurations do
        not produce unbounded event counts.
    warmup_batches:
        Completed batches excluded from the throughput measurement
        (pipeline fill transient).
    """

    def __init__(
        self,
        topology: Topology,
        cluster: ClusterSpec,
        calibration: CalibrationParams | None = None,
        noise: NoiseModel | None = None,
        seed: int | None = None,
        max_sim_time_ms: float = 120_000.0,
        max_batches: int = 200,
        warmup_batches: int = 3,
        faults: FaultPlan | None = None,
        schedule: WorkloadSchedule | None = None,
    ) -> None:
        if max_batches < 2:
            raise ValueError("max_batches must be >= 2")
        if warmup_batches < 0:
            raise ValueError("warmup_batches must be >= 0")
        self.topology = topology
        self.cluster = cluster
        self.calibration = calibration or CalibrationParams()
        self.noise = noise or NoNoise()
        self.faults = faults
        self.schedule = schedule
        self._rng = np.random.default_rng(seed)
        self.max_sim_time_ms = max_sim_time_ms
        self.max_batches = max_batches
        self.warmup_batches = warmup_batches
        self._acker_model = AckerModel(ack_cost_units=self.calibration.ack_cost_units)
        self._scheduler = EvenScheduler()
        # Reuse the analytic model's feasibility checks and network math.
        self._analytic = AnalyticPerformanceModel(
            topology, cluster, self.calibration
        )

    # ------------------------------------------------------------------
    def evaluate(
        self,
        config: TopologyConfig,
        *,
        seed: int | None = None,
        workload_time_s: float = 0.0,
    ) -> MeasuredRun:
        """Simulate one measurement window, with faults and noise.

        ``seed`` draws the noise (and any injected fault decision, see
        :mod:`repro.storm.faults`) from a per-evaluation stream instead
        of the engine's shared one (see
        :func:`repro.storm.noise.draw_observation`).  ``workload_time_s``
        anchors the engine's :class:`WorkloadSchedule` (if any): the
        schedule is sampled at ``workload_time_s + sim_now`` when each
        batch is admitted.
        """
        run = inject_faults(
            self.faults,
            lambda: self.evaluate_noise_free(
                config, workload_time_s=workload_time_s
            ),
            config_key=repr(config),
            seed=seed,
            tracer=obs_runtime.current().tracer,
            engine="des",
        )
        if run.failed:
            return run
        observed = draw_observation(self.noise, run.throughput_tps, self._rng, seed)
        return run.with_throughput(observed)

    def __call__(self, config: TopologyConfig) -> float:
        return self.evaluate(config).throughput_tps

    # ------------------------------------------------------------------
    def evaluate_noise_free(
        self, config: TopologyConfig, *, workload_time_s: float = 0.0
    ) -> MeasuredRun:
        """Event-by-event simulation of one configuration's window."""
        ctx = obs_runtime.current()
        with ctx.tracer.span("engine.des.evaluate") as span:
            run = self._evaluate_mechanics(config, workload_time_s)
            if run.failed:
                span.set_attribute("failed", True)
            else:
                span.set_attribute(
                    "completed_batches", run.details.get("completed_batches", 0)
                )
            return run

    def _evaluate_mechanics(
        self, config: TopologyConfig, workload_time_s: float = 0.0
    ) -> MeasuredRun:
        topo = self.topology
        cluster = self.cluster
        cal = self.calibration
        hints = config.normalized_hints(topo)
        schedule = self.schedule
        #: Window-origin workload point; per-batch points are sampled in
        #: admit_batch as the simulation clock advances.
        point0 = schedule.at(workload_time_s) if schedule is not None else None

        try:
            assignment = self._scheduler.schedule(topo, config, cluster)
        except SchedulingError as exc:
            return MeasuredRun.failure(str(exc), total_tasks=sum(hints.values()))
        mem_fail = self._analytic._memory_exceeded(
            config,
            hints,
            assignment.total_executors(),
            float(config.batch_size),
            float(config.batch_parallelism),
            point0,
        )
        if mem_fail is not None:
            return MeasuredRun.failure(mem_fail, total_tasks=sum(hints.values()))

        machines = self._build_machines(config, assignment)

        volumes = topo.volumes()
        B = float(config.batch_size)
        P = int(config.batch_parallelism)
        #: Per-operator spawn plan, computed once per evaluation: the
        #: exact ``(machine, work)`` list one batch spawns, plus the
        #: distinct machines touched (one heap event per machine per
        #: spawn instead of one per job).
        spawn_plan: dict[str, tuple[list[tuple[_Machine, float]], list[_Machine]]] = {}
        #: Raw per-operator spawn ingredients, kept only under a
        #: schedule: per-batch workload points rescale work (load) and
        #: reshape the per-task split (skew) at spawn time.
        spawn_raw: dict[str, tuple[list[int], float, np.ndarray, bool]] = {}
        for name in topo:
            op = topo.operator(name)
            n_tasks = hints[name]
            cost = effective_cost(op, n_tasks)
            total_work = B * volumes[name] * cost
            fractions = self._load_split(name, n_tasks)
            works = (total_work * fractions).tolist()
            placements = [t.slot.machine_id for t in assignment.tasks_of(name)]
            entries = [
                (machines[mid], float(work))
                for mid, work in zip(placements, works)
            ]
            distinct = [machines[mid] for mid in dict.fromkeys(placements)]
            spawn_plan[name] = (entries, distinct)
            if schedule is not None:
                is_consumer = bool(list(topo.parents(name)))
                spawn_raw[name] = (placements, total_work, fractions, is_consumer)

        ack_demand = B * self._acker_model.demand_units_per_source_tuple(topo)
        acker_machines = [t.slot.machine_id for t in assignment.acker_tasks]
        if acker_machines:
            per_task = ack_demand / len(acker_machines)
            spawn_plan["__acker__"] = (
                [(machines[mid], per_task) for mid in acker_machines],
                [machines[mid] for mid in dict.fromkeys(acker_machines)],
            )
        edge_delay = self._edge_transfer_delays(B)
        if point0 is not None and point0.load != 1.0:
            # Heavier tuples ship more bytes; transfer delays scale with
            # the window-origin load (edge delays are per-evaluation
            # constants, the per-batch compute work is what varies).
            edge_delay = {k: v * point0.load for k, v in edge_delay.items()}

        # Hoisted invariants for the hot loop.
        children = {name: list(topo.children(name)) for name in topo}
        n_parents = {name: len(topo.parents(name)) for name in topo}
        sources = list(topo.sources())
        stage_overhead = cal.stage_overhead_ms
        batch_overhead = cal.batch_overhead_ms
        max_batches = self.max_batches
        heappush = heapq.heappush
        heappop = heapq.heappop

        # --- event loop state ----------------------------------------
        job_ids = itertools.count()
        #: (time, seq, kind, payload) — kinds: "machine" (check machine
        #: completions), "spawn" (operator jobs become ready), "admit"
        #: (new batch may enter the pipeline).
        events: list[tuple[float, int, str, object]] = []
        seq = itertools.count()
        batches: dict[int, _BatchState] = {}
        #: Job bookkeeping as parallel arrays indexed by job id: ids are
        #: dense (``itertools.count`` consumed only in ``_spawn_jobs``),
        #: so an append-only list replaces the dict the hot loop used to
        #: hash into on every spawn and completion.
        job_batch: list[int] = []
        job_operator: list[str] = []
        next_batch = itertools.count()
        #: Completion records, also structure-of-arrays (batch ids were
        #: never consumed downstream; the measurement pass only needs
        #: the time and latency columns).
        completed_times: list[float] = []
        completed_latencies: list[float] = []
        n_operators = len(topo)

        #: Per-operator batch serialization: an operator processes one
        #: batch at a time in FIFO order (Trident state commits are
        #: ordered per operator).
        operator_busy: dict[str, bool] = {name: False for name in topo}
        operator_busy["__acker__"] = False
        operator_queue: dict[str, list[int]] = {name: [] for name in operator_busy}

        def _spawn_jobs(batch: _BatchState, operator: str, now: float) -> None:
            entries, distinct = spawn_plan[operator]
            batch_id = batch.batch_id
            point = batch.point
            if point is not None and operator != "__acker__":
                placements, total_work, fractions, is_consumer = spawn_raw[operator]
                if point.skew != 0.0 and is_consumer:
                    # Concentrate the split on the hottest task: the
                    # event-level analogue of the analytic engines'
                    # (1 - skew) parallelism shave for consumers.
                    hot = int(np.argmax(fractions))
                    fractions = (1.0 - point.skew) * fractions
                    fractions[hot] += point.skew
                works = (total_work * point.load) * fractions
                entries = [
                    (machines[mid], float(work))
                    for mid, work in zip(placements, works)
                ]
            batch.pending_jobs[operator] = len(entries)
            for machine, work in entries:
                job_id = next(job_ids)
                job_batch.append(batch_id)
                job_operator.append(operator)
                machine.add_work(job_id, work, now)
            for machine in distinct:
                t = machine.next_completion_time(now)
                if t < math.inf:
                    heappush(events, (t, next(seq), "machine", machine))

        def request_operator(batch_id: int, operator: str, now: float) -> None:
            if operator_busy[operator]:
                operator_queue[operator].append(batch_id)
                return
            batch = batches.get(batch_id)
            if batch is None:
                return
            operator_busy[operator] = True
            _spawn_jobs(batch, operator, now)

        def release_operator(operator: str, now: float) -> None:
            operator_busy[operator] = False
            queue = operator_queue[operator]
            while queue:
                batch_id = queue.pop(0)
                if batch_id in batches:
                    request_operator(batch_id, operator, now)
                    break

        def admit_batch(now: float) -> None:
            batch_id = next(next_batch)
            if batch_id >= max_batches:
                return
            batch = _BatchState(batch_id=batch_id, started_at=now)
            if schedule is not None:
                batch.point = schedule.at(workload_time_s + now / 1000.0)
            batches[batch_id] = batch
            for source in sources:
                request_operator(batch_id, source, now)
            if not acker_machines or ack_demand <= 0:
                batch.acker_done = True
            else:
                request_operator(batch_id, "__acker__", now)

        def operator_finished(batch: _BatchState, operator: str, now: float) -> None:
            release_operator(operator, now)
            if operator == "__acker__":
                batch.acker_done = True
            else:
                batch.operators_done += 1
                for child in children[operator]:
                    done = batch.parents_done.get(child, 0) + 1
                    batch.parents_done[child] = done
                    if done == n_parents[child]:
                        delay = edge_delay.get((operator, child), 0.0)
                        heappush(
                            events,
                            (now + delay, next(seq), "spawn", (batch.batch_id, child)),
                        )
            if batch.operators_done == n_operators and batch.acker_done:
                completed_times.append(now)
                completed_latencies.append(now - batch.started_at)
                del batches[batch.batch_id]
                # Commit overhead holds the pipeline slot before reuse.
                heappush(events, (now + batch_overhead, next(seq), "admit", None))

        # Prime the pipeline with P batches.
        for _ in range(P):
            admit_batch(0.0)

        now = 0.0
        while events:
            now, _, kind, payload = heappop(events)
            if now > self.max_sim_time_ms:
                break
            if len(completed_times) >= max_batches:
                break
            if kind == "machine":
                machine = payload
                machine.advance_to(now)
                active = machine.active
                threshold = machine.virtual + 1e-9
                while active and active[0][0] <= threshold:
                    _, job_id = heappop(active)
                    machine.n_active -= 1
                    batch_id = job_batch[job_id]
                    operator = job_operator[job_id]
                    batch = batches.get(batch_id)
                    if batch is None:
                        continue
                    batch.pending_jobs[operator] -= 1
                    if batch.pending_jobs[operator] == 0:
                        # The batch-commit signal for this operator costs
                        # a fixed coordination delay before downstream
                        # operators (and the next batch here) may start.
                        heappush(
                            events,
                            (
                                now + stage_overhead,
                                next(seq),
                                "opdone",
                                (batch_id, operator),
                            ),
                        )
                t = machine.next_completion_time(now)
                if t < math.inf:
                    heappush(events, (t, next(seq), "machine", machine))
            elif kind == "opdone":
                batch_id, operator = payload  # type: ignore[misc]
                batch = batches.get(batch_id)
                if batch is not None:
                    operator_finished(batch, operator, now)
            elif kind == "spawn":
                batch_id, operator = payload  # type: ignore[misc]
                request_operator(batch_id, operator, now)
            elif kind == "admit":
                admit_batch(now)

        return self._measure(
            config, assignment, completed_times, completed_latencies, now, point0
        )

    # ------------------------------------------------------------------
    def _measure(
        self,
        config: TopologyConfig,
        assignment: Assignment,
        completed_times: list[float],
        completed_latencies: list[float],
        end_time: float,
        point: WorkloadPoint | None = None,
    ) -> MeasuredRun:
        hints = config.normalized_hints(self.topology)
        total_tasks = sum(hints.values())
        warm = self.warmup_batches
        if len(completed_times) <= warm + 1:
            return MeasuredRun.failure(
                "no steady-state batches completed within the window",
                total_tasks=total_tasks,
            )
        times = sorted(completed_times)
        t0 = times[warm]
        t1 = times[-1]
        n_measured = len(times) - warm - 1
        if t1 <= t0:
            return MeasuredRun.failure(
                "degenerate measurement window", total_tasks=total_tasks
            )
        worst_latency = max(completed_latencies)
        if worst_latency > self.calibration.batch_timeout_ms:
            return MeasuredRun.failure(
                f"batch latency {worst_latency:.0f} ms exceeds the "
                f"{self.calibration.batch_timeout_ms:.0f} ms message timeout",
                total_tasks=total_tasks,
            )
        batches_per_ms = n_measured / (t1 - t0)
        throughput = batches_per_ms * config.batch_size * 1000.0

        remote_tuples, remote_bytes, ingest_bytes = self._analytic._network_demand(
            float(config.batch_size), hints
        )
        if point is not None:
            remote_bytes = remote_bytes * point.load
            ingest_bytes = ingest_bytes * point.load
        network_bytes_per_ms = batches_per_ms * (remote_bytes + ingest_bytes)
        network_mb_per_worker_s = (
            network_bytes_per_ms * 1000.0 / 1e6 / self.cluster.total_workers
        )
        return MeasuredRun(
            throughput_tps=throughput,
            network_mb_per_worker_s=network_mb_per_worker_s,
            batch_latency_ms=(
                float(np.median(completed_latencies))
                if completed_latencies
                else 0.0
            ),
            total_tasks=total_tasks,
            details={
                "completed_batches": len(completed_times),
                "sim_time_ms": end_time,
            },
        )

    # ------------------------------------------------------------------
    def _build_machines(
        self, config: TopologyConfig, assignment: Assignment
    ) -> dict[int, _Machine]:
        cal = self.calibration
        spec = self.cluster.machine
        usable_cores = min(
            spec.cores, config.worker_threads * self.cluster.workers_per_machine
        )
        threads = assignment.threads_per_machine()
        pool_extra = (
            cal.pool_oversubscription_weight
            * max(0, config.worker_threads - spec.cores)
            * self.cluster.workers_per_machine
        )
        executors = assignment.executors_per_machine()
        machines: dict[int, _Machine] = {}
        for machine_id in range(self.cluster.n_machines):
            total_threads = threads[machine_id] + pool_extra
            excess = max(0.0, (total_threads - spec.cores) / spec.cores)
            efficiency = 1.0 / (1.0 + cal.context_switch_kappa * excess**2)
            overhead_share = min(
                0.95,
                cal.per_task_cpu_overhead
                * executors[machine_id]
                / (spec.cores * spec.core_speed),
            )
            efficiency *= 1.0 - overhead_share
            machines[machine_id] = _Machine(
                machine_id=machine_id,
                usable_cores=usable_cores,
                core_speed=spec.core_speed,
                efficiency=efficiency,
            )
        return machines

    def _load_split(self, operator: str, n_tasks: int) -> np.ndarray:
        """Per-task share of the operator's batch work."""
        groupings = [
            self.topology.edge(p, operator).grouping
            for p in self.topology.parents(operator)
        ]
        if not groupings:
            return np.full(n_tasks, 1.0 / n_tasks)
        splits = [load_fractions(g, n_tasks) for g in groupings]
        combined = np.mean(splits, axis=0)
        total = combined.sum()
        # ALL groupings replicate work rather than splitting it.
        if total > 1.0 + 1e-9:
            return combined
        return combined / total

    def _edge_transfer_delays(self, batch_size: float) -> dict[tuple[str, str], float]:
        """Per-edge network transfer time for one batch's tuples (ms)."""
        topo = self.topology
        delays: dict[tuple[str, str], float] = {}
        wire = 1.0 + self.calibration.wire_overhead
        volumes = topo.volumes()
        nic = self.cluster.machine.nic_bytes_per_ms
        for edge in topo.edges:
            src_op = topo.operator(edge.src)
            emitted = batch_size * volumes[edge.src] * src_op.selectivity
            frac = remote_fraction(edge.grouping, self.cluster.n_machines)
            bytes_total = emitted * frac * src_op.tuple_bytes * wire
            # Transfers fan out across machines, so the effective pipe is
            # the aggregate NIC capacity of the cluster.
            capacity = nic * self.cluster.n_machines
            delays[(edge.src, edge.dst)] = bytes_total / capacity if capacity else 0.0
        return delays
