"""The black-box objective the optimizers sample.

Combines a codec (flat parameter dict → :class:`TopologyConfig`) with an
execution engine (analytic model or discrete-event simulator) into the
callable the paper treats as its unknown function *f*: "the actual
system performance of our distributed stream processor, given all the
configuration parameters chosen" (§III-C).

The objective is concurrency-safe: counters and the memo cache are
guarded by a lock, and every call returns its own
:class:`~repro.storm.metrics.MeasuredRun` (immutable) rather than
stashing it on shared state, so worker threads of an evaluation
executor (:mod:`repro.core.executor`) can call :meth:`measure`
simultaneously.  The objective also pickles; the lock is recreated on
unpickle.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Literal, Mapping, Sequence

from repro.obs import runtime as obs_runtime
from repro.storm.analytic import AnalyticPerformanceModel, CalibrationParams
from repro.storm.cluster import ClusterSpec
from repro.storm.config import TopologyConfig
from repro.storm.faults import FaultPlan
from repro.storm.metrics import MeasuredRun
from repro.storm.noise import NoiseModel
from repro.storm.schedule import WorkloadSchedule
from repro.storm.simulation import DiscreteEventSimulator
from repro.storm.spaces import ConfigCodec
from repro.storm.topology import Topology

Fidelity = Literal["analytic", "des"]


class StormObjective:
    """Callable objective: parameter dict → throughput (tuples/s).

    Parameters
    ----------
    topology, cluster:
        Deployment under test.
    codec:
        Translates optimizer proposals into configurations.
    fidelity:
        ``"analytic"`` (fast closed form; experiment default) or
        ``"des"`` (event-by-event simulation).
    noise:
        Observation noise model shared by both engines.
    faults:
        Optional :class:`~repro.storm.faults.FaultPlan` making the
        substrate misbehave deterministically (docs/ROBUSTNESS.md).
        An active plan makes the objective stochastic for caching
        purposes: a retried crash must not hit a memoized failure.
    memoize:
        Cache :meth:`measure` results keyed on the encoded
        configuration.  Defaults to on for deterministic objectives
        (``noise=None`` and no active faults) — grid ascent and BO
        revisit configurations, and ``repeat_best`` re-runs of a
        deterministic fidelity are pure waste — and off for
        stochastic ones, where each call must draw a fresh
        observation.  Pass an explicit bool to override.
    cache_max_entries:
        Memo-cache bound (least-recently-used eviction).  A long study
        with per-seed keys would otherwise grow the cache without
        bound; ``None`` disables the bound.  Evictions are reported in
        :meth:`cache_info`.
    schedule:
        Optional :class:`~repro.storm.schedule.WorkloadSchedule` making
        the workload time-varying (docs/DRIFT.md).  Evaluations sample
        the schedule at :attr:`workload_time_s` (advance it with
        :meth:`set_workload_time`), and the memo-cache key gains a time
        component so the same configuration measured at different
        workload instants never collides.
    """

    def __init__(
        self,
        topology: Topology,
        cluster: ClusterSpec,
        codec: ConfigCodec,
        *,
        fidelity: Fidelity = "analytic",
        calibration: CalibrationParams | None = None,
        noise: NoiseModel | None = None,
        seed: int | None = None,
        des_kwargs: Mapping[str, object] | None = None,
        faults: FaultPlan | None = None,
        memoize: bool | None = None,
        cache_max_entries: int | None = 50_000,
        schedule: WorkloadSchedule | None = None,
    ) -> None:
        self.topology = topology
        self.cluster = cluster
        self.codec = codec
        self.fidelity = fidelity
        self.schedule = schedule
        self.workload_time_s = 0.0
        if fidelity == "analytic":
            self.engine = AnalyticPerformanceModel(
                topology,
                cluster,
                calibration=calibration,
                noise=noise,
                seed=seed,
                faults=faults,
                schedule=schedule,
            )
        elif fidelity == "des":
            self.engine = DiscreteEventSimulator(
                topology,
                cluster,
                calibration=calibration,
                noise=noise,
                seed=seed,
                faults=faults,
                schedule=schedule,
                **dict(des_kwargs or {}),
            )
        else:
            raise ValueError(f"unknown fidelity {fidelity!r}")
        faulty = faults is not None and faults.active
        self.memoize = (
            (noise is None and not faulty) if memoize is None else bool(memoize)
        )
        self._noisy = noise is not None or faulty
        self.n_evaluations = 0
        self.n_engine_evaluations = 0
        if cache_max_entries is not None and cache_max_entries < 1:
            raise ValueError("cache_max_entries must be >= 1 or None")
        self.cache_max_entries = cache_max_entries
        self._cache: OrderedDict[bytes, MeasuredRun] = OrderedDict()
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_evictions = 0
        self._lock = threading.Lock()

    def __getstate__(self) -> dict[str, object]:
        state = self.__dict__.copy()
        del state["_lock"]  # locks do not pickle; recreated on load
        return state

    def __setstate__(self, state: dict[str, object]) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Memo cache (LRU); callers hold self._lock.
    # ------------------------------------------------------------------
    def _cache_get(self, key: bytes) -> MeasuredRun | None:
        run = self._cache.get(key)
        if run is not None:
            self._cache.move_to_end(key)
        return run

    def _cache_put(self, key: bytes, run: MeasuredRun) -> None:
        self._cache[key] = run
        self._cache.move_to_end(key)
        if self.cache_max_entries is not None:
            while len(self._cache) > self.cache_max_entries:
                self._cache.popitem(last=False)
                self.cache_evictions += 1

    def _cache_key(self, params: Mapping[str, object], seed: int | None) -> bytes:
        """Stable key: the unit-cube encoding of the proposal.

        For noisy objectives the per-evaluation seed joins the key —
        two draws of the same configuration under different seeds are
        different observations and must not collide.  Deterministic
        objectives keep the bare encoding so revisits always hit.
        """
        key = self.codec.space.encode(params).tobytes()
        if self._noisy and seed is not None:
            key += b"|" + str(seed).encode("ascii")
        if self.schedule is not None:
            key += b"|t" + repr(self.workload_time_s).encode("ascii")
        return key

    def measure(
        self, params: Mapping[str, object], *, seed: int | None = None
    ) -> MeasuredRun:
        """Full metrics for one proposal (throughput, network, latency).

        ``seed``, when given, draws this evaluation's observation noise
        from its own stream instead of the engine's shared one — the
        value becomes a pure function of (params, seed), so concurrent
        evaluations replay identically regardless of completion order.
        """
        ctx = obs_runtime.current()
        with self._lock:
            self.n_evaluations += 1
        with ctx.tracer.span("objective.measure", fidelity=self.fidelity) as span:
            key = None
            if self.memoize:
                key = self._cache_key(params, seed)
                with self._lock:
                    cached = self._cache_get(key)
                    if cached is not None:
                        self.cache_hits += 1
                    else:
                        self.cache_misses += 1
                if cached is not None:
                    span.set_attribute("cache_hit", True)
                    return cached
            config = self.codec.decode(params)
            with self._lock:
                self.n_engine_evaluations += 1
            run = self._engine_evaluate(config, seed)
            if run.failed:
                span.set_attribute("failed", True)
                ctx.tracer.event(
                    "objective.failure",
                    fidelity=self.fidelity,
                    reason=run.failure_reason,
                )
            if key is not None:
                with self._lock:
                    self._cache_put(key, run)
        self._publish_cache_gauges(ctx)
        return run

    @property
    def supports_batch_fast_path(self) -> bool:
        """Whether :meth:`measure_batch` is one vectorized engine pass.

        True only for the analytic fidelity — the executors use this to
        route homogeneous batches through a single call instead of N
        submits.  The DES has no vectorized form; batching it would
        serialize what a thread pool could overlap.
        """
        return self.fidelity == "analytic"

    def measure_batch(
        self,
        params_list: Sequence[Mapping[str, object]],
        *,
        seeds: Sequence[int | None] | None = None,
    ) -> list[MeasuredRun]:
        """Measure many proposals in one pass; returns runs in order.

        Semantically identical to ``[measure(p, seed=s) for p, s in
        zip(params_list, seeds)]`` — same cache hit/miss accounting,
        same per-evaluation noise/fault streams, bit-identical
        observations — but the engine mechanics run as one vectorized
        batch (span ``engine.analytic.evaluate_batch``) when the engine
        supports it.  Duplicate proposals within a batch are evaluated
        once and counted as a miss then hits, exactly as a serial loop
        over the memo cache would.
        """
        params_list = list(params_list)
        n = len(params_list)
        if seeds is not None:
            seeds = list(seeds)
            if len(seeds) != n:
                raise ValueError("seeds must match params_list in length")
        if n == 0:
            return []
        ctx = obs_runtime.current()
        with self._lock:
            self.n_evaluations += n
        with ctx.tracer.span(
            "objective.measure_batch", fidelity=self.fidelity, n=n
        ) as span:
            results: list[MeasuredRun | None] = [None] * n
            keys: list[bytes | None] = [None] * n
            misses: list[int] = []
            dup_of: dict[int, int] = {}
            if self.memoize:
                first_for_key: dict[bytes, int] = {}
                hits = 0
                with self._lock:
                    for i, params in enumerate(params_list):
                        key = self._cache_key(
                            params, seeds[i] if seeds is not None else None
                        )
                        keys[i] = key
                        cached = self._cache_get(key)
                        if cached is not None:
                            self.cache_hits += 1
                            hits += 1
                            results[i] = cached
                        elif key in first_for_key:
                            # A serial loop would have cached the first
                            # occurrence by now; count the revisit as a
                            # hit and share its result.
                            self.cache_hits += 1
                            hits += 1
                            dup_of[i] = first_for_key[key]
                        else:
                            self.cache_misses += 1
                            first_for_key[key] = i
                            misses.append(i)
                span.set_attribute("cache_hits", hits)
            else:
                misses = list(range(n))

            if misses:
                configs = []
                for i in misses:
                    try:
                        configs.append(self.codec.decode(params_list[i]))
                    except Exception as exc:
                        # Let batch callers attribute the failure to the
                        # right submission (see executor fast paths).
                        exc._repro_batch_index = i  # type: ignore[attr-defined]
                        raise
                miss_seeds = (
                    [seeds[i] for i in misses] if seeds is not None else None
                )
                with self._lock:
                    self.n_engine_evaluations += len(misses)
                engine_batch = getattr(self.engine, "evaluate_batch", None)
                if callable(engine_batch):
                    if self.schedule is not None:
                        runs = engine_batch(
                            configs,
                            seeds=miss_seeds,
                            workload_time_s=self.workload_time_s,
                        )
                    else:
                        runs = engine_batch(configs, seeds=miss_seeds)
                else:
                    runs = [
                        self._engine_evaluate(
                            config,
                            miss_seeds[k] if miss_seeds is not None else None,
                        )
                        for k, config in enumerate(configs)
                    ]
                for k, i in enumerate(misses):
                    run = runs[k]
                    results[i] = run
                    if run.failed:
                        ctx.tracer.event(
                            "objective.failure",
                            fidelity=self.fidelity,
                            reason=run.failure_reason,
                        )
                if self.memoize:
                    with self._lock:
                        for i in misses:
                            assert keys[i] is not None and results[i] is not None
                            self._cache_put(keys[i], results[i])
            for i, j in dup_of.items():
                results[i] = results[j]
        assert all(run is not None for run in results)
        self._publish_cache_gauges(ctx)
        return results  # type: ignore[return-value]

    def measure_config(
        self, config: TopologyConfig, *, seed: int | None = None
    ) -> MeasuredRun:
        """Bypass the codec (and the evaluation cache) and measure a
        concrete configuration."""
        with self._lock:
            self.n_evaluations += 1
            self.n_engine_evaluations += 1
        return self._engine_evaluate(config, seed)

    def _engine_evaluate(
        self, config: TopologyConfig, seed: int | None
    ) -> MeasuredRun:
        """One engine call, threading the workload clock when scheduled.

        The kwarg is only passed under a schedule so engines without
        drift support (and the static fast path) stay byte-identical.
        """
        if self.schedule is not None:
            return self.engine.evaluate(
                config, seed=seed, workload_time_s=self.workload_time_s
            )
        return self.engine.evaluate(config, seed=seed)

    def set_workload_time(self, t_s: float) -> None:
        """Advance the workload clock for subsequent evaluations."""
        with self._lock:
            self.workload_time_s = float(t_s)

    def cache_info(self) -> dict[str, object]:
        """Evaluation-cache telemetry (threaded into result metadata)."""
        with self._lock:
            return {
                "enabled": self.memoize,
                "hits": self.cache_hits,
                "misses": self.cache_misses,
                "size": len(self._cache),
                "evictions": self.cache_evictions,
                "max_entries": self.cache_max_entries,
            }

    def _publish_cache_gauges(self, ctx) -> None:
        """Mirror :meth:`cache_info` into obs gauges after each measure.

        Gauges (not counters) because the underlying tallies are
        cumulative already; repeated sets are idempotent and merge as a
        max across processes.
        """
        if not self.memoize:
            return
        with self._lock:
            hits = self.cache_hits
            misses = self.cache_misses
            evictions = self.cache_evictions
            size = len(self._cache)
        metrics = ctx.metrics
        metrics.gauge("objective.cache.hits").set(float(hits))
        metrics.gauge("objective.cache.misses").set(float(misses))
        metrics.gauge("objective.cache.evictions").set(float(evictions))
        metrics.gauge("objective.cache.size").set(float(size))
        total = hits + misses
        metrics.gauge("objective.cache.hit_ratio").set(
            hits / total if total else 0.0
        )

    def __call__(self, params: Mapping[str, object]) -> float:
        return self.measure(params).throughput_tps
