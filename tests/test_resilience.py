"""Resilient evaluation: classification, retries, timeouts, breakers.

Also the failure-propagation chain the robustness work guarantees:
engine failure → ``Observation.failed`` → the loop's
``tuning.failed_evaluations`` counter — identically under the serial,
and thread-pool executors.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from repro.core.executor import SerialExecutor, ThreadPoolExecutor
from repro.core.loop import TuningLoop
from repro.core.optimizer import BayesianOptimizer
from repro.core.parameters import IntParameter, ParameterSpace
from repro.core.resilience import (
    FailedEvaluation,
    ReplicatedObjective,
    ResilientExecutor,
    RetryPolicy,
    classify_failure,
    config_key,
)
from repro.core.seeding import derive_seed
from repro.experiments.presets import SYNTHETIC_BASE_CONFIG, default_cluster
from repro.experiments.runner import make_synthetic_optimizer
from repro.storm.faults import FaultPlan, FaultSpec
from repro.storm.metrics import MeasuredRun
from repro.storm.objective import StormObjective
from repro.topology_gen.suite import make_topology


class FlakyObjective:
    """Fails transiently the first ``fail_first`` measure() calls."""

    def __init__(self, fail_first: int = 1, reason: str = "worker_crash: x"):
        self.fail_first = fail_first
        self.reason = reason
        self.calls: list[tuple[dict, int | None]] = []

    def measure(self, params, *, seed=None):
        self.calls.append((dict(params), seed))
        if len(self.calls) <= self.fail_first:
            return MeasuredRun.failure(self.reason)
        return MeasuredRun(throughput_tps=float(params["x"]) * 10.0)


def _sleepy(params):
    time.sleep(float(params.get("sleep", 0.0)))
    return float(params["x"])


class TestClassifyFailure:
    @pytest.mark.parametrize(
        "reason",
        [
            "worker_crash: died",
            "measurement_window_hang: stuck",
            "evaluation_timeout: exceeded 5s",
            "worker_exception: ValueError: boom",
        ],
    )
    def test_transient(self, reason):
        assert classify_failure(reason) == "transient"

    @pytest.mark.parametrize(
        "reason",
        ["scheduling: no capacity", "batch latency 45634 ms exceeds", ""],
    )
    def test_persistent(self, reason):
        assert classify_failure(reason) == "persistent"


class TestRetryPolicy:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_retries": -1},
            {"timeout_seconds": 0.0},
            {"backoff_multiplier": 0.5},
            {"breaker_threshold": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    def test_backoff_grows_exponentially(self):
        policy = RetryPolicy(
            backoff_base_seconds=0.1, backoff_multiplier=3.0, backoff_jitter=0.0
        )
        assert policy.backoff_seconds(1) == pytest.approx(0.1)
        assert policy.backoff_seconds(2) == pytest.approx(0.3)
        assert policy.backoff_seconds(3) == pytest.approx(0.9)

    def test_jitter_bounded(self):
        policy = RetryPolicy(backoff_base_seconds=1.0, backoff_jitter=0.5)
        rng = np.random.default_rng(0)
        for _ in range(100):
            s = policy.backoff_seconds(1, rng)
            assert 1.0 <= s <= 1.5

    def test_attempt_is_one_based(self):
        with pytest.raises(ValueError):
            RetryPolicy().backoff_seconds(0)


def _resilient(objective, policy, *, seed=None, workers=1, kind="serial"):
    inner = {
        "serial": lambda: SerialExecutor(objective),
        "thread": lambda: ThreadPoolExecutor(objective, max_workers=workers),
    }[kind]()
    return ResilientExecutor(inner, policy, seed=seed)


class TestRetries:
    def test_transient_failure_retried_to_success(self):
        objective = FlakyObjective(fail_first=2)
        policy = RetryPolicy(max_retries=2, backoff_base_seconds=0.0)
        ex = _resilient(objective, policy, seed=0)
        ex.submit(0, {"x": 3}, seed=42)
        outcome = ex.wait_one()
        assert outcome.value == 30.0
        assert not outcome.run.failed
        assert ex.stats["retries"] == 2
        assert ex.stats["transient_failures"] == 2
        assert len(objective.calls) == 3

    def test_retry_uses_derived_seed(self):
        objective = FlakyObjective(fail_first=1)
        policy = RetryPolicy(max_retries=1, backoff_base_seconds=0.0)
        ex = _resilient(objective, policy, seed=0)
        ex.submit(0, {"x": 1}, seed=42)
        ex.wait_one()
        seeds = [seed for _, seed in objective.calls]
        assert seeds == [42, derive_seed(42, "retry", 1)]

    def test_none_seed_stays_none_on_retry(self):
        objective = FlakyObjective(fail_first=1)
        ex = _resilient(
            objective, RetryPolicy(max_retries=1, backoff_base_seconds=0.0)
        )
        ex.submit(0, {"x": 1})
        ex.wait_one()
        assert [seed for _, seed in objective.calls] == [None, None]

    def test_retries_exhausted_surfaces_failure(self):
        objective = FlakyObjective(fail_first=100)
        policy = RetryPolicy(max_retries=2, backoff_base_seconds=0.0)
        ex = _resilient(objective, policy, seed=0)
        ex.submit(0, {"x": 1}, seed=7)
        outcome = ex.wait_one()
        assert outcome.run.failed
        assert outcome.run.failure_reason.startswith("worker_crash")
        assert outcome.value == 0.0
        assert ex.stats["gave_up"] == 1
        assert len(objective.calls) == 3  # 1 original + 2 retries

    def test_persistent_failure_not_retried(self):
        objective = FlakyObjective(
            fail_first=100, reason="scheduling: no capacity"
        )
        ex = _resilient(objective, RetryPolicy(max_retries=5), seed=0)
        ex.submit(0, {"x": 1}, seed=7)
        outcome = ex.wait_one()
        assert outcome.run.failed
        assert ex.stats["retries"] == 0
        assert ex.stats["persistent_failures"] == 1
        assert len(objective.calls) == 1


class TestCircuitBreaker:
    def test_opens_after_threshold_and_short_circuits(self):
        objective = FlakyObjective(
            fail_first=100, reason="scheduling: no capacity"
        )
        policy = RetryPolicy(breaker_threshold=2)
        ex = _resilient(objective, policy, seed=0)
        for eval_id in range(2):
            ex.submit(eval_id, {"x": 1}, seed=eval_id)
            assert ex.wait_one().run.failed
        assert ex.stats["circuit_opens"] == 1
        # Third submission never reaches the substrate.
        ex.submit(2, {"x": 1}, seed=2)
        outcome = ex.wait_one()
        assert outcome.run.failure_reason.startswith("circuit_open")
        assert ex.stats["short_circuits"] == 1
        assert len(objective.calls) == 2

    def test_distinct_configs_have_distinct_circuits(self):
        objective = FlakyObjective(
            fail_first=100, reason="scheduling: no capacity"
        )
        policy = RetryPolicy(breaker_threshold=1)
        ex = _resilient(objective, policy, seed=0)
        ex.submit(0, {"x": 1}, seed=0)
        ex.wait_one()
        ex.submit(1, {"x": 2}, seed=1)  # different config: circuit closed
        outcome = ex.wait_one()
        assert not outcome.run.failure_reason.startswith("circuit_open")
        assert config_key({"x": 1}) != config_key({"x": 2})

    def test_without_cooldown_an_open_circuit_never_recovers(self):
        objective = FlakyObjective(fail_first=1, reason="scheduling: full")
        policy = RetryPolicy(breaker_threshold=1)  # cooldown defaults None
        ex = _resilient(objective, policy, seed=0)
        ex.submit(0, {"x": 1}, seed=0)
        ex.wait_one()
        ex._clock = lambda: 1e9  # any amount of rest
        ex.submit(1, {"x": 1}, seed=1)
        assert ex.wait_one().run.failure_reason.startswith("circuit_open")
        assert len(objective.calls) == 1

    def test_in_flight_success_does_not_reclose_without_cooldown(self):
        # An evaluation submitted before the circuit opened can still
        # succeed afterwards; in classic mode (no cooldown — no probes)
        # that straggler must not reset the breaker: the circuit stays
        # open for the rest of the run.
        objective = FlakyObjective(fail_first=1, reason="scheduling: full")
        policy = RetryPolicy(breaker_threshold=1)  # cooldown defaults None
        ex = _resilient(objective, policy, seed=0)
        ex.submit(0, {"x": 1}, seed=0)  # will fail: opens the circuit
        ex.submit(1, {"x": 1}, seed=1)  # in flight before it opened
        assert ex.wait_one().run.failed
        assert not ex.wait_one().run.failed  # the straggler surfaces...
        assert ex.stats["circuit_closes"] == 0  # ...but never re-closes
        ex.submit(2, {"x": 1}, seed=2)
        assert ex.wait_one().run.failure_reason.startswith("circuit_open")
        assert len(objective.calls) == 2

    def _half_open_executor(self, objective):
        """Breaker at 1 with a 10s cooldown and a settable clock."""
        policy = RetryPolicy(
            breaker_threshold=1, breaker_cooldown_seconds=10.0
        )
        ex = _resilient(objective, policy, seed=0)
        clock = {"now": 0.0}
        ex._clock = lambda: clock["now"]
        return ex, clock

    def test_half_open_probe_success_recloses_the_circuit(self):
        objective = FlakyObjective(fail_first=1, reason="scheduling: full")
        ex, clock = self._half_open_executor(objective)
        ex.submit(0, {"x": 1}, seed=0)
        assert ex.wait_one().run.failed
        assert ex.stats["circuit_opens"] == 1

        # Still resting: submissions short-circuit.
        clock["now"] = 5.0
        ex.submit(1, {"x": 1}, seed=1)
        assert ex.wait_one().run.failure_reason.startswith("circuit_open")

        # Cooldown served: the next submission is a real probe, its
        # success re-closes the circuit, and traffic flows again.
        clock["now"] = 11.0
        ex.submit(2, {"x": 1}, seed=2)
        outcome = ex.wait_one()
        assert not outcome.run.failed
        assert ex.stats["circuit_half_opens"] == 1
        assert ex.stats["circuit_closes"] == 1
        ex.submit(3, {"x": 1}, seed=3)
        assert not ex.wait_one().run.failed
        assert ex.stats["short_circuits"] == 1  # only the resting one

    def test_failed_probe_reopens_for_another_cooldown(self):
        objective = FlakyObjective(fail_first=100, reason="scheduling: full")
        ex, clock = self._half_open_executor(objective)
        ex.submit(0, {"x": 1}, seed=0)
        assert ex.wait_one().run.failed

        clock["now"] = 11.0
        ex.submit(1, {"x": 1}, seed=1)  # probe, fails persistently again
        assert ex.wait_one().run.failed
        assert ex.stats["circuit_half_opens"] == 1
        assert ex.stats["circuit_closes"] == 0

        # Re-armed as of the probe: short-circuits until another rest.
        clock["now"] = 15.0
        ex.submit(2, {"x": 1}, seed=2)
        assert ex.wait_one().run.failure_reason.startswith("circuit_open")
        clock["now"] = 22.0
        ex.submit(3, {"x": 1}, seed=3)
        assert ex.wait_one().run.failure_reason.startswith("scheduling")
        assert ex.stats["circuit_half_opens"] == 2
        assert len(objective.calls) == 3

    def test_cooldown_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(breaker_cooldown_seconds=0.0)
        policy = RetryPolicy(breaker_cooldown_seconds=2.5)
        assert RetryPolicy.from_dict(policy.as_dict()) == policy


class TestControlFlowExceptions:
    """KeyboardInterrupt / SystemExit must re-raise, never retry."""

    @pytest.mark.parametrize("exc_type", [KeyboardInterrupt, SystemExit])
    def test_interrupts_propagate_through_the_resilient_layer(self, exc_type):
        class InterruptingObjective:
            calls = 0

            def measure(self, params, *, seed=None):
                type(self).calls += 1
                raise exc_type()

        objective = InterruptingObjective()
        policy = RetryPolicy(max_retries=5, backoff_base_seconds=0.0)
        ex = _resilient(objective, policy, seed=0)
        ex.submit(0, {"x": 1}, seed=0)
        with pytest.raises(exc_type):
            ex.wait_one()
        assert objective.calls == 1  # never retried

    @pytest.mark.parametrize("exc_type", [KeyboardInterrupt, SystemExit])
    def test_worker_drain_reraises_interrupts(self, exc_type, tmp_path):
        """The fleet worker loop must hand control-flow exceptions to
        the signal layer instead of classifying them as cell failures."""
        import dataclasses as dc

        from repro.service.campaign import CampaignSpec
        from repro.service.queue import run_worker

        @dc.dataclass(frozen=True)
        class Cell:
            cell: str
            lease: tuple | None = None

        def interrupting_cell(cell, store):
            raise exc_type()

        spec = CampaignSpec(
            study="synthetic", store=str(tmp_path / "q.db"), mode="fleet"
        )
        with pytest.raises(exc_type):
            run_worker(
                spec, "w1",
                cells=[Cell("a")], cell_fn=interrupting_cell,
            )


class TestTimeouts:
    def test_thread_timeout_abandons_and_fails(self):
        policy = RetryPolicy(max_retries=0, timeout_seconds=0.1)
        inner = ThreadPoolExecutor(_sleepy, max_workers=2)
        ex = ResilientExecutor(inner, policy, seed=0)
        try:
            ex.submit(0, {"x": 1, "sleep": 5.0})
            t0 = time.perf_counter()
            outcome = ex.wait_one()
            assert time.perf_counter() - t0 < 2.0
            assert outcome.run.failed
            assert outcome.run.failure_reason.startswith("evaluation_timeout")
            assert ex.stats["timeouts"] == 1
        finally:
            ex.close()

    def test_close_does_not_wait_for_an_abandoned_evaluation(self):
        # The abandoned evaluation keeps sleeping on its worker thread;
        # close() must return well before it wakes.  (Short sleep: the
        # interpreter still joins the thread at exit.)
        policy = RetryPolicy(max_retries=0, timeout_seconds=0.1)
        ex = ResilientExecutor(
            ThreadPoolExecutor(_sleepy, max_workers=2), policy, seed=0
        )
        ex.submit(0, {"x": 1, "sleep": 1.0})
        assert ex.wait_one().run.failure_reason.startswith(
            "evaluation_timeout"
        )
        t0 = time.perf_counter()
        ex.close()
        assert time.perf_counter() - t0 < 0.5

    def test_serial_post_hoc_timeout(self):
        policy = RetryPolicy(max_retries=0, timeout_seconds=0.01)
        ex = ResilientExecutor(SerialExecutor(_sleepy), policy, seed=0)
        ex.submit(0, {"x": 1, "sleep": 0.05})
        outcome = ex.wait_one()
        assert outcome.run.failed
        assert outcome.run.failure_reason.startswith("evaluation_timeout")

    def test_fast_evaluations_unaffected(self):
        policy = RetryPolicy(max_retries=0, timeout_seconds=5.0)
        ex = ResilientExecutor(SerialExecutor(_sleepy), policy, seed=0)
        ex.submit(0, {"x": 4})
        outcome = ex.wait_one()
        assert outcome.value == 4.0
        assert ex.stats["timeouts"] == 0


class TestWorkerExceptions:
    def test_exception_becomes_failure(self):
        def broken(params):
            raise ZeroDivisionError("bad math")

        policy = RetryPolicy(max_retries=0)
        ex = ResilientExecutor(SerialExecutor(broken), policy, seed=0)
        ex.submit(0, {"x": 1})
        outcome = ex.wait_one()
        assert outcome.run.failed
        assert outcome.run.failure_reason.startswith(
            "worker_exception: ZeroDivisionError"
        )
        assert ex.stats["worker_exceptions"] == 1

    def test_exception_is_transient_and_retried(self):
        calls = []

        def flaky_exc(params):
            calls.append(1)
            if len(calls) == 1:
                raise ValueError("transient glitch")
            return 5.0

        policy = RetryPolicy(max_retries=1, backoff_base_seconds=0.0)
        ex = ResilientExecutor(SerialExecutor(flaky_exc), policy, seed=0)
        ex.submit(0, {"x": 1})
        outcome = ex.wait_one()
        assert outcome.value == 5.0
        assert ex.stats["retries"] == 1


class TestFailedEvaluationRecord:
    def test_duck_typing(self):
        rec = FailedEvaluation(failure_reason="evaluation_timeout: 5s")
        assert rec.failed
        assert rec.throughput_tps == 0.0
        assert dict(rec.details) == {}


class TestFailureAwareBO:
    def _space(self):
        return ParameterSpace([IntParameter("x", 1, 32)])

    def test_failure_imputed_below_worst(self):
        opt = BayesianOptimizer(self._space(), seed=0)
        opt.tell({"x": 4}, 100.0)
        opt.tell({"x": 8}, 200.0)
        opt.tell_failure({"x": 16}, reason="worker_crash: x")
        assert len(opt.y) == 3
        assert opt.y[-1] < 100.0
        assert math.isfinite(opt.y[-1])
        best_config, best_value = opt.best()
        assert best_value == 200.0

    def test_imputation_excludes_prior_imputations(self):
        opt = BayesianOptimizer(self._space(), seed=0)
        opt.tell({"x": 4}, 100.0)
        opt.tell_failure({"x": 8})
        first = opt.y[-1]
        opt.tell_failure({"x": 16})
        # Anchored to the worst *real* value both times — no spiral.
        assert opt.y[-1] == pytest.approx(first)

    def test_failure_before_any_success(self):
        opt = BayesianOptimizer(self._space(), seed=0)
        opt.tell_failure({"x": 4}, reason="worker_crash: x")
        assert opt.y == [0.0]

    def test_telemetry_counts_failures(self):
        opt = BayesianOptimizer(self._space(), seed=0)
        opt.tell({"x": 4}, 100.0)
        opt.tell_failure({"x": 8}, reason="worker_crash: z")
        t = opt.telemetry
        assert t["failed_observations"] == 1
        assert t["last_failure_reason"] == "worker_crash: z"

    def test_state_dict_round_trips_failure_mask(self):
        opt = BayesianOptimizer(self._space(), seed=0)
        opt.tell({"x": 4}, 100.0)
        opt.tell_failure({"x": 8})
        clone = BayesianOptimizer.from_state_dict(opt.state_dict())
        assert clone._failure_mask == [False, True]
        clone.tell_failure({"x": 16})
        assert clone.y[-1] == pytest.approx(opt.y[-1])

    def test_non_finite_tell_becomes_failure(self):
        opt = BayesianOptimizer(self._space(), seed=0)
        opt.tell({"x": 4}, 100.0)
        opt.tell({"x": 8}, float("nan"))
        opt.tell({"x": 16}, float("inf"))
        assert all(math.isfinite(v) for v in opt.y)
        assert opt.telemetry["failed_observations"] == 2
        assert "non_finite" in opt.telemetry["last_failure_reason"]


class TestNonFiniteLoopRegression:
    def test_nan_objective_recorded_as_failed_observation(self):
        values = iter([10.0, float("nan"), 12.0])

        def sometimes_nan(params):
            return next(values)

        space = ParameterSpace([IntParameter("x", 1, 32)])
        opt = BayesianOptimizer(space, seed=0)
        result = TuningLoop(sometimes_nan, opt, max_steps=3).run()
        failed = [o for o in result.observations if o.failed]
        assert len(failed) == 1
        assert failed[0].failure_reason.startswith("non_finite")
        assert failed[0].value == 0.0
        assert all(math.isfinite(v) for v in opt.y)
        counters = result.metadata["obs_metrics"]["counters"]
        assert counters["tuning.failed_evaluations"] == 1


def _crashing_objective():
    topology = make_topology("small")
    cluster = default_cluster()
    optimizer, codec = make_synthetic_optimizer(
        "pla", topology, cluster, SYNTHETIC_BASE_CONFIG, 6, seed=0
    )
    objective = StormObjective(
        topology,
        cluster,
        codec,
        fidelity="analytic",
        faults=FaultPlan(FaultSpec(crash_rate=1.0)),
    )
    return objective, optimizer


class TestFailurePropagationChain:
    """engine failure → Observation.failed → loop counter, everywhere."""

    @pytest.mark.parametrize("kind", ["serial", "thread"])
    def test_chain_across_executors(self, kind):
        objective, optimizer = _crashing_objective()
        executor = None
        if kind == "thread":
            executor = ThreadPoolExecutor(objective, max_workers=2)
        try:
            loop = TuningLoop(
                objective,
                optimizer,
                max_steps=3,
                strategy_name="pla",
                executor=executor,
                seed=5,
            )
            result = loop.run()
        finally:
            if executor is not None:
                executor.close()
        assert result.observations  # pla's zero-stop rule permits 3 zeros
        assert all(o.failed for o in result.observations)
        assert all(
            o.failure_reason.startswith("worker_crash")
            for o in result.observations
        )
        counters = result.metadata["obs_metrics"]["counters"]
        assert counters["tuning.failed_evaluations"] == len(result.observations)

    def test_loop_resilience_stats_in_metadata(self):
        objective = FlakyObjective(fail_first=1)
        space = ParameterSpace([IntParameter("x", 1, 32)])
        opt = BayesianOptimizer(space, seed=0)
        loop = TuningLoop(
            objective,
            opt,
            max_steps=3,
            seed=9,
            resilience=RetryPolicy(max_retries=2, backoff_base_seconds=0.0),
        )
        result = loop.run()
        stats = result.metadata["resilience"]
        assert stats["retries"] >= 1
        assert not any(o.failed for o in result.observations)
        counters = result.metadata["obs_metrics"]["counters"]
        assert counters["resilience.retries"] == stats["retries"]


class TestReplicatedObjective:
    """Median-of-k replication against silent degradation."""

    class _SeedValued:
        """Deterministic per-seed values; records the seeds it saw."""

        def __init__(self, values):
            self.values = dict(values)
            self.seeds: list[int | None] = []
            self.memoize = False

        def measure(self, params, *, seed=None):
            self.seeds.append(seed)
            value = self.values.get(seed, 100.0)
            if value is None:
                return MeasuredRun.failure("worker_crash: injected")
            return MeasuredRun(throughput_tps=float(value))

    def test_validates_replicates(self):
        with pytest.raises(ValueError):
            ReplicatedObjective(self._SeedValued({}), replicates=0)

    def test_single_replicate_is_passthrough(self):
        inner = self._SeedValued({7: 55.0})
        wrapped = ReplicatedObjective(inner, replicates=1)
        assert wrapped.measure({}, seed=7).throughput_tps == 55.0
        assert inner.seeds == [7]

    def test_median_filters_one_degraded_window(self):
        seed = 42
        reps = [derive_seed(seed, "replicate", i) for i in (1, 2)]
        inner = self._SeedValued({seed: 35.0, reps[0]: 100.0, reps[1]: 100.0})
        wrapped = ReplicatedObjective(inner, replicates=3)
        run = wrapped.measure({}, seed=seed)
        assert run.throughput_tps == 100.0
        assert inner.seeds == [seed, reps[0], reps[1]]

    def test_first_replicate_failure_returned_for_retry_layer(self):
        inner = self._SeedValued({3: None})
        wrapped = ReplicatedObjective(inner, replicates=3)
        run = wrapped.measure({}, seed=3)
        assert run.failed and run.failure_reason.startswith("worker_crash")
        assert inner.seeds == [3]  # no replication of a failed window

    def test_failed_extra_replicates_dropped(self):
        seed = 8
        reps = [derive_seed(seed, "replicate", i) for i in (1, 2)]
        inner = self._SeedValued({seed: 60.0, reps[0]: None, reps[1]: 90.0})
        wrapped = ReplicatedObjective(inner, replicates=3)
        # survivors are 60 and 90; the upper median resists degradation
        assert wrapped.measure({}, seed=seed).throughput_tps == 90.0

    def test_none_seed_passes_through(self):
        inner = self._SeedValued({None: 70.0})
        wrapped = ReplicatedObjective(inner, replicates=2)
        assert wrapped.measure({}, seed=None).throughput_tps == 70.0
        assert inner.seeds == [None, None]

    def test_delegates_attributes(self):
        inner = self._SeedValued({})
        assert ReplicatedObjective(inner).memoize is False
