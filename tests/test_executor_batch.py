"""Executor batch fast paths over vectorized objectives.

:class:`SerialExecutor` and :class:`ThreadPoolExecutor` route
homogeneous analytic batches through one ``measure_batch`` call instead
of N submits; these tests pin that engagement, the bit-identity of the
outcomes with the scalar path, the exception fallback (batching
disables itself, the failing evaluation keeps its ticket attribution),
and that the determinism regression of PR 3 extends to the batch path:
serial, serial-batched, and thread-batched loops observe the identical
set.
"""

from __future__ import annotations

import threading

import pytest

from repro.core.executor import (
    SerialExecutor,
    ThreadPoolExecutor,
    supports_batch_measurement,
)
from repro.core.loop import TuningLoop
from repro.experiments.presets import SYNTHETIC_BASE_CONFIG, default_cluster
from repro.experiments.runner import make_synthetic_optimizer
from repro.storm.noise import GaussianNoise
from repro.storm.objective import StormObjective
from repro.topology_gen.suite import make_topology


def _storm_objective(noise=None, seed=None, fidelity="analytic") -> StormObjective:
    topology = make_topology("small")
    cluster = default_cluster()
    _, codec = make_synthetic_optimizer(
        "pla", topology, cluster, SYNTHETIC_BASE_CONFIG, 8, seed=0
    )
    return StormObjective(
        topology, cluster, codec, fidelity=fidelity, noise=noise, seed=seed
    )


def _spy_measure_batch(objective) -> list[int]:
    """Shadow measure_batch with a call-size recorder (still vectorized)."""
    sizes: list[int] = []
    original = objective.measure_batch

    def spy(params_list, *, seeds=None):
        sizes.append(len(params_list))
        return original(params_list, seeds=seeds)

    objective.measure_batch = spy
    return sizes


class TestSupportsBatchMeasurement:
    def test_analytic_objective_qualifies(self):
        assert supports_batch_measurement(_storm_objective())

    def test_des_objective_does_not(self):
        objective = _storm_objective(fidelity="des")
        assert callable(objective.measure_batch)
        assert not objective.supports_batch_fast_path
        assert not supports_batch_measurement(objective)

    def test_plain_callable_does_not(self):
        assert not supports_batch_measurement(lambda config: 1.0)


class TestSerialBatchFastPath:
    def test_drains_queue_in_one_batch_call(self):
        objective = _storm_objective()
        sizes = _spy_measure_batch(objective)
        with SerialExecutor(objective) as executor:
            for i, h in enumerate((1, 2, 3, 4)):
                executor.submit(i, {"uniform_hint": h}, seed=i)
            outcomes = [executor.wait_one() for _ in range(4)]
        assert sizes == [4]
        assert [o.eval_id for o in outcomes] == [0, 1, 2, 3]  # FIFO

    def test_outcomes_match_scalar_path(self):
        params = [{"uniform_hint": h} for h in (1, 2, 3, 4)]
        reference = _storm_objective()
        expected = [reference.measure(p, seed=i) for i, p in enumerate(params)]
        with SerialExecutor(_storm_objective()) as executor:
            for i, p in enumerate(params):
                executor.submit(i, p, seed=i)
            outcomes = [executor.wait_one() for _ in range(4)]
        assert [o.run for o in outcomes] == expected
        assert [o.value for o in outcomes] == [
            r.throughput_tps for r in expected
        ]

    def test_single_submission_stays_scalar(self):
        objective = _storm_objective()
        sizes = _spy_measure_batch(objective)
        with SerialExecutor(objective) as executor:
            executor.submit(0, {"uniform_hint": 2})
            executor.wait_one()
        assert sizes == []

    def test_batch_failure_falls_back_with_attribution(self):
        objective = _storm_objective()

        def boom(params_list, *, seeds=None):
            raise RuntimeError("vectorized path exploded")

        objective.measure_batch = boom
        with SerialExecutor(objective) as executor:
            executor.submit(7, {"uniform_hint": 2})
            executor.submit(8, {"uniform_hint": "not-an-int"})
            first = executor.wait_one()  # scalar replay after batch failure
            assert first.eval_id == 7
            assert executor._batch_disabled
            with pytest.raises(Exception) as excinfo:
                executor.wait_one()
            assert excinfo.value._repro_ticket.eval_id == 8

    def test_abandoned_batch_outcome_is_dropped(self):
        objective = _storm_objective()
        with SerialExecutor(objective) as executor:
            executor.submit(0, {"uniform_hint": 1})
            executor.submit(1, {"uniform_hint": 2})
            executor.submit(2, {"uniform_hint": 3})
            first = executor.wait_one()  # drains the batch into _completed
            assert first.eval_id == 0
            assert executor.abandon(1)
            assert executor.wait_one().eval_id == 2
            assert executor.n_pending == 0


class TestThreadPoolBatchFastPath:
    def test_buffers_and_flushes_one_batch_task(self):
        objective = _storm_objective()
        sizes = _spy_measure_batch(objective)
        with ThreadPoolExecutor(objective, max_workers=2) as executor:
            for i, h in enumerate((1, 2, 3, 4)):
                executor.submit(i, {"uniform_hint": h}, seed=i)
            assert executor.n_pending == 4
            outcomes = [executor.wait_one() for _ in range(4)]
        assert sizes == [4]
        assert {o.eval_id for o in outcomes} == {0, 1, 2, 3}

    def test_outcomes_match_scalar_path(self):
        params = [{"uniform_hint": h} for h in (1, 2, 3, 4)]
        reference = _storm_objective()
        expected = {
            i: reference.measure(p, seed=i) for i, p in enumerate(params)
        }
        with ThreadPoolExecutor(_storm_objective(), max_workers=4) as executor:
            for i, p in enumerate(params):
                executor.submit(i, p, seed=i)
            outcomes = [executor.wait_one() for _ in range(4)]
        assert {o.eval_id: o.run for o in outcomes} == expected

    def test_abandon_from_buffer(self):
        objective = _storm_objective()
        with ThreadPoolExecutor(objective, max_workers=2) as executor:
            executor.submit(0, {"uniform_hint": 1})
            executor.submit(1, {"uniform_hint": 2})
            assert executor.abandon(1)
            assert executor.n_pending == 1
            assert executor.wait_one().eval_id == 0
            assert executor.n_pending == 0

    def test_abandon_in_flight_batch_discards_outcome(self):
        objective = _storm_objective()
        with ThreadPoolExecutor(objective, max_workers=2) as executor:
            executor.submit(0, {"uniform_hint": 1})
            executor.submit(1, {"uniform_hint": 2})
            executor.submit(2, {"uniform_hint": 3})
            first = executor.wait_one()  # flushes the batch
            collected = {first.eval_id}
            remaining = {0, 1, 2} - collected
            victim = min(remaining)
            assert executor.abandon(victim)
            survivor = executor.wait_one()
            assert survivor.eval_id == max(remaining)
            assert executor.n_pending == 0

    def test_failed_batch_does_not_resubmit_an_abandoned_ticket(self):
        objective = _storm_objective()
        release = threading.Event()

        def gated_failure(params_list, *, seeds=None):
            release.wait(5.0)
            raise RuntimeError("vectorized path exploded")

        objective.measure_batch = gated_failure
        with ThreadPoolExecutor(objective, max_workers=2) as executor:
            for i, h in enumerate((1, 2, 3)):
                executor.submit(i, {"uniform_hint": h}, seed=i)
            assert executor.try_wait_one(0.0) is None  # batch in flight
            assert executor.abandon(1)
            release.set()
            outcomes = [executor.wait_one() for _ in range(2)]
            assert {o.eval_id for o in outcomes} == {0, 2}
            assert executor.n_pending == 0

    def test_batch_failure_resubmits_singles_with_attribution(self):
        objective = _storm_objective()
        original = objective.measure_batch
        calls = {"n": 0}

        def flaky(params_list, *, seeds=None):
            calls["n"] += 1
            raise RuntimeError("vectorized path exploded")

        objective.measure_batch = flaky
        with ThreadPoolExecutor(objective, max_workers=2) as executor:
            executor.submit(0, {"uniform_hint": 1}, seed=0)
            executor.submit(1, {"uniform_hint": 2}, seed=1)
            outcomes = [executor.wait_one() for _ in range(2)]
            assert executor._batch_disabled
        assert calls["n"] == 1
        assert {o.eval_id for o in outcomes} == {0, 1}
        expected = _storm_objective()
        by_id = {o.eval_id: o.run for o in outcomes}
        assert by_id[0] == expected.measure({"uniform_hint": 1}, seed=0)
        assert by_id[1] == expected.measure({"uniform_hint": 2}, seed=1)
        del original  # silence lints; kept for symmetry with the spy


class TestBatchDeterminismRegression:
    """PR 3's set-identity regression, extended to the batch path."""

    def _observations(self, *, executor_kind: str) -> set[tuple[tuple, float]]:
        objective = _storm_objective(noise=GaussianNoise(0.1), seed=11)
        optimizer, _ = make_synthetic_optimizer(
            "pla",
            objective.topology,
            objective.cluster,
            SYNTHETIC_BASE_CONFIG,
            8,
            seed=0,
        )
        if executor_kind == "none":
            executor = None
        elif executor_kind == "serial-batched":
            executor = SerialExecutor(objective)
        else:
            executor = ThreadPoolExecutor(objective, max_workers=4)
        try:
            loop = TuningLoop(
                objective,
                optimizer,
                max_steps=8,
                executor=executor,
                batch_size=4 if executor is not None else None,
                seed=2024,
            )
            result = loop.run()
        finally:
            if executor is not None:
                executor.close()
        return {
            (tuple(sorted(o.config.items())), o.value)
            for o in result.observations
        }

    def test_serial_and_batched_observe_identically(self):
        serial = self._observations(executor_kind="none")
        serial_batched = self._observations(executor_kind="serial-batched")
        thread_batched = self._observations(executor_kind="thread-batched")
        assert serial == serial_batched == thread_batched

    def test_fast_path_actually_engaged(self):
        """Guard against a silently-dead fast path making the set test
        vacuous."""
        objective = _storm_objective(noise=GaussianNoise(0.1), seed=11)
        sizes = _spy_measure_batch(objective)
        optimizer, _ = make_synthetic_optimizer(
            "pla",
            objective.topology,
            objective.cluster,
            SYNTHETIC_BASE_CONFIG,
            8,
            seed=0,
        )
        with SerialExecutor(objective) as executor:
            loop = TuningLoop(
                objective,
                optimizer,
                max_steps=8,
                executor=executor,
                batch_size=4,
                seed=2024,
            )
            loop.run()
        assert sizes and max(sizes) > 1
