"""Evaluation executors: backends, the objective contract, determinism.

Covers the two backends behind :class:`~repro.core.executor.
EvaluationExecutor` (inline serial, thread pool), the
duck-typed objective call, and the headline guarantee of the batch
refactor: with a loop seed, a concurrent run observes the *same*
(config, value) set as the serial run, in any completion order.
"""

from __future__ import annotations

import pickle
import threading
import time

import pytest

from repro.core.executor import (
    EvaluationOutcome,
    SerialExecutor,
    ThreadPoolExecutor,
    call_objective,
)
from repro.core.loop import TuningLoop
from repro.experiments.presets import SYNTHETIC_BASE_CONFIG, default_cluster
from repro.experiments.runner import make_synthetic_optimizer
from repro.storm.noise import GaussianNoise
from repro.storm.objective import StormObjective
from repro.topology_gen.suite import make_topology


def _plain(params):
    """A bare-callable objective: value encodes the submitted knob."""
    return float(params["x"]) * 10.0


class _RecordingObjective:
    """measure()-style objective that logs calls and their seeds."""

    def __init__(self) -> None:
        self.calls: list[tuple[float, int | None]] = []

    def measure(self, params, *, seed=None):
        self.calls.append((float(params["x"]), seed))

        class Run:
            throughput_tps = float(params["x"]) * 10.0

        return Run()


def _storm_objective(noise=None, seed=None) -> StormObjective:
    topology = make_topology("small")
    cluster = default_cluster()
    _, codec = make_synthetic_optimizer(
        "pla", topology, cluster, SYNTHETIC_BASE_CONFIG, 8, seed=0
    )
    return StormObjective(
        topology, cluster, codec, fidelity="analytic", noise=noise, seed=seed
    )


class TestCallObjective:
    def test_plain_callable(self):
        value, run, seconds = call_objective(_plain, {"x": 3}, seed=123)
        assert value == 30.0
        assert run is None
        assert seconds >= 0.0

    def test_measure_with_seed(self):
        objective = _RecordingObjective()
        value, run, _ = call_objective(objective, {"x": 2}, seed=77)
        assert value == 20.0
        assert run is not None
        assert objective.calls == [(2.0, 77)]

    def test_measure_without_seed(self):
        objective = _RecordingObjective()
        call_objective(objective, {"x": 2}, seed=None)
        assert objective.calls == [(2.0, None)]


class TestSerialExecutor:
    def test_fifo_inline(self):
        with SerialExecutor(_plain) as executor:
            executor.submit(0, {"x": 1})
            executor.submit(1, {"x": 2})
            assert executor.n_pending == 2
            first = executor.wait_one()
            second = executor.wait_one()
        assert (first.eval_id, first.value) == (0, 10.0)
        assert (second.eval_id, second.value) == (1, 20.0)
        assert first.turnaround_seconds >= first.seconds

    def test_wait_without_pending_raises(self):
        with SerialExecutor(_plain) as executor:
            with pytest.raises(RuntimeError, match="no pending"):
                executor.wait_one()

    def test_cancel_pending(self):
        with SerialExecutor(_plain) as executor:
            executor.submit(0, {"x": 1})
            executor.submit(1, {"x": 2})
            assert executor.cancel_pending() == 2
            assert executor.n_pending == 0

    def test_forces_single_worker(self):
        executor = SerialExecutor(_plain)
        assert executor.max_workers == 1
        assert executor.kind == "serial"
        with pytest.raises(TypeError):
            SerialExecutor(_plain, max_workers=8)


class TestThreadPoolExecutor:
    def test_collects_all_outcomes(self):
        with ThreadPoolExecutor(_plain, max_workers=4) as executor:
            assert executor.kind == "thread"
            for i in range(6):
                executor.submit(i, {"x": i})
            outcomes = [executor.wait_one() for _ in range(6)]
        assert executor.n_pending == 0
        assert {o.eval_id for o in outcomes} == set(range(6))
        for outcome in outcomes:
            assert outcome.value == outcome.config["x"] * 10.0

    def test_overlaps_gil_releasing_waits(self):
        """Four sleeping evaluations finish in ~one window, not four."""

        def sleepy(params):
            time.sleep(0.1)
            return 1.0

        with ThreadPoolExecutor(sleepy, max_workers=4) as executor:
            t0 = time.perf_counter()
            for i in range(4):
                executor.submit(i, {"x": i})
            for _ in range(4):
                executor.wait_one()
            wall = time.perf_counter() - t0
        assert wall < 0.35, f"4 x 100ms sleeps took {wall:.2f}s at q=4"

    def test_worker_exception_reraised(self):
        def broken(params):
            raise ZeroDivisionError("engine blew up")

        with ThreadPoolExecutor(broken, max_workers=2) as executor:
            executor.submit(0, {"x": 1})
            with pytest.raises(ZeroDivisionError, match="engine blew up"):
                executor.wait_one()

    def test_seed_threaded_through(self):
        objective = _RecordingObjective()
        with ThreadPoolExecutor(objective, max_workers=2) as executor:
            executor.submit(0, {"x": 5}, seed=42)
            outcome = executor.wait_one()
        assert outcome.seed == 42
        assert objective.calls == [(5.0, 42)]

    def test_thread_safe_storm_objective(self):
        """Concurrent cache hits/misses keep counters consistent."""
        objective = _storm_objective()
        configs = [
            {"uniform_hint": 1 + (i % 3)} for i in range(12)
        ]
        with ThreadPoolExecutor(objective, max_workers=4) as executor:
            for i, params in enumerate(configs):
                executor.submit(i, params)
            outcomes = [executor.wait_one() for _ in range(len(configs))]
        info = objective.cache_info()
        assert info["hits"] + info["misses"] == 12
        by_hint: dict[object, set[float]] = {}
        for outcome in outcomes:
            by_hint.setdefault(outcome.config["uniform_hint"], set()).add(
                outcome.value
            )
        for values in by_hint.values():
            assert len(values) == 1, "same config measured differently"


class TestStormObjectivePickling:
    def test_lock_survives_round_trip(self):
        objective = _storm_objective(noise=GaussianNoise(0.05), seed=3)
        clone = pickle.loads(pickle.dumps(objective))
        assert isinstance(clone._lock, type(threading.Lock()))
        assert clone.measure({"uniform_hint": 2}).throughput_tps > 0.0


class TestSeedDeterminism:
    """Satellite: same loop seed => same observations, serial or q=4."""

    def _observations(self, *, workers: int) -> set[tuple[tuple, float]]:
        objective = _storm_objective(noise=GaussianNoise(0.1), seed=11)
        topology = objective.topology
        cluster = objective.cluster
        optimizer, _ = make_synthetic_optimizer(
            "pla", topology, cluster, SYNTHETIC_BASE_CONFIG, 8, seed=0
        )
        executor = (
            ThreadPoolExecutor(objective, max_workers=workers)
            if workers > 1
            else None
        )
        try:
            loop = TuningLoop(
                objective,
                optimizer,
                max_steps=8,
                executor=executor,
                batch_size=workers if workers > 1 else None,
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

    def test_serial_and_concurrent_observe_identically(self):
        serial = self._observations(workers=1)
        concurrent = self._observations(workers=4)
        assert serial == concurrent

    def test_noise_actually_varies_across_eval_indices(self):
        """Guard against the trivial pass where seeds are ignored."""
        objective = _storm_objective(noise=GaussianNoise(0.1), seed=11)
        values = {
            objective.measure({"uniform_hint": 2}, seed=seed).throughput_tps
            for seed in range(4)
        }
        assert len(values) > 1


def test_outcome_is_frozen():
    outcome = EvaluationOutcome(
        eval_id=0,
        config={"x": 1},
        value=1.0,
        run=None,
        seconds=0.0,
        turnaround_seconds=0.0,
    )
    with pytest.raises(AttributeError):
        outcome.value = 2.0
