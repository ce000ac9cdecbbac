"""Tuning results, convergence traces, and the tuning loop."""

from __future__ import annotations


import pytest

from repro.core.baselines import GridAscentOptimizer, ParallelLinearAscent
from repro.core.history import (
    Observation,
    TuningResult,
    best_of,
    convergence_spread,
)
from repro.core.loop import TuningLoop


def make_result(values, strategy="test"):
    result = TuningResult(strategy=strategy)
    for i, v in enumerate(values):
        result.observations.append(
            Observation(step=i, config={"h": i + 1}, value=v)
        )
    return result


class TestObservation:
    def test_validation(self):
        with pytest.raises(ValueError):
            Observation(step=-1, config={}, value=0.0)

    def test_serialization_roundtrip(self):
        obs = Observation(step=3, config={"h": 2}, value=1.5, suggest_seconds=0.1)
        again = Observation.from_dict(obs.as_dict())
        assert again == obs


class TestTuningResult:
    def test_best_step_is_first_occurrence(self):
        result = make_result([1.0, 5.0, 3.0, 5.0])
        assert result.best_value == 5.0
        assert result.best_step == 2  # 1-based, first occurrence
        assert result.best_config == {"h": 2}

    def test_best_so_far_monotone(self):
        result = make_result([3.0, 1.0, 4.0, 2.0])
        trace = result.best_so_far()
        assert trace == [3.0, 3.0, 4.0, 4.0]
        assert all(b >= a for a, b in zip(trace, trace[1:]))

    def test_empty_result_raises(self):
        with pytest.raises(ValueError):
            TuningResult(strategy="x").best_observation()

    def test_rerun_summary_falls_back_to_best(self):
        result = make_result([2.0, 7.0])
        assert result.rerun_summary() == (7.0, 7.0, 7.0)

    def test_rerun_summary_uses_reruns(self):
        result = make_result([2.0])
        result.best_rerun_values = [1.0, 2.0, 3.0]
        mean, lo, hi = result.rerun_summary()
        assert (mean, lo, hi) == (2.0, 1.0, 3.0)

    def test_serialization_roundtrip(self, tmp_path):
        result = make_result([1.0, 2.0])
        result.best_rerun_values = [2.0, 2.1]
        result.metadata["size"] = "small"
        path = tmp_path / "result.json"
        result.save(path)
        again = TuningResult.load(path)
        assert again.strategy == result.strategy
        assert again.values() == result.values()
        assert again.best_rerun_values == result.best_rerun_values
        assert again.metadata == result.metadata

    def test_mean_suggest_seconds(self):
        result = TuningResult(strategy="x")
        assert result.mean_suggest_seconds() == 0.0
        result.observations = [
            Observation(step=0, config={}, value=1.0, suggest_seconds=0.2),
            Observation(step=1, config={}, value=1.0, suggest_seconds=0.4),
        ]
        assert result.mean_suggest_seconds() == pytest.approx(0.3)


class TestAggregates:
    def test_best_of_picks_highest(self):
        a = make_result([1.0, 3.0])
        b = make_result([2.0, 2.5])
        assert best_of([a, b]) is a

    def test_best_of_empty_raises(self):
        with pytest.raises(ValueError):
            best_of([])

    def test_convergence_spread(self):
        a = make_result([1.0, 5.0])  # best step 2
        b = make_result([6.0, 2.0])  # best step 1
        lo, avg, hi = convergence_spread([a, b])
        assert (lo, avg, hi) == (1, 1.5, 2)


class TestTuningLoop:
    def test_runs_and_records_timing(self):
        opt = GridAscentOptimizer([{"h": i} for i in range(1, 6)])
        loop = TuningLoop(lambda c: float(c["h"]), opt, max_steps=5)
        result = loop.run()
        assert result.n_steps == 5
        assert result.best_value == 5.0
        assert all(o.suggest_seconds >= 0 for o in result.observations)
        assert all(o.evaluate_seconds >= 0 for o in result.observations)

    def test_respects_optimizer_stop(self):
        opt = GridAscentOptimizer(
            [{"h": i} for i in range(1, 20)], stop_after_zeros=3
        )
        loop = TuningLoop(lambda c: 0.0, opt, max_steps=19)
        result = loop.run()
        assert result.n_steps == 3
        assert result.metadata["stopped_early"]

    def test_repeat_best_reevaluates_best_config(self):
        opt = GridAscentOptimizer([{"h": i} for i in range(1, 4)])
        calls = []

        def objective(c):
            calls.append(dict(c))
            return float(c["h"])

        loop = TuningLoop(objective, opt, max_steps=3, repeat_best=4)
        result = loop.run()
        assert len(result.best_rerun_values) == 4
        assert calls[-4:] == [{"h": 3}] * 4

    def test_max_steps_truncates(self):
        opt = GridAscentOptimizer([{"h": i} for i in range(1, 100)])
        result = TuningLoop(lambda c: 1.0, opt, max_steps=7).run()
        assert result.n_steps == 7

    def test_validation(self):
        opt = GridAscentOptimizer([{"h": 1}])
        with pytest.raises(ValueError):
            TuningLoop(lambda c: 1.0, opt, max_steps=0)
        with pytest.raises(ValueError):
            TuningLoop(lambda c: 1.0, opt, max_steps=1, repeat_best=-1)

    def test_strategy_name_defaults_to_class(self):
        opt = ParallelLinearAscent("h", [1, 2])
        result = TuningLoop(lambda c: 1.0, opt, max_steps=2).run()
        assert result.strategy == "ParallelLinearAscent"


class TestPatience:
    """The loop has no early stop: a stale run still spends its budget."""

    def test_no_patience_runs_full_budget(self):
        opt = GridAscentOptimizer([{"h": i} for i in range(1, 10)])
        result = TuningLoop(lambda c: 1.0, opt, max_steps=9).run()
        assert result.n_steps == 9
        assert not result.metadata["stopped_early"]

    def test_validation(self):
        """The retired early-stop keywords fail loudly, not silently."""
        opt = GridAscentOptimizer([{"h": 1}])
        with pytest.raises(TypeError):
            TuningLoop(lambda c: 1.0, opt, max_steps=1, patience=5)
        with pytest.raises(TypeError):
            TuningLoop(lambda c: 1.0, opt, max_steps=1, min_improvement=0.1)
