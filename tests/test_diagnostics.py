"""Online BO model-quality diagnostics: tracker, emission, loop wiring."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import obs
from repro.core.diagnostics import Z_95, DiagnosticsTracker, StepDiagnostics
from repro.core.loop import TuningLoop
from repro.core.optimizer import BayesianOptimizer
from repro.core.parameters import IntParameter, ParameterSpace
from repro.experiments.presets import SYNTHETIC_BASE_CONFIG
from repro.obs.diagnostics import DIAG_EVENT, extract_diagnostics
from repro.storm.cluster import paper_cluster
from repro.storm.objective import StormObjective
from repro.storm.spaces import ParallelismCodec
from repro.topology_gen.suite import make_topology


class _FixedPredictor:
    """An 'optimizer' whose predictive distribution is scripted."""

    def __init__(self, predictions):
        self._predictions = iter(predictions)
        self.last_acquisition_value = None

    def predict_config(self, config, *, include_noise=False):
        return next(self._predictions)


# ----------------------------------------------------------------------
# Tracker arithmetic against hand-computed values
# ----------------------------------------------------------------------
class TestTrackerScoring:
    def test_residual_coverage_and_nlpd_match_formulas(self):
        # (mu, sd) scripted so z = 1.0, 3.0, 0.0 for values 11, 13, 10.
        predictor = _FixedPredictor([(10.0, 1.0), (10.0, 1.0), (10.0, 2.0)])
        tracker = DiagnosticsTracker(predictor)
        d1 = tracker.observe(step=0, config={"p": 1}, value=11.0)
        d2 = tracker.observe(step=1, config={"p": 2}, value=13.0)
        d3 = tracker.observe(step=2, config={"p": 3}, value=10.0)
        assert d1.residual_z == pytest.approx(1.0)
        assert d2.residual_z == pytest.approx(3.0)
        assert d3.residual_z == pytest.approx(0.0)
        assert d1.in_interval_95 and d3.in_interval_95
        assert not d2.in_interval_95  # |z|=3 > 1.96
        # Running coverage after each tell: 1/1, 1/2, 2/3.
        assert d1.coverage_95 == pytest.approx(1.0)
        assert d2.coverage_95 == pytest.approx(0.5)
        assert d3.coverage_95 == pytest.approx(2.0 / 3.0)
        # NLPD = 0.5 (log 2 pi sd^2 + z^2), checked on the first tell.
        assert d1.nlpd == pytest.approx(
            0.5 * (math.log(2.0 * math.pi * 1.0) + 1.0)
        )
        summary = tracker.summary()
        assert summary["n_tells"] == 3
        assert summary["n_scored"] == 3
        assert summary["coverage_95"] == pytest.approx(2.0 / 3.0)
        assert summary["residual_z_mean"] == pytest.approx(4.0 / 3.0)
        assert summary["best_value"] == 13.0

    def test_z95_is_the_normal_quantile(self):
        # 95% two-sided: Phi(1.959964) - Phi(-1.959964) ~= 0.95.
        assert Z_95 == pytest.approx(1.959964, abs=1e-6)

    def test_unfitted_or_failed_tells_are_counted_not_scored(self):
        predictor = _FixedPredictor([None, (5.0, 1.0)])
        tracker = DiagnosticsTracker(predictor)
        d1 = tracker.observe(step=0, config={}, value=1.0)  # no prediction
        d2 = tracker.observe(step=1, config={}, value=2.0, failed=True)
        assert d1.residual_z is None and d2.residual_z is None
        assert tracker.n_tells == 2
        assert tracker.n_scored == 0
        assert tracker.coverage_95 is None
        assert "coverage_95" not in tracker.summary()

    def test_failed_value_never_becomes_best(self):
        tracker = DiagnosticsTracker(_FixedPredictor([None, None]))
        tracker.observe(step=0, config={}, value=-1e9, failed=True)
        diag = tracker.observe(step=1, config={}, value=5.0)
        assert diag.best_value == 5.0

    def test_acquisition_decay_first_vs_last(self):
        predictor = _FixedPredictor([None, None, None])
        tracker = DiagnosticsTracker(predictor)
        for step, acq in enumerate((8.0, 4.0, 2.0)):
            predictor.last_acquisition_value = acq
            tracker.observe(step=step, config={}, value=float(step))
        summary = tracker.summary()
        assert summary["acquisition_first"] == 8.0
        assert summary["acquisition_last"] == 2.0
        assert summary["acquisition_decay"] == pytest.approx(0.75)

    def test_as_attrs_drops_none_fields(self):
        diag = StepDiagnostics(step=3, value=1.0, best_value=1.0)
        attrs = diag.as_attrs()
        assert attrs == {
            "step": 3,
            "value": 1.0,
            "best_value": 1.0,
            "failed": False,
        }


# ----------------------------------------------------------------------
# Noise-free analytic reference / incumbent regret
# ----------------------------------------------------------------------
class TestAnalyticReference:
    @pytest.fixture(scope="class")
    def storm(self):
        topology = make_topology("small")
        cluster = paper_cluster()
        codec = ParallelismCodec(topology, cluster, SYNTHETIC_BASE_CONFIG)
        objective = StormObjective(topology, cluster, codec)
        return codec, objective

    def test_regret_against_reference_pool(self, storm):
        codec, objective = storm
        optimizer = BayesianOptimizer(codec.space, seed=0)
        tracker = DiagnosticsTracker(
            optimizer, objective=objective, reference_pool=64
        )
        config = optimizer.ask()
        diag = tracker.observe(
            step=0, config=config, value=objective(config)
        )
        assert diag.reference_optimum is not None
        assert diag.incumbent_noise_free is not None
        assert diag.incumbent_regret is not None
        # The pool optimum dominates any single sampled incumbent often,
        # but never by construction — regret can be slightly negative
        # when BO's first point beats the 64-point pool.  It is still a
        # finite relative gap.
        assert math.isfinite(diag.incumbent_regret)
        gap = diag.reference_optimum - diag.incumbent_noise_free
        assert diag.incumbent_regret == pytest.approx(
            gap / abs(diag.reference_optimum)
        )

    def test_incumbent_score_cached_between_non_improving_tells(self, storm):
        codec, objective = storm
        optimizer = BayesianOptimizer(codec.space, seed=1)
        tracker = DiagnosticsTracker(
            optimizer, objective=objective, reference_pool=32
        )
        config = optimizer.ask()
        value = objective(config)
        tracker.observe(step=0, config=config, value=value)
        calls = {"n": 0}
        original = objective.engine.evaluate_noise_free

        def counting(*a, **kw):
            calls["n"] += 1
            return original(*a, **kw)

        objective.engine.evaluate_noise_free = counting
        try:
            # A strictly worse tell must not touch the analytic engine.
            tracker.observe(step=1, config=config, value=value - 1.0)
            assert calls["n"] == 0
            # An improving tell re-scores the new incumbent once.
            tracker.observe(step=2, config=config, value=value + 1.0)
            assert calls["n"] == 1
        finally:
            objective.engine.evaluate_noise_free = original

    def test_plain_callable_objective_degrades_gracefully(self):
        space = ParameterSpace([IntParameter("p", 1, 8)])
        optimizer = BayesianOptimizer(space, seed=0)
        tracker = DiagnosticsTracker(
            optimizer, objective=lambda cfg: float(cfg["p"])
        )
        diag = tracker.observe(step=0, config={"p": 3}, value=3.0)
        assert diag.reference_optimum is None
        assert diag.incumbent_regret is None
        assert "incumbent_regret" not in tracker.summary()


# ----------------------------------------------------------------------
# Optimizer predict_config surface
# ----------------------------------------------------------------------
class TestPredictConfig:
    def test_unfitted_and_invalid_configs_return_none(self):
        space = ParameterSpace([IntParameter("p", 1, 8)])
        optimizer = BayesianOptimizer(space, seed=0)
        assert optimizer.predict_config({"p": 3}) is None  # unfitted
        for _ in range(4):
            config = optimizer.ask()
            optimizer.tell(config, float(config["p"]))
        assert optimizer.predict_config({"nope": 1}) is None
        assert optimizer.predict_config({"p": 99}) is None

    def test_noise_widens_predictive_std(self):
        space = ParameterSpace([IntParameter("p", 1, 8)])
        optimizer = BayesianOptimizer(space, seed=0)
        for _ in range(5):
            config = optimizer.ask()
            optimizer.tell(config, float(config["p"]))
        mu_l, sd_latent = optimizer.predict_config({"p": 4})
        mu_n, sd_noisy = optimizer.predict_config({"p": 4}, include_noise=True)
        assert mu_l == mu_n
        assert sd_noisy >= sd_latent
        assert sd_noisy == pytest.approx(
            math.hypot(sd_latent, optimizer.gp.observation_noise_std)
        )


# ----------------------------------------------------------------------
# TuningLoop wiring: gating, emission, metadata
# ----------------------------------------------------------------------
class TestLoopWiring:
    def _loop(self, diagnostics, steps=6):
        topology = make_topology("small")
        cluster = paper_cluster()
        codec = ParallelismCodec(topology, cluster, SYNTHETIC_BASE_CONFIG)
        objective = StormObjective(topology, cluster, codec)
        optimizer = BayesianOptimizer(codec.space, seed=3)
        return TuningLoop(
            objective,
            optimizer,
            max_steps=steps,
            seed=3,
            diagnostics=diagnostics,
        )

    def test_no_session_emits_no_diagnostics(self):
        result = self._loop(diagnostics=None).run()
        assert "diagnostics" not in result.metadata

    def test_session_emits_diag_events_and_metadata(self):
        with obs.session(memory=True) as ctx:
            result = self._loop(diagnostics=None).run()
            events = list(ctx.sinks[0].events)
        diags = extract_diagnostics(events)
        assert len(diags) == 6
        assert all(d["step"] >= 0 for d in diags)
        # Once the GP is fitted, tells carry calibration fields.
        scored = [d for d in diags if "residual_z" in d]
        assert scored, "no tell was scored against the surrogate"
        assert {"predicted_mean", "predicted_std", "nlpd"} <= set(scored[-1])
        summary = result.metadata["diagnostics"]
        assert summary["n_tells"] == 6
        assert summary["n_scored"] == len(scored)
        # diag.* metrics landed in the registry.
        assert ctx.metrics.counter("diag.tells").value == 6
        names = {e.get("name") for e in events if e.get("type") == "event"}
        assert DIAG_EVENT in names

    def test_forced_on_without_session_fills_metadata_only(self):
        result = self._loop(diagnostics=True).run()
        summary = result.metadata["diagnostics"]
        assert summary["n_tells"] == 6
        assert "reference_optimum" in summary

    def test_forced_off_inside_session_suppresses_diagnostics(self):
        with obs.session(memory=True) as ctx:
            result = self._loop(diagnostics=False).run()
            events = list(ctx.sinks[0].events)
        assert "diagnostics" not in result.metadata
        assert not extract_diagnostics(events)

    def test_residuals_are_out_of_sample(self):
        """Scores come from the pre-tell posterior: a GP that has already
        absorbed the point would report |z| ~= 0 everywhere."""
        with obs.session(memory=True) as ctx:
            self._loop(diagnostics=None, steps=10).run()
            events = list(ctx.sinks[0].events)
        zs = [
            abs(d["residual_z"])
            for d in extract_diagnostics(events)
            if "residual_z" in d
        ]
        assert max(zs) > 1e-3, f"implausibly perfect one-step residuals: {zs}"


def test_diag_attrs_survive_jsonl_round_trip(tmp_path):
    """diag.* event payloads are plain JSON after the sink's coercion."""
    path = tmp_path / "run.jsonl"
    topology = make_topology("small")
    cluster = paper_cluster()
    codec = ParallelismCodec(topology, cluster, SYNTHETIC_BASE_CONFIG)
    objective = StormObjective(topology, cluster, codec)
    optimizer = BayesianOptimizer(codec.space, seed=5)
    with obs.session(jsonl_path=path):
        TuningLoop(
            objective, optimizer, max_steps=5, seed=5, diagnostics=None
        ).run()
    diags = extract_diagnostics(obs.read_jsonl(path))
    assert len(diags) == 5
    for diag in diags:
        for value in diag.values():
            assert isinstance(value, (int, float, bool, str))
            if isinstance(value, float):
                assert math.isfinite(value)
    assert isinstance(np.float64(1.0), float)  # sanity on the coercion claim
