"""Bayesian optimizer behaviour: ask/tell, convergence, pause/resume."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.optimizer import BayesianOptimizer, _matches_any_row
from repro.core.parameters import (
    FloatParameter,
    IntParameter,
    ParameterSpace,
)


def quadratic_objective(config):
    """Smooth unimodal test function, max 0 at (0.3, 0.6)."""
    x = np.array([config["x"], config["y"]])
    return -np.sum((x - np.array([0.3, 0.6])) ** 2)


def make_space():
    return ParameterSpace([FloatParameter("x", 0, 1), FloatParameter("y", 0, 1)])


class TestAskTell:
    def test_ask_is_idempotent_until_tell(self):
        opt = BayesianOptimizer(make_space(), seed=0)
        a = opt.ask()
        b = opt.ask()
        assert a == b
        opt.tell(a, 1.0)
        c = opt.ask()
        assert c != a or opt.n_observed == 1

    def test_tell_validates_config(self):
        opt = BayesianOptimizer(make_space(), seed=0)
        with pytest.raises(ValueError):
            opt.tell({"x": 3.0, "y": 0.5}, 1.0)

    def test_initial_design_is_latin_hypercube(self):
        opt = BayesianOptimizer(make_space(), init_points=6, seed=0)
        points = []
        for _ in range(6):
            config = opt.ask()
            points.append(config["x"])
            opt.tell(config, quadratic_objective(config))
        # LHS stratification on the first axis.
        bins = sorted(int(p * 6) for p in points)
        assert len(set(bins)) >= 5

    def test_initial_configs_evaluated_first(self):
        opt = BayesianOptimizer(
            make_space(),
            seed=0,
            initial_configs=[{"x": 0.25, "y": 0.75}],
        )
        first = opt.ask()
        assert first["x"] == pytest.approx(0.25, abs=1e-9)
        assert first["y"] == pytest.approx(0.75, abs=1e-9)

    def test_best_requires_observations(self):
        opt = BayesianOptimizer(make_space(), seed=0)
        with pytest.raises(RuntimeError):
            opt.best()

    def test_best_tracks_maximum(self):
        opt = BayesianOptimizer(make_space(), seed=0)
        for _ in range(5):
            config = opt.ask()
            opt.tell(config, quadratic_objective(config))
        _, best_val = opt.best()
        assert best_val == max(opt.y)

    def test_minimize_mode(self):
        """The optimizer only maximizes: a state saved in minimize mode
        would resume on the wrong objective and is refused."""
        opt = BayesianOptimizer(make_space(), seed=0)
        with pytest.raises(TypeError):
            BayesianOptimizer(make_space(), maximize=False)
        state = {**opt.state_dict(), "maximize": False}
        with pytest.raises(ValueError, match="maximize"):
            BayesianOptimizer.from_state_dict(state)

    def test_never_done(self):
        opt = BayesianOptimizer(make_space(), seed=0)
        assert not opt.done

    def test_avoids_exact_duplicates_on_integer_grid(self):
        space = ParameterSpace([IntParameter("n", 1, 4)])
        opt = BayesianOptimizer(space, init_points=4, seed=0)
        seen = []
        for _ in range(4):
            c = opt.ask()
            seen.append(c["n"])
            opt.tell(c, float(c["n"]))
        # After init, proposals jitter away from already-measured points
        # when possible (4 values, 4 seen: anything goes, just no crash).
        c = opt.ask()
        assert 1 <= c["n"] <= 4


class TestDuplicateCheck:
    """The stacked duplicate check == ``any(np.allclose(x, row))``."""

    @staticmethod
    def _check(x, seen):
        expected = any(np.allclose(x, row) for row in seen)
        got = _matches_any_row(x, seen, 1e-8 + 1e-5 * np.abs(seen))
        assert got == expected
        return got

    def test_exact_duplicates(self, rng):
        seen = rng.random((20, 5))
        for row in seen:
            assert self._check(row.copy(), seen)

    def test_near_duplicates_straddling_the_tolerance(self, rng):
        seen = rng.random((8, 5))
        for row in seen:
            tol = 1e-8 + 1e-5 * np.abs(row)
            for scale, close in ((0.5, True), (0.999, True), (1.001, False), (2.0, False)):
                for d in range(row.size):
                    x = row.copy()
                    x[d] += scale * tol[d]
                    assert self._check(x, seen) is close
                    x = row.copy()
                    x[d] -= scale * tol[d]
                    assert self._check(x, seen) is close

    def test_random_points(self, rng):
        seen = rng.integers(0, 3, size=(30, 3)) / 2.0
        hits = sum(
            self._check(rng.integers(0, 3, size=3) / 2.0, seen) for _ in range(200)
        )
        assert 0 < hits < 200
        for _ in range(50):
            self._check(rng.random(3), seen)


class TestConvergence:
    def test_finds_quadratic_optimum(self):
        opt = BayesianOptimizer(make_space(), init_points=6, seed=3)
        best = -np.inf
        for _ in range(30):
            config = opt.ask()
            value = quadratic_objective(config)
            opt.tell(config, value)
            best = max(best, value)
        assert best > -0.01  # within 0.1 of the optimum in each coord

    def test_beats_random_search_on_average(self):
        from repro.core.baselines import RandomSearchOptimizer

        def run(opt, budget=25):
            best = -np.inf
            for _ in range(budget):
                c = opt.ask()
                v = quadratic_objective(c)
                opt.tell(c, v)
                best = max(best, v)
            return best

        bo_scores = [
            run(BayesianOptimizer(make_space(), init_points=6, seed=s))
            for s in range(4)
        ]
        rs_scores = [
            run(RandomSearchOptimizer(make_space(), seed=s)) for s in range(4)
        ]
        assert np.mean(bo_scores) >= np.mean(rs_scores)

    def test_integer_space_convergence(self):
        space = ParameterSpace(
            [IntParameter("a", 1, 20), IntParameter("b", 1, 20)]
        )

        def objective(c):
            return -((c["a"] - 13) ** 2 + (c["b"] - 7) ** 2)

        opt = BayesianOptimizer(space, init_points=8, seed=1)
        best = -np.inf
        for _ in range(40):
            c = opt.ask()
            v = objective(c)
            opt.tell(c, v)
            best = max(best, v)
        assert best >= -8  # within ~2 grid steps of (13, 7)


class TestPauseResume:
    def test_state_roundtrip_preserves_history(self, tmp_path):
        opt = BayesianOptimizer(make_space(), init_points=4, seed=7)
        for _ in range(6):
            c = opt.ask()
            opt.tell(c, quadratic_objective(c))
        path = tmp_path / "state.json"
        opt.save(path)
        resumed = BayesianOptimizer.load(path)
        assert resumed.n_observed == opt.n_observed
        assert np.allclose(np.vstack(resumed.X), np.vstack(opt.X))
        assert resumed.y == opt.y
        assert resumed.best()[1] == opt.best()[1]

    def test_resume_continues_identically(self, tmp_path):
        """Pause/resume must not change the trajectory (same RNG state)."""
        opt_a = BayesianOptimizer(make_space(), init_points=4, seed=11)
        for _ in range(5):
            c = opt_a.ask()
            opt_a.tell(c, quadratic_objective(c))
        path = tmp_path / "state.json"
        opt_a.save(path)
        opt_b = BayesianOptimizer.load(path)
        for _ in range(3):
            ca = opt_a.ask()
            opt_a.tell(ca, quadratic_objective(ca))
            cb = opt_b.ask()
            opt_b.tell(cb, quadratic_objective(cb))
            assert ca.keys() == cb.keys()
            for key in ca:
                assert float(ca[key]) == pytest.approx(float(cb[key]), abs=1e-9)

    def test_resume_preserves_hyperparameters(self, tmp_path):
        opt = BayesianOptimizer(make_space(), init_points=4, seed=5)
        for _ in range(8):
            c = opt.ask()
            opt.tell(c, quadratic_objective(c))
        theta = opt.gp.kernel.theta.copy()
        path = tmp_path / "state.json"
        opt.save(path)
        resumed = BayesianOptimizer.load(path)
        assert np.allclose(resumed.gp.kernel.theta, theta)

    def test_state_with_retired_option_keys_resumes_identically(self, tmp_path):
        """A state saved while ``maximize``/``liar``/``n_restarts`` were
        options, at the values now fixed, resumes to the same ask()."""
        opt = BayesianOptimizer(make_space(), init_points=4, seed=13)
        for _ in range(7):
            c = opt.ask()
            opt.tell(c, quadratic_objective(c))
        path = tmp_path / "state.json"
        opt.save(path)
        legacy = {
            **json.loads(path.read_text()),
            "n_restarts": 2,
            "maximize": True,
            "liar": "constant",
        }
        legacy_path = tmp_path / "legacy.json"
        legacy_path.write_text(json.dumps(legacy))
        proposal = BayesianOptimizer.load(legacy_path).ask()
        assert proposal == BayesianOptimizer.load(path).ask()
        live = opt.ask()
        for key in live:
            assert float(proposal[key]) == pytest.approx(float(live[key]), abs=1e-9)

    def test_state_with_other_n_restarts_is_refused(self):
        opt = BayesianOptimizer(make_space(), seed=0)
        with pytest.raises(ValueError, match="n_restarts"):
            BayesianOptimizer.from_state_dict(
                {**opt.state_dict(), "n_restarts": 5}
            )


def test_seeded_runs_are_deterministic():
    def run(seed):
        opt = BayesianOptimizer(make_space(), init_points=4, seed=seed)
        trace = []
        for _ in range(8):
            c = opt.ask()
            v = quadratic_objective(c)
            opt.tell(c, v)
            trace.append(v)
        return trace

    assert run(42) == run(42)
    assert run(42) != run(43)


def test_invalid_constructor_args():
    with pytest.raises(ValueError):
        BayesianOptimizer(make_space(), init_points=0)
    with pytest.raises(ValueError):
        BayesianOptimizer(make_space(), refit_every=0)
    with pytest.raises(ValueError):
        BayesianOptimizer(make_space(), acquisition="nope")
    with pytest.raises(ValueError):
        BayesianOptimizer(make_space(), kernel="nope")
