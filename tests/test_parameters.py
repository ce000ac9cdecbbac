"""Unit and property tests for the parameter-space layer."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.parameters import (
    CategoricalParameter,
    FloatParameter,
    IntParameter,
    ParameterSpace,
    parameter_from_dict,
)


class TestFloatParameter:
    def test_bounds_map_to_unit_interval(self):
        p = FloatParameter("x", 2.0, 10.0)
        assert p.to_unit(2.0) == 0.0
        assert p.to_unit(10.0) == 1.0
        assert p.from_unit(0.0) == 2.0
        assert p.from_unit(1.0) == 10.0

    def test_midpoint(self):
        p = FloatParameter("x", 0.0, 4.0)
        assert p.from_unit(0.5) == pytest.approx(2.0)

    def test_log_scale(self):
        p = FloatParameter("x", 1.0, 100.0, log=True)
        assert p.from_unit(0.5) == pytest.approx(10.0)
        assert p.to_unit(10.0) == pytest.approx(0.5)

    def test_log_requires_positive_low(self):
        with pytest.raises(ValueError):
            FloatParameter("x", 0.0, 1.0, log=True)

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            FloatParameter("x", 1.0, 1.0)

    def test_contains(self):
        p = FloatParameter("x", 0.0, 1.0)
        assert p.contains(0.5)
        assert not p.contains(1.5)
        assert not p.contains("abc")

    def test_out_of_range_unit_clips(self):
        p = FloatParameter("x", 0.0, 1.0)
        assert p.from_unit(2.0) == 1.0
        assert p.from_unit(-1.0) == 0.0

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_from_unit_stays_in_domain(self, u):
        p = FloatParameter("x", -3.0, 7.0)
        v = p.from_unit(u)
        assert -3.0 <= v <= 7.0

    @given(st.floats(min_value=-3.0, max_value=7.0, allow_nan=False))
    def test_roundtrip(self, v):
        p = FloatParameter("x", -3.0, 7.0)
        assert p.from_unit(p.to_unit(v)) == pytest.approx(v, abs=1e-9)


class TestIntParameter:
    def test_extremes(self):
        p = IntParameter("n", 1, 10)
        assert p.from_unit(0.0) == 1
        assert p.from_unit(1.0 - 1e-12) == 10
        assert p.from_unit(1.0) == 10

    def test_every_value_reachable(self):
        p = IntParameter("n", 3, 9)
        values = {p.from_unit(u) for u in np.linspace(0, 1, 1000)}
        assert values == set(range(3, 10))

    def test_roundtrip_all_values(self):
        p = IntParameter("n", 1, 17)
        for v in range(1, 18):
            assert p.from_unit(p.to_unit(v)) == v

    def test_log_scale_roundtrip(self):
        p = IntParameter("n", 1, 100000, log=True)
        for v in (1, 10, 100, 5000, 100000):
            assert p.from_unit(p.to_unit(v)) == v

    def test_contains_rejects_non_integers(self):
        p = IntParameter("n", 1, 10)
        assert p.contains(5)
        assert not p.contains(5.5)
        assert not p.contains(11)

    def test_sample_in_range(self, rng):
        p = IntParameter("n", 2, 6)
        for _ in range(100):
            assert 2 <= p.sample(rng) <= 6

    @given(st.integers(min_value=0, max_value=1000))
    @settings(max_examples=50)
    def test_unit_centres_are_unbiased(self, seed):
        """Uniform unit samples decode to a roughly uniform histogram."""
        p = IntParameter("n", 0, 3)
        rng = np.random.default_rng(seed)
        vals = [p.from_unit(rng.random()) for _ in range(40)]
        assert set(vals) <= {0, 1, 2, 3}


class TestCategoricalParameter:
    def test_roundtrip(self):
        p = CategoricalParameter("g", ["shuffle", "fields", "all"])
        for choice in ["shuffle", "fields", "all"]:
            assert p.from_unit(p.to_unit(choice)) == choice

    def test_needs_two_choices(self):
        with pytest.raises(ValueError):
            CategoricalParameter("g", ["only"])

    def test_duplicate_choices_rejected(self):
        with pytest.raises(ValueError):
            CategoricalParameter("g", ["a", "a"])

    def test_contains(self):
        p = CategoricalParameter("g", [1, 2, 3])
        assert p.contains(2)
        assert not p.contains(4)


class TestParameterSpace:
    def make_space(self) -> ParameterSpace:
        return ParameterSpace(
            [
                IntParameter("hint", 1, 8),
                FloatParameter("mult", 0.1, 4.0),
                CategoricalParameter("mode", ["a", "b", "c"]),
            ]
        )

    def test_dim_and_names(self):
        space = self.make_space()
        assert space.dim == 3
        assert space.names == ["hint", "mult", "mode"]
        assert "hint" in space

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            ParameterSpace([IntParameter("x", 1, 2), IntParameter("x", 1, 3)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ParameterSpace([])

    def test_encode_decode_roundtrip(self):
        space = self.make_space()
        config = {"hint": 5, "mult": 2.0, "mode": "b"}
        decoded = space.decode(space.encode(config))
        assert decoded["hint"] == 5
        assert decoded["mult"] == pytest.approx(2.0, abs=1e-9)
        assert decoded["mode"] == "b"

    def test_encode_missing_key_raises(self):
        space = self.make_space()
        with pytest.raises(KeyError):
            space.encode({"hint": 5})

    def test_decode_wrong_shape_raises(self):
        space = self.make_space()
        with pytest.raises(ValueError):
            space.decode(np.zeros(2))

    def test_validate(self):
        space = self.make_space()
        space.validate({"hint": 1, "mult": 0.1, "mode": "a"})
        with pytest.raises(ValueError):
            space.validate({"hint": 99, "mult": 0.1, "mode": "a"})
        with pytest.raises(KeyError):
            space.validate({"hint": 1, "mult": 0.1})

    def test_latin_hypercube_stratification(self, rng):
        space = ParameterSpace([FloatParameter("a", 0, 1), FloatParameter("b", 0, 1)])
        n = 20
        pts = space.latin_hypercube(n, rng)
        assert pts.shape == (n, 2)
        # Each axis has exactly one sample per 1/n stratum.
        for d in range(2):
            bins = np.floor(pts[:, d] * n).astype(int)
            bins = np.clip(bins, 0, n - 1)
            assert len(set(bins)) >= n - 1  # rounding may merge one pair

    def test_sample_unit_snaps_to_grid(self, rng):
        space = ParameterSpace([IntParameter("n", 1, 4)])
        pts = space.sample_unit(50, rng)
        decoded = {space.decode(p)["n"] for p in pts}
        assert decoded <= {1, 2, 3, 4}

    def test_round_trip_idempotent(self, rng):
        space = self.make_space()
        for _ in range(20):
            x = rng.random(space.dim)
            snapped = space.round_trip(x)
            assert np.allclose(space.round_trip(snapped), snapped)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=50)
    def test_property_encode_decode_identity_on_grid(self, seed):
        space = ParameterSpace(
            [
                IntParameter("a", 1, 13),
                IntParameter("b", 2, 5),
                FloatParameter("c", -1.0, 1.0),
            ]
        )
        rng = np.random.default_rng(seed)
        config = space.sample(rng)
        again = space.decode(space.encode(config))
        assert again["a"] == config["a"]
        assert again["b"] == config["b"]
        assert math.isclose(float(again["c"]), float(config["c"]), abs_tol=1e-9)


class TestSerialization:
    def test_parameter_roundtrip(self):
        params = [
            IntParameter("a", 1, 9, log=False),
            IntParameter("b", 1, 1000, log=True),
            FloatParameter("c", 0.5, 2.5),
            CategoricalParameter("d", ["x", "y"]),
        ]
        for p in params:
            q = parameter_from_dict(p.as_dict())
            assert type(q) is type(p)
            assert q.as_dict() == p.as_dict()

    def test_space_roundtrip(self):
        space = ParameterSpace(
            [IntParameter("a", 1, 9), FloatParameter("c", 0.5, 2.5)]
        )
        again = ParameterSpace.from_dict(space.as_dict())
        assert again.names == space.names
        assert again.dim == space.dim

    def test_unknown_type_raises(self):
        with pytest.raises(ValueError):
            parameter_from_dict({"type": "mystery", "name": "x"})


#: One parameter of every kind the batch decode has a closed form for,
#: log scales included (the Sundog batch-size axis is ``li``).
BATCH_PARAMETERS = (
    IntParameter("i", 1, 13),
    IntParameter("wide", 4, 400),
    IntParameter("li", 1_000, 500_000, log=True),
    IntParameter("li_small", 1, 32, log=True),
    FloatParameter("f", -3.0, 7.0),
    FloatParameter("lf", 0.01, 40.0, log=True),
    CategoricalParameter("c", ["a", "b", ("t", 1), 4]),
)


def _edge_coords(p) -> np.ndarray:
    """0, 1, clipped out-of-range values, the exact cell edges ``k/n``
    and -- for log integers, whose edges are where the exponential
    crosses ``k + 0.5`` -- those rounding edges, plus their ``nextafter``
    neighbours on both sides (at most ~2,000 edges per parameter)."""
    if isinstance(p, IntParameter) and p.log:
        lo, hi = math.log(p.low), math.log(p.high)
        stride = max(1, (p.high - p.low) // 2_000)
        halves = np.arange(p.low, p.high, stride) + 0.5
        edges = (np.log(halves) - lo) / (hi - lo)
    else:
        n = len(p.choices) if isinstance(p, CategoricalParameter) else (
            p.n_values if isinstance(p, IntParameter) else 64
        )
        edges = np.arange(n + 1) / n
    neighbours = [np.nextafter(edges, -np.inf), edges, np.nextafter(edges, np.inf)]
    extra = [0.0, -0.0, 1.0, -1e-300, -0.5, 1.5, 2.0, -np.inf, np.inf]
    return np.concatenate(neighbours + [np.asarray(extra)])


def _assert_same_value(batch_value, scalar_value):
    assert batch_value == scalar_value
    if isinstance(scalar_value, float):
        assert isinstance(batch_value, (float, np.floating))
    elif isinstance(scalar_value, int):
        assert isinstance(batch_value, (int, np.integer))
    else:
        assert batch_value is scalar_value


class TestBatchDecode:
    """``from_unit_batch``/``decode_batch`` == per-element ``from_unit``/``decode``."""

    @pytest.mark.parametrize("p", BATCH_PARAMETERS, ids=lambda p: p.name)
    def test_from_unit_batch_matches_at_edges(self, p):
        u = _edge_coords(p)
        batch = p.from_unit_batch(u)
        assert batch.shape == u.shape
        for ui, value in zip(u, batch):
            _assert_same_value(value, p.from_unit(float(ui)))

    @pytest.mark.parametrize("p", BATCH_PARAMETERS, ids=lambda p: p.name)
    @given(
        u=st.lists(
            st.floats(min_value=-0.5, max_value=1.5, allow_nan=False),
            min_size=1,
            max_size=64,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_property_from_unit_batch_matches(self, p, u):
        batch = p.from_unit_batch(np.asarray(u))
        for ui, value in zip(u, batch):
            _assert_same_value(value, p.from_unit(ui))

    def test_dtypes(self):
        space = ParameterSpace(BATCH_PARAMETERS)
        columns = space.decode_batch(np.full((3, space.dim), 0.5))
        assert [columns[p.name].dtype for p in BATCH_PARAMETERS] == [
            np.int64, np.int64, np.int64, np.int64, np.float64, np.float64, object,
        ]

    @given(
        rows=st.lists(
            st.lists(
                st.floats(min_value=-0.25, max_value=1.25, allow_nan=False),
                min_size=len(BATCH_PARAMETERS),
                max_size=len(BATCH_PARAMETERS),
            ),
            min_size=1,
            max_size=16,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_property_decode_batch_matches_decode(self, rows):
        space = ParameterSpace(BATCH_PARAMETERS)
        X = np.asarray(rows)
        columns = space.decode_batch(X)
        assert list(columns) == space.names
        for i, row in enumerate(X):
            for name, value in space.decode(row).items():
                _assert_same_value(columns[name][i], value)

    def test_decode_batch_at_every_edge(self):
        space = ParameterSpace(BATCH_PARAMETERS)
        coords = [_edge_coords(p) for p in BATCH_PARAMETERS]
        n = max(len(c) for c in coords)
        X = np.column_stack([np.resize(c, n) for c in coords])
        columns = space.decode_batch(X)
        for i, row in enumerate(X):
            for name, value in space.decode(row).items():
                _assert_same_value(columns[name][i], value)

    def test_single_row_and_shape_check(self):
        space = ParameterSpace(BATCH_PARAMETERS)
        x = np.full(space.dim, 0.3)
        columns = space.decode_batch(x)
        assert {name: col[0] for name, col in columns.items()} == space.decode(x)
        with pytest.raises(ValueError, match="expected shape"):
            space.decode_batch(np.zeros((2, space.dim + 1)))

    @pytest.mark.parametrize("p", BATCH_PARAMETERS, ids=lambda p: p.name)
    def test_nan_raises_the_scalar_error(self, p):
        """Regression: round_trip_batch used to return NaN for an int or
        categorical NaN coordinate where the scalar path raises."""
        space = ParameterSpace([IntParameter("ok", 1, 4), p])
        x = np.array([0.5, np.nan])
        with pytest.raises(ValueError, match="unit coordinate is NaN"):
            space.round_trip(x)
        with pytest.raises(ValueError, match="unit coordinate is NaN"):
            space.round_trip_batch(np.vstack([np.full(2, 0.5), x]))
        with pytest.raises(ValueError, match="unit coordinate is NaN"):
            space.decode_batch(np.vstack([np.full(2, 0.5), x]))


class TestBlockSnap:
    """``round_trip_batch`` snaps the linear integer columns as one block;
    every column must still equal its own ``round_trip_unit`` exactly."""

    PARAMETERS = (
        IntParameter("two", 0, 1),
        IntParameter("i", 1, 13),
        IntParameter("wide", 4, 400),
        IntParameter("li", 1, 32, log=True),
        FloatParameter("f", -3.0, 7.0),
        IntParameter("k", 1, 7),
        CategoricalParameter("c", ["a", "b", "c"]),
    )

    def _assert_matches_columns(self, X):
        space = ParameterSpace(self.PARAMETERS)
        snapped = space.round_trip_batch(X)
        for d, p in enumerate(self.PARAMETERS):
            expected = p.round_trip_unit(X[:, d])
            assert np.array_equal(snapped[:, d], expected), p.name
            if isinstance(p, IntParameter) and not p.log:
                # The scalar round trip is an independent reference.
                scalar = [p.to_unit(p.from_unit(float(u))) for u in X[:, d]]
                assert snapped[:, d].tolist() == scalar, p.name

    def test_matches_per_column_at_bin_edges(self):
        # 0, 1, every linear integer's bin edges k/n and their
        # nextafter neighbours, cycled to one length.
        coords = [_edge_coords(p) for p in self.PARAMETERS]
        n = max(len(c) for c in coords)
        self._assert_matches_columns(
            np.column_stack([np.resize(c, n) for c in coords])
        )

    @given(
        rows=st.lists(
            st.lists(
                st.floats(min_value=-0.25, max_value=1.25, allow_nan=False),
                min_size=7,
                max_size=7,
            ),
            min_size=1,
            max_size=16,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_property_matches_per_column(self, rows):
        self._assert_matches_columns(np.asarray(rows))

    def test_space_without_linear_integers(self):
        space = ParameterSpace([FloatParameter("f", 0.0, 1.0)])
        X = np.array([[0.0], [0.3], [1.0]])
        assert np.array_equal(space.round_trip_batch(X), X)
