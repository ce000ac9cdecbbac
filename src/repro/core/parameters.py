"""Typed parameter spaces for black-box optimization.

Parameters declare how configuration values map to and from the unit
hypercube the Gaussian process operates in.  Integer parameters (the
paper's parallelism hints, batch sizes, thread counts) round on decode;
float parameters (the informed variant's base-weight multiplier) map
affinely or logarithmically; categoricals index their choices.
"""

from __future__ import annotations

import abc
import math
from typing import Iterable, Mapping, Sequence

import numpy as np


class Parameter(abc.ABC):
    """One named dimension of a search space."""

    def __init__(self, name: str) -> None:
        if not name:
            raise ValueError("parameter name must be non-empty")
        self.name = name

    @abc.abstractmethod
    def to_unit(self, value: object) -> float:
        """Map a parameter value to [0, 1]."""

    @abc.abstractmethod
    def from_unit(self, u: float) -> object:
        """Map a unit-cube coordinate back to a parameter value."""

    @abc.abstractmethod
    def sample(self, rng: np.random.Generator) -> object:
        """Draw a uniform random value."""

    @abc.abstractmethod
    def contains(self, value: object) -> bool:
        """Whether ``value`` lies in the parameter's domain."""

    #: True when the decoded values live on a discrete grid.
    is_discrete: bool = False

    def from_unit_batch(self, u: np.ndarray) -> np.ndarray:
        """Vectorized ``from_unit`` over an array of coords.

        Subclasses override with closed forms that repeat ``from_unit``'s
        exact float operations; this fallback loops.
        """
        return np.array([self.from_unit(float(ui)) for ui in np.asarray(u)])

    def round_trip_unit(self, u: np.ndarray) -> np.ndarray:
        """Vectorized ``to_unit(from_unit(u))`` over an array of coords.

        Subclasses override with closed forms; this fallback loops.
        """
        return np.array(
            [self.to_unit(self.from_unit(float(ui))) for ui in np.asarray(u)]
        )

    @abc.abstractmethod
    def as_dict(self) -> dict[str, object]:
        """JSON-serializable description (see :func:`parameter_from_dict`)."""

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        fields = ", ".join(f"{k}={v!r}" for k, v in self.as_dict().items())
        return f"{type(self).__name__}({fields})"


def _clip_unit(u: float) -> float:
    if math.isnan(u):
        raise ValueError("unit coordinate is NaN")
    return min(1.0, max(0.0, float(u)))


def _clip_unit_batch(u: np.ndarray) -> np.ndarray:
    """:func:`_clip_unit` over an array: the same NaN error, then a clip."""
    u = np.asarray(u, dtype=float)
    if np.isnan(u).any():
        raise ValueError("unit coordinate is NaN")
    return np.clip(u, 0.0, 1.0)


def _cell_centres(u: np.ndarray, n: np.ndarray | int) -> np.ndarray:
    """Snap clipped coords to the centre of their cell of ``n`` equal cells.

    ``n`` may be a row vector, one cell count per column of ``u``.
    """
    u = _clip_unit_batch(u)
    idx = np.minimum(n - 1, np.floor(u * n))
    return (idx + 0.5) / n


def _exp_log_scale(u: np.ndarray, low: float, high: float) -> np.ndarray:
    """``from_unit``'s log-scale ``math.exp`` over clipped coords.

    ``np.exp`` may differ from ``math.exp`` by one ulp, enough to flip
    an integer rounding, so the exponential stays ``math.exp`` per
    element; the affine part is elementwise and therefore exact.
    """
    log_lo = math.log(low)
    z = log_lo + u * (math.log(high) - log_lo)
    return np.fromiter(map(math.exp, z.tolist()), dtype=float, count=z.size)


class FloatParameter(Parameter):
    """A continuous parameter on ``[low, high]``, optionally log-scaled."""

    is_discrete = False

    def __init__(self, name: str, low: float, high: float, log: bool = False) -> None:
        super().__init__(name)
        if not (math.isfinite(low) and math.isfinite(high)):
            raise ValueError(f"{name}: bounds must be finite")
        if low >= high:
            raise ValueError(f"{name}: low must be < high")
        if log and low <= 0:
            raise ValueError(f"{name}: log scale requires low > 0")
        self.low = float(low)
        self.high = float(high)
        self.log = bool(log)

    def to_unit(self, value: object) -> float:
        v = float(value)  # type: ignore[arg-type]
        if self.log:
            return _clip_unit(
                (math.log(v) - math.log(self.low))
                / (math.log(self.high) - math.log(self.low))
            )
        return _clip_unit((v - self.low) / (self.high - self.low))

    def from_unit(self, u: float) -> float:
        u = _clip_unit(u)
        if self.log:
            return math.exp(
                math.log(self.low) + u * (math.log(self.high) - math.log(self.low))
            )
        return self.low + u * (self.high - self.low)

    def from_unit_batch(self, u: np.ndarray) -> np.ndarray:
        u = _clip_unit_batch(u)
        if self.log:
            return _exp_log_scale(u, self.low, self.high)
        return self.low + u * (self.high - self.low)

    def round_trip_unit(self, u: np.ndarray) -> np.ndarray:
        # from_unit and to_unit are exact inverses on [0, 1] (the log
        # transform cancels), so the snap reduces to a clip.
        return _clip_unit_batch(u)

    def sample(self, rng: np.random.Generator) -> float:
        return self.from_unit(rng.random())

    def contains(self, value: object) -> bool:
        try:
            v = float(value)  # type: ignore[arg-type]
        except (TypeError, ValueError):
            return False
        return self.low - 1e-12 <= v <= self.high + 1e-12

    def as_dict(self) -> dict[str, object]:
        return {
            "type": "float",
            "name": self.name,
            "low": self.low,
            "high": self.high,
            "log": self.log,
        }


class IntParameter(Parameter):
    """An integer parameter on ``{low, ..., high}``, optionally log-scaled.

    The unit-cube embedding treats each integer as the centre of an
    equal-width cell so rounding is unbiased at the boundaries.
    """

    is_discrete = True

    def __init__(self, name: str, low: int, high: int, log: bool = False) -> None:
        super().__init__(name)
        if low >= high:
            raise ValueError(f"{name}: low must be < high")
        if log and low <= 0:
            raise ValueError(f"{name}: log scale requires low > 0")
        self.low = int(low)
        self.high = int(high)
        self.log = bool(log)

    @property
    def n_values(self) -> int:
        return self.high - self.low + 1

    def to_unit(self, value: object) -> float:
        v = int(round(float(value)))  # type: ignore[arg-type]
        if self.log:
            return _clip_unit(
                (math.log(v) - math.log(self.low))
                / (math.log(self.high) - math.log(self.low))
            )
        return _clip_unit((v - self.low + 0.5) / self.n_values)

    def from_unit(self, u: float) -> int:
        u = _clip_unit(u)
        if self.log:
            raw = math.exp(
                math.log(self.low) + u * (math.log(self.high) - math.log(self.low))
            )
            return int(min(self.high, max(self.low, round(raw))))
        idx = int(min(self.n_values - 1, math.floor(u * self.n_values)))
        return self.low + idx

    def from_unit_batch(self, u: np.ndarray) -> np.ndarray:
        u = _clip_unit_batch(u)
        if self.log:
            raw = _exp_log_scale(u, self.low, self.high)
            # round() is ties-to-even, as is np.rint.
            return np.clip(np.rint(raw), self.low, self.high).astype(np.int64)
        idx = np.minimum(self.n_values - 1, np.floor(u * self.n_values))
        return self.low + idx.astype(np.int64)

    def round_trip_unit(self, u: np.ndarray) -> np.ndarray:
        if self.log:
            u = _clip_unit_batch(u)
            log_lo, log_hi = math.log(self.low), math.log(self.high)
            raw = np.exp(log_lo + u * (log_hi - log_lo))
            v = np.clip(np.round(raw), self.low, self.high)
            return np.clip((np.log(v) - log_lo) / (log_hi - log_lo), 0.0, 1.0)
        return _cell_centres(u, self.n_values)

    def sample(self, rng: np.random.Generator) -> int:
        if self.log:
            return self.from_unit(rng.random())
        return int(rng.integers(self.low, self.high + 1))

    def contains(self, value: object) -> bool:
        try:
            v = float(value)  # type: ignore[arg-type]
        except (TypeError, ValueError):
            return False
        return v == int(v) and self.low <= v <= self.high

    def as_dict(self) -> dict[str, object]:
        return {
            "type": "int",
            "name": self.name,
            "low": self.low,
            "high": self.high,
            "log": self.log,
        }


class CategoricalParameter(Parameter):
    """An unordered finite choice, embedded by index.

    A single unit-cube axis is a crude embedding for categoricals but
    matches what Spearmint-era optimizers did for enum parameters.
    """

    is_discrete = True

    def __init__(self, name: str, choices: Sequence[object]) -> None:
        super().__init__(name)
        choices = list(choices)
        if len(choices) < 2:
            raise ValueError(f"{name}: need at least two choices")
        if len(set(map(repr, choices))) != len(choices):
            raise ValueError(f"{name}: choices must be distinct")
        self.choices = choices

    def to_unit(self, value: object) -> float:
        idx = self._index_of(value)
        return _clip_unit((idx + 0.5) / len(self.choices))

    def from_unit(self, u: float) -> object:
        u = _clip_unit(u)
        idx = int(min(len(self.choices) - 1, math.floor(u * len(self.choices))))
        return self.choices[idx]

    def from_unit_batch(self, u: np.ndarray) -> np.ndarray:
        """The chosen objects themselves, in an object array."""
        u = _clip_unit_batch(u)
        n = len(self.choices)
        idx = np.minimum(n - 1, np.floor(u * n)).astype(np.intp)
        choices = np.empty(n, dtype=object)
        for i, choice in enumerate(self.choices):
            choices[i] = choice
        return choices[idx]

    def round_trip_unit(self, u: np.ndarray) -> np.ndarray:
        return _cell_centres(u, len(self.choices))

    def sample(self, rng: np.random.Generator) -> object:
        return self.choices[int(rng.integers(len(self.choices)))]

    def contains(self, value: object) -> bool:
        try:
            self._index_of(value)
            return True
        except ValueError:
            return False

    def _index_of(self, value: object) -> int:
        for i, choice in enumerate(self.choices):
            if choice == value:
                return i
        raise ValueError(f"{value!r} is not a valid choice for {self.name!r}")

    def as_dict(self) -> dict[str, object]:
        return {"type": "categorical", "name": self.name, "choices": self.choices}


def parameter_from_dict(data: Mapping[str, object]) -> Parameter:
    """Inverse of :meth:`Parameter.as_dict`."""
    kind = data["type"]
    if kind == "float":
        return FloatParameter(
            str(data["name"]),
            float(data["low"]),  # type: ignore[arg-type]
            float(data["high"]),  # type: ignore[arg-type]
            bool(data.get("log", False)),
        )
    if kind == "int":
        return IntParameter(
            str(data["name"]),
            int(data["low"]),  # type: ignore[arg-type]
            int(data["high"]),  # type: ignore[arg-type]
            bool(data.get("log", False)),
        )
    if kind == "categorical":
        return CategoricalParameter(str(data["name"]), list(data["choices"]))  # type: ignore[arg-type]
    raise ValueError(f"unknown parameter type {kind!r}")


class ParameterSpace:
    """An ordered collection of parameters defining the search space."""

    def __init__(self, parameters: Iterable[Parameter]) -> None:
        self.parameters: list[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("parameter space must not be empty")
        names = [p.name for p in self.parameters]
        if len(set(names)) != len(names):
            raise ValueError("parameter names must be unique")
        self._by_name = {p.name: p for p in self.parameters}
        # round_trip_batch snaps every linear integer column in one block
        # (exact type: a subclass may snap differently).
        linear_ints = [
            d
            for d, p in enumerate(self.parameters)
            if type(p) is IntParameter and not p.log
        ]
        self._linear_int_cols = np.array(linear_ints, dtype=np.intp)
        self._linear_int_nv = np.array(
            [[self.parameters[d].n_values for d in linear_ints]], dtype=float
        )
        self._other_cols = [
            (d, p) for d, p in enumerate(self.parameters) if d not in linear_ints
        ]

    @property
    def dim(self) -> int:
        return len(self.parameters)

    @property
    def names(self) -> list[str]:
        return [p.name for p in self.parameters]

    def __len__(self) -> int:
        return len(self.parameters)

    def __getitem__(self, name: str) -> Parameter:
        return self._by_name[name]

    def __contains__(self, name: object) -> bool:
        return name in self._by_name

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    def encode(self, config: Mapping[str, object]) -> np.ndarray:
        """Map a config dict to a unit-cube point."""
        missing = [p.name for p in self.parameters if p.name not in config]
        if missing:
            raise KeyError(f"config missing parameters: {missing}")
        return np.array(
            [p.to_unit(config[p.name]) for p in self.parameters], dtype=float
        )

    def decode(self, x: np.ndarray) -> dict[str, object]:
        """Map a unit-cube point to a config dict."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"expected shape ({self.dim},), got {x.shape}")
        return {p.name: p.from_unit(float(u)) for p, u in zip(self.parameters, x)}

    def decode_batch(self, X: np.ndarray) -> dict[str, np.ndarray]:
        """Decode an ``(n, dim)`` batch column by column.

        ``decode_batch(X)[name][i] == decode(X[i])[name]`` exactly, but
        no per-row dict is built: one array per parameter (int64 for
        integers, float64 for floats, object for categoricals).  A NaN
        coordinate raises the scalar path's ``ValueError``.
        """
        X = self._check_batch(X)
        return {
            p.name: p.from_unit_batch(X[:, d]) for d, p in enumerate(self.parameters)
        }

    def round_trip(self, x: np.ndarray) -> np.ndarray:
        """Snap a unit point onto the grid of representable configs."""
        return self.encode(self.decode(x))

    def round_trip_batch(self, X: np.ndarray) -> np.ndarray:
        """Snap a whole ``(n, dim)`` batch of unit points at once.

        Vectorized equivalent of calling :meth:`round_trip` per row — the
        acquisition optimizer snaps hundreds of candidate points per
        step, so this must not loop over rows in Python.  The linear
        integer columns snap as one block, with the float operations of
        :meth:`IntParameter.round_trip_unit`; every other column goes
        through its own ``round_trip_unit``.
        """
        X = self._check_batch(X)
        out = np.empty_like(X)
        cols = self._linear_int_cols
        if cols.size:
            out[:, cols] = _cell_centres(X[:, cols], self._linear_int_nv)
        for d, p in self._other_cols:
            out[:, d] = p.round_trip_unit(X[:, d])
        return out

    def _check_batch(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != self.dim:
            raise ValueError(f"expected shape (n, {self.dim}), got {X.shape}")
        return X

    def validate(self, config: Mapping[str, object]) -> None:
        for p in self.parameters:
            if p.name not in config:
                raise KeyError(f"config missing parameter {p.name!r}")
            if not p.contains(config[p.name]):
                raise ValueError(
                    f"value {config[p.name]!r} outside domain of {p.name!r}"
                )

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def sample(self, rng: np.random.Generator) -> dict[str, object]:
        return {p.name: p.sample(rng) for p in self.parameters}

    def sample_unit(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """``n`` uniform unit-cube points snapped to representable configs."""
        raw = rng.random((n, self.dim))
        return self.round_trip_batch(raw)

    def latin_hypercube(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Latin-hypercube sample of ``n`` unit points (snapped to grid).

        Stratifies every axis into ``n`` bins with one sample each — the
        standard space-filling initial design for GP surrogates.
        """
        if n < 1:
            raise ValueError("n must be >= 1")
        result = np.empty((n, self.dim))
        for d in range(self.dim):
            perm = rng.permutation(n)
            result[:, d] = (perm + rng.random(n)) / n
        return self.round_trip_batch(result)

    def as_dict(self) -> dict[str, object]:
        return {"parameters": [p.as_dict() for p in self.parameters]}

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ParameterSpace":
        params = [parameter_from_dict(d) for d in data["parameters"]]  # type: ignore[union-attr]
        return cls(params)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"ParameterSpace(dim={self.dim}, names={self.names})"
