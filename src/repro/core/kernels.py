"""Covariance kernels for the Gaussian-process surrogate.

The paper's optimizer (Spearmint) models the objective with a Gaussian
process; its default covariance is the Matérn-5/2 kernel, recommended by
Snoek et al. [17] for machine-learning objectives because it does not
impose the unrealistic infinite smoothness of the squared exponential.
Both are implemented with either a shared (isotropic) or per-dimension
(ARD) lengthscale, with analytic gradients with respect to their log
hyperparameters for marginal-likelihood fitting.
"""

from __future__ import annotations

import abc
import math

import numpy as np


def _pairwise_scaled_sq_dists(
    X1: np.ndarray, X2: np.ndarray, lengthscales: np.ndarray
) -> np.ndarray:
    """Squared distances after per-dimension scaling by lengthscales."""
    return _scaled_sq_dists(X1 / lengthscales, X2 / lengthscales)


def _scaled_sq_dists(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Squared distances between the rows of pre-scaled ``A`` and ``B``.

    For a training matrix ``B`` stays its own buffer, not ``A`` itself:
    numpy routes a product of one buffer with its own transpose to BLAS
    ``syrk``, which may round differently from the ``gemm`` that cross
    covariances use, so sharing would make ``K`` depend on how the
    product happens to be written.
    """
    sq = (
        np.sum(A**2, axis=1)[:, None]
        + np.sum(B**2, axis=1)[None, :]
        - 2.0 * A @ B.T
    )
    return np.maximum(sq, 0.0)


class Kernel(abc.ABC):
    """A stationary covariance function with tunable log hyperparameters.

    Hyperparameters are stored as a flat vector ``theta`` of logs:
    ``[log variance, log lengthscale_1, ..., log lengthscale_m]`` with
    ``m = dim`` for ARD kernels and ``m = 1`` for isotropic ones.
    """

    def __init__(self, dim: int, *, ard: bool = True) -> None:
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self.dim = dim
        self.ard = ard
        n_ls = dim if ard else 1
        self._log_variance = 0.0
        self._log_lengthscales = np.zeros(n_ls) + math.log(0.3)

    # ------------------------------------------------------------------
    # Hyperparameter plumbing
    # ------------------------------------------------------------------
    @property
    def variance(self) -> float:
        return math.exp(self._log_variance)

    @property
    def lengthscales(self) -> np.ndarray:
        ls = np.exp(self._log_lengthscales)
        return ls if self.ard else np.full(self.dim, ls[0])

    @property
    def theta(self) -> np.ndarray:
        return np.concatenate(([self._log_variance], self._log_lengthscales))

    @theta.setter
    def theta(self, value: np.ndarray) -> None:
        value = np.asarray(value, dtype=float)
        if value.shape != (self.n_hyperparameters,):
            raise ValueError(
                f"expected {self.n_hyperparameters} hyperparameters, "
                f"got shape {value.shape}"
            )
        self._log_variance = float(value[0])
        self._log_lengthscales = value[1:].copy()

    @property
    def n_hyperparameters(self) -> int:
        return 1 + len(self._log_lengthscales)

    def theta_bounds(self) -> list[tuple[float, float]]:
        """Log-space box constraints used during ML-II fitting.

        Inputs live in the unit cube, so lengthscales are bounded to
        [0.01, 10]; the signal variance to [1e-4, 1e4] (targets are
        standardized before fitting).
        """
        bounds = [(math.log(1e-4), math.log(1e4))]
        bounds.extend(
            [(math.log(0.01), math.log(10.0))] * len(self._log_lengthscales)
        )
        return bounds

    # ------------------------------------------------------------------
    # Covariance evaluation
    # ------------------------------------------------------------------
    def __call__(self, X1: np.ndarray, X2: np.ndarray | None = None) -> np.ndarray:
        X1 = np.atleast_2d(np.asarray(X1, dtype=float))
        X2 = X1 if X2 is None else np.atleast_2d(np.asarray(X2, dtype=float))
        if X1.shape[1] != self.dim or X2.shape[1] != self.dim:
            raise ValueError("input dimensionality mismatch")
        sq = _pairwise_scaled_sq_dists(X1, X2, self.lengthscales)
        return self.variance * self._shape(sq)

    def diag(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return np.full(X.shape[0], self.variance)

    def gram_terms(
        self, X: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Training covariance ``K(X, X)`` with the terms its gradient reuses.

        Returns ``(K, A, sq)``: ``A = X / lengthscales`` and ``sq`` the
        scaled squared distances.  ``K`` equals ``self(X)`` bit for bit.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != self.dim:
            raise ValueError("input dimensionality mismatch")
        lengthscales = self.lengthscales
        A = X / lengthscales
        sq = _scaled_sq_dists(A, X / lengthscales)
        return self.variance * self._shape(sq), A, sq

    def value_and_grads(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Training covariance ``K(X, X)`` and ``dK/dtheta_j`` matrices.

        The gradients come back stacked as one ``(n_hyperparameters, n,
        n)`` array, built by a single broadcast over dimensions rather
        than a per-dimension Python loop.
        """
        K, A, sq = self.gram_terms(X)
        radial = self.variance * self._radial_factor(sq)
        grads = np.empty((self.n_hyperparameters, A.shape[0], A.shape[0]))
        grads[0] = K  # d/d log variance = K
        if self.ard:
            diffs = A[:, None, :] - A[None, :, :]  # (n, n, dim)
            grads[1:] = np.einsum("ij,ijd->dij", radial, diffs**2)
        else:
            grads[1] = radial * sq
        return K, grads

    def grad_dot(self, X: np.ndarray, W: np.ndarray) -> np.ndarray:
        """``sum_ij W_ij * dK_ij/dtheta_j`` for every hyperparameter."""
        K, A, sq = self.gram_terms(X)
        return self.grad_dot_terms(A, sq, K, W)

    def grad_dot_terms(
        self, A: np.ndarray, sq: np.ndarray, K: np.ndarray, W: np.ndarray
    ) -> np.ndarray:
        """:meth:`grad_dot` from the terms :meth:`gram_terms` returned.

        The ML-II gradient only ever needs these inner products, so this
        skips materializing the per-dimension ``dK`` matrices entirely:
        with ``M = W * radial`` and ``A = X / lengthscales``,

        ``sum_ij M_ij (A_id - A_jd)^2
            = r·A_d² + c·A_d² - 2 A_d·(M A)_d``

        with ``r``/``c`` the row/column sums of ``M`` — two matmuls and
        an einsum, O(n² d) BLAS flops and O(n² + n d) memory.
        """
        out = np.empty(self.n_hyperparameters)
        out[0] = float(np.sum(W * K))
        M = W * (self.variance * self._radial_factor(sq))
        if self.ard:
            A_sq = A**2
            row = M.sum(axis=1)
            col = M.sum(axis=0)
            MA = M @ A
            out[1:] = row @ A_sq + col @ A_sq - 2.0 * np.einsum("id,id->d", A, MA)
        else:
            out[1] = float(np.sum(M * sq))
        return out

    @abc.abstractmethod
    def _shape(self, sq_dists: np.ndarray) -> np.ndarray:
        """Unit-variance kernel value as a function of scaled sq. distance."""

    @abc.abstractmethod
    def _radial_factor(self, sq_dists: np.ndarray) -> np.ndarray:
        """Factor ``F`` such that ``dK/d(log l_d) = variance * F * u_d``
        with ``u_d`` the per-dimension scaled squared distance."""

    def clone(self) -> "Kernel":
        other = type(self)(self.dim, ard=self.ard)
        other.theta = self.theta
        return other

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"{type(self).__name__}(dim={self.dim}, ard={self.ard}, "
            f"variance={self.variance:.4g})"
        )


class RBF(Kernel):
    """Squared-exponential kernel: ``v * exp(-r^2 / 2)``."""

    def _shape(self, sq_dists: np.ndarray) -> np.ndarray:
        return np.exp(-0.5 * sq_dists)

    def _radial_factor(self, sq_dists: np.ndarray) -> np.ndarray:
        # dK/d(log l_d) = K * u_d  with u_d = diff_d^2 / l_d^2.
        return np.exp(-0.5 * sq_dists)


class Matern52(Kernel):
    """Matérn kernel with smoothness 5/2 (Spearmint's default).

    ``k(r) = v * (1 + sqrt(5) r + 5 r^2 / 3) exp(-sqrt(5) r)``.
    """

    def _shape(self, sq_dists: np.ndarray) -> np.ndarray:
        r = np.sqrt(sq_dists)
        s = math.sqrt(5.0) * r
        return (1.0 + s + s**2 / 3.0) * np.exp(-s)

    def _radial_factor(self, sq_dists: np.ndarray) -> np.ndarray:
        # dk/d(log l_d) = v * (5/3) (1 + sqrt(5) r) exp(-sqrt(5) r) * u_d.
        r = np.sqrt(sq_dists)
        s = math.sqrt(5.0) * r
        return (5.0 / 3.0) * (1.0 + s) * np.exp(-s)


class Matern32(Kernel):
    """Matérn kernel with smoothness 3/2 (rougher objectives).

    ``k(r) = v * (1 + sqrt(3) r) exp(-sqrt(3) r)``.
    """

    def _shape(self, sq_dists: np.ndarray) -> np.ndarray:
        s = math.sqrt(3.0) * np.sqrt(sq_dists)
        return (1.0 + s) * np.exp(-s)

    def _radial_factor(self, sq_dists: np.ndarray) -> np.ndarray:
        # From dk/dr = -3 v r exp(-s): dk/d(log l_d) = 3 v exp(-s) * u_d.
        s = math.sqrt(3.0) * np.sqrt(sq_dists)
        return 3.0 * np.exp(-s)


KERNELS = {
    "rbf": RBF,
    "matern32": Matern32,
    "matern52": Matern52,
}


def make_kernel(name: str, dim: int, *, ard: bool = True) -> Kernel:
    """Kernel factory by name ('rbf', 'matern32', 'matern52')."""
    try:
        cls = KERNELS[name]
    except KeyError:
        raise ValueError(
            f"unknown kernel {name!r}; available: {sorted(KERNELS)}"
        ) from None
    return cls(dim, ard=ard)
