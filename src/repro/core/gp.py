"""Gaussian-process regression with ML-II hyperparameter fitting.

The surrogate model at the heart of Bayesian Optimization (paper
§III-C): a GP prior ``f ~ GP(m, k)`` is conditioned on the observed
(configuration, throughput) pairs, giving a posterior mean and variance
at unseen configurations.  Hyperparameters (signal variance,
lengthscales, observation noise) are chosen by maximizing the log
marginal likelihood with multi-start L-BFGS-B on analytic gradients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import linalg as sla
from scipy import optimize as sopt
from scipy.linalg import lapack

from repro.core.kernels import Kernel, make_kernel

#: Diagonal jitter added to every training covariance for stability.
JITTER = 1e-8


@dataclass
class _Posterior:
    """Cached factorization of the training covariance."""

    X: np.ndarray
    y: np.ndarray  # standardized targets
    L: np.ndarray  # Cholesky factor of K + noise*I
    alpha: np.ndarray  # (K + noise*I)^{-1} y


class GaussianProcess:
    """GP regressor on the unit hypercube.

    Parameters
    ----------
    kernel:
        Covariance function; a fresh Matérn-5/2 is created when a name
        is given.
    noise:
        Initial observation-noise variance (of standardized targets).
        Fitted jointly with the kernel hyperparameters unless
        ``fit_noise=False``.
    normalize_y:
        Standardize targets to zero mean / unit variance internally.
    """

    def __init__(
        self,
        kernel: Kernel | str = "matern52",
        dim: int | None = None,
        *,
        ard: bool = True,
        noise: float = 1e-2,
        fit_noise: bool = True,
        normalize_y: bool = True,
    ) -> None:
        if isinstance(kernel, str):
            if dim is None:
                raise ValueError("dim is required when kernel is given by name")
            kernel = make_kernel(kernel, dim, ard=ard)
        self.kernel = kernel
        if noise <= 0:
            raise ValueError("noise must be > 0")
        self._log_noise = math.log(noise)
        self.fit_noise = fit_noise
        self.normalize_y = normalize_y
        self._posterior: _Posterior | None = None
        self._y_mean = 0.0
        self._y_std = 1.0
        #: Optional per-point *extra* observation variance (standardized
        #: units) added to the homoscedastic noise diagonal — how the
        #: continuous-tuning loop down-weights stale pre-drift
        #: observations (docs/DRIFT.md).  ``None`` keeps the classic
        #: homoscedastic path bit-for-bit.
        self._y_err: np.ndarray | None = None
        #: Telemetry: how the posterior has been maintained so far.
        self.n_full_fits = 0
        self.n_incremental_updates = 0

    # ------------------------------------------------------------------
    @property
    def noise(self) -> float:
        return math.exp(self._log_noise)

    @property
    def observation_noise_std(self) -> float:
        """Fitted observation-noise standard deviation in y units."""
        return math.sqrt(self.noise) * self._y_std

    @property
    def is_fitted(self) -> bool:
        return self._posterior is not None

    @property
    def n_observations(self) -> int:
        return 0 if self._posterior is None else len(self._posterior.y)

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------
    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        *,
        optimize_hyperparams: bool = True,
        n_restarts: int = 2,
        rng: np.random.Generator | None = None,
        y_err: np.ndarray | None = None,
    ) -> "GaussianProcess":
        """Condition the GP on observations (and optionally refit
        hyperparameters by multi-start ML-II).  Returns self.

        ``y_err`` gives each observation *extra* variance (standardized
        units) on top of the fitted homoscedastic noise — points with
        large entries are down-weighted in the posterior.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        y = np.asarray(y, dtype=float).ravel()
        if y_err is not None:
            y_err = np.asarray(y_err, dtype=float).ravel()
        # Validated once here: the ML-II objective skips scipy's
        # per-call finiteness checks.
        for name, values in (("X", X), ("y", y), ("y_err", y_err)):
            if values is not None and not np.isfinite(values).all():
                raise ValueError(f"{name} contains inf or NaN")
        if X.shape[0] != y.shape[0]:
            raise ValueError("X and y must have matching first dimension")
        if X.shape[0] == 0:
            raise ValueError("need at least one observation")
        if X.shape[1] != self.kernel.dim:
            raise ValueError(
                f"X has dim {X.shape[1]}, kernel expects {self.kernel.dim}"
            )
        if y_err is not None:
            if y_err.shape[0] != y.shape[0]:
                raise ValueError("y_err must match y in length")
            if np.any(y_err < 0):
                raise ValueError("y_err entries must be >= 0")
        self._y_err = y_err

        if self.normalize_y:
            self._y_mean = float(np.mean(y))
            std = float(np.std(y))
            self._y_std = std if std > 1e-12 else 1.0
        else:
            self._y_mean, self._y_std = 0.0, 1.0
        z = (y - self._y_mean) / self._y_std

        if optimize_hyperparams and X.shape[0] >= 3:
            self._optimize_hyperparams(X, z, n_restarts=n_restarts, rng=rng)
        self._refresh_posterior(X, z)
        self.n_full_fits += 1
        return self

    def update(self, x: np.ndarray, y: float) -> "GaussianProcess":
        """Condition on one more observation in O(n²) (rank-1 update).

        Extends the cached Cholesky factor with one row instead of
        refactoring the full covariance: with ``w = L⁻¹ k(X, x)`` and
        ``d = sqrt(k(x, x) + noise - w·w)`` the factor of the grown
        covariance is ``[[L, 0], [wᵀ, d]]``.  Hyperparameters and the
        target normalization stay frozen until the next full
        :meth:`fit` — the refit schedule is the caller's business
        (:class:`~repro.core.optimizer.BayesianOptimizer.refit_every`).

        Falls back to a full O(n³) refactorization when the new point is
        numerically degenerate (e.g. a near-duplicate of an existing row
        at tiny noise).
        """
        x = np.asarray(x, dtype=float).ravel()
        if x.shape[0] != self.kernel.dim:
            raise ValueError(f"x has dim {x.shape[0]}, kernel expects {self.kernel.dim}")
        if self._posterior is None:
            return self.fit(x[None, :], [float(y)], optimize_hyperparams=False)
        post = self._posterior
        if self._y_err is not None:
            # The fresh observation carries no staleness variance; the
            # cached factor already encodes the old points' extra diag.
            self._y_err = np.append(self._y_err, 0.0)
        z_new = (float(y) - self._y_mean) / self._y_std
        X_new = np.vstack([post.X, x[None, :]])
        z = np.append(post.y, z_new)
        k_vec = self.kernel(x[None, :], post.X).ravel()
        k_self = float(self.kernel.diag(x[None, :])[0]) + self.noise + JITTER
        w = sla.solve_triangular(post.L, k_vec, lower=True)
        d_sq = k_self - float(w @ w)
        if d_sq <= JITTER:
            # Degenerate extension: refactor from scratch (rare).
            self._refresh_posterior(X_new, z)
            self.n_incremental_updates += 1
            return self
        d = math.sqrt(d_sq)
        n = post.L.shape[0]
        L = np.zeros((n + 1, n + 1))
        L[:n, :n] = post.L
        L[n, :n] = w
        L[n, n] = d
        # alpha = (K + noise I)^{-1} z via the two triangular solves; the
        # forward solve's first n entries are unchanged (u = Lᵀ alpha).
        u_old = post.L.T @ post.alpha
        u = np.append(u_old, (z_new - float(w @ u_old)) / d)
        alpha = sla.solve_triangular(L.T, u, lower=False)
        self._posterior = _Posterior(X=X_new, y=z, L=L, alpha=alpha)
        self.n_incremental_updates += 1
        return self

    def _pack_theta(self) -> np.ndarray:
        theta = self.kernel.theta
        if self.fit_noise:
            theta = np.concatenate((theta, [self._log_noise]))
        return theta

    def _unpack_theta(self, theta: np.ndarray) -> None:
        if self.fit_noise:
            self.kernel.theta = theta[:-1]
            self._log_noise = float(theta[-1])
        else:
            self.kernel.theta = theta

    def _theta_bounds(self) -> list[tuple[float, float]]:
        bounds = self.kernel.theta_bounds()
        if self.fit_noise:
            bounds.append((math.log(1e-8), math.log(1.0)))
        return bounds

    def _neg_lml_and_grad(
        self,
        theta: np.ndarray,
        X: np.ndarray,
        z: np.ndarray,
        eye: np.ndarray | None = None,
    ) -> tuple[float, np.ndarray]:
        """Negative LML and its gradient at ``theta`` (ML-II objective).

        One kernel pass per call: ``K`` and the scaled distances behind
        it feed the gradient too.  The Cholesky factor and both solves
        go straight to LAPACK ``dpotrf``/``dpotrs``, the routines
        ``scipy.linalg.cholesky``/``cho_solve`` call, without their
        per-call input validation; ``fit`` checks its inputs once.
        ``eye`` is ``np.eye(len(X))``, built once per fit by the caller.
        """
        self._unpack_theta(theta)
        n = X.shape[0]
        if eye is None:
            eye = np.eye(n)
        K, A, sq = self.kernel.gram_terms(X)
        Kn = K + (self.noise + JITTER) * eye
        if self._y_err is not None:
            Kn = Kn + np.diag(self._y_err)
        if not np.isfinite(Kn).all():
            raise ValueError("training covariance contains infs or NaNs")
        L, info = lapack.dpotrf(Kn, lower=1, clean=1)
        if info > 0:  # not positive definite
            return 1e25, np.zeros_like(theta)
        # dpotrs reports only illegal arguments, which f2py already rejects.
        alpha, _ = lapack.dpotrs(L, z, lower=1)
        lml = (
            -0.5 * float(z @ alpha)
            - float(np.sum(np.log(np.diag(L))))
            - 0.5 * n * math.log(2.0 * math.pi)
        )
        # dLML/dtheta_j = 0.5 tr((alpha alpha' - K^-1) dK/dtheta_j),
        # with the trace inner products delegated to the kernel's
        # vectorized fast path (no per-dimension dK matrices).
        Kinv, _ = lapack.dpotrs(L, eye, lower=1)
        W = np.outer(alpha, alpha) - Kinv
        grad = 0.5 * self.kernel.grad_dot_terms(A, sq, K, W)
        if self.fit_noise:
            grad_noise = 0.5 * float(np.trace(W)) * self.noise
            grad = np.concatenate((grad, [grad_noise]))
        return -lml, -grad

    def _optimize_hyperparams(
        self,
        X: np.ndarray,
        z: np.ndarray,
        *,
        n_restarts: int,
        rng: np.random.Generator | None,
    ) -> None:
        rng = rng or np.random.default_rng(0)
        bounds = self._theta_bounds()
        lo = np.array([b[0] for b in bounds])
        hi = np.array([b[1] for b in bounds])
        starts = [self._pack_theta()]
        for _ in range(max(0, n_restarts)):
            starts.append(lo + rng.random(len(bounds)) * (hi - lo))
        eye = np.eye(X.shape[0])
        best_theta, best_val = None, math.inf
        for start in starts:
            start = np.clip(start, lo, hi)
            result = sopt.minimize(
                self._neg_lml_and_grad,
                start,
                args=(X, z, eye),
                jac=True,
                method="L-BFGS-B",
                bounds=bounds,
                options={"maxiter": 80},
            )
            if result.fun < best_val:
                best_val = float(result.fun)
                best_theta = np.asarray(result.x)
        if best_theta is not None:
            self._unpack_theta(best_theta)

    def _refresh_posterior(self, X: np.ndarray, z: np.ndarray) -> None:
        n = X.shape[0]
        K = self.kernel(X)
        Kn = K + (self.noise + JITTER) * np.eye(n)
        if self._y_err is not None and self._y_err.shape[0] == n:
            Kn = Kn + np.diag(self._y_err)
        try:
            L = sla.cholesky(Kn, lower=True)
        except sla.LinAlgError:
            # Inflate the diagonal until the factorization succeeds.
            bump = 1e-6
            while bump < 1.0:
                try:
                    L = sla.cholesky(Kn + bump * np.eye(n), lower=True)
                    break
                except sla.LinAlgError:
                    bump *= 10.0
            else:  # pragma: no cover - pathological
                raise
        alpha = sla.cho_solve((L, True), z)
        self._posterior = _Posterior(X=X.copy(), y=z.copy(), L=L, alpha=alpha)

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def predict(
        self, X: np.ndarray, *, return_std: bool = True
    ) -> tuple[np.ndarray, np.ndarray] | np.ndarray:
        """Posterior mean and standard deviation in the original y units.

        With ``return_std=False`` only the mean array is returned (the
        variance solve is skipped entirely).  With no observations,
        returns the prior (mean 0, std from the kernel variance).
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != self.kernel.dim:
            raise ValueError("input dimensionality mismatch")
        if self._posterior is None:
            mean = np.zeros(X.shape[0]) + self._y_mean
            if not return_std:
                return mean
            std = np.sqrt(self.kernel.diag(X)) * self._y_std
            return mean, std
        post = self._posterior
        Ks = self.kernel(X, post.X)
        mean_z = Ks @ post.alpha
        mean = mean_z * self._y_std + self._y_mean
        if not return_std:
            return mean
        v = sla.solve_triangular(post.L, Ks.T, lower=True)
        var_z = self.kernel.diag(X) - np.sum(v**2, axis=0)
        var_z = np.maximum(var_z, 1e-12)
        std = np.sqrt(var_z) * self._y_std
        return mean, std

    def log_marginal_likelihood(self) -> float:
        """LML of the standardized targets under current hyperparameters."""
        if self._posterior is None:
            raise RuntimeError("fit() must be called first")
        post = self._posterior
        n = len(post.y)
        return (
            -0.5 * float(post.y @ post.alpha)
            - float(np.sum(np.log(np.diag(post.L))))
            - 0.5 * n * math.log(2.0 * math.pi)
        )

    def sample_posterior(
        self, X: np.ndarray, n_samples: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Draw joint posterior samples at ``X`` (original y units).

        The conditional covariance ``K(X, X) - vᵀv`` can pick up small
        negative eigenmass in floating point (near-duplicate inputs,
        tight posteriors), so the factorization clamps it: Cholesky with
        jitter first, eigendecomposition with negative eigenvalues
        zeroed as the fallback.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        mean = self.predict(X, return_std=False)
        if self._posterior is None:
            cov = self.kernel(X)
        else:
            post = self._posterior
            Ks = self.kernel(X, post.X)
            v = sla.solve_triangular(post.L, Ks.T, lower=True)
            cov = self.kernel(X) - v.T @ v
        cov = cov * self._y_std**2
        cov = 0.5 * (cov + cov.T)
        normals = rng.standard_normal((n_samples, X.shape[0]))
        try:
            factor = np.linalg.cholesky(cov + JITTER * np.eye(X.shape[0]))
        except np.linalg.LinAlgError:
            eigvals, eigvecs = np.linalg.eigh(cov)
            factor = eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))
        return mean + normals @ factor.T
