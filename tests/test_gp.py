"""Gaussian-process regression correctness."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from scipy import linalg as sla

from repro.core.gp import JITTER, GaussianProcess
from repro.core.mcmc import sample_gp_hyperparameters


def test_prior_prediction_without_fit():
    gp = GaussianProcess("rbf", dim=2)
    mean, std = gp.predict(np.array([[0.5, 0.5]]))
    assert mean[0] == pytest.approx(0.0)
    assert std[0] > 0


def test_interpolates_training_points_with_small_noise(rng):
    X = rng.random((10, 2))
    y = np.sin(3 * X[:, 0]) + X[:, 1]
    gp = GaussianProcess("matern52", dim=2, noise=1e-6, fit_noise=False)
    gp.fit(X, y, optimize_hyperparams=True, rng=rng)
    mean, std = gp.predict(X)
    assert np.allclose(mean, y, atol=1e-2)
    assert (std < 0.15).all()


def test_uncertainty_grows_away_from_data(rng):
    X = np.array([[0.5, 0.5]])
    y = np.array([1.0])
    gp = GaussianProcess("rbf", dim=2, noise=1e-4, fit_noise=False)
    gp.fit(X, y, optimize_hyperparams=False)
    _, std_near = gp.predict(np.array([[0.5, 0.51]]))
    _, std_far = gp.predict(np.array([[0.0, 0.0]]))
    assert std_far[0] > std_near[0]


def test_posterior_mean_reverts_to_prior_far_away(rng):
    X = np.array([[0.5]])
    y = np.array([5.0])
    gp = GaussianProcess("rbf", dim=1, noise=1e-4, fit_noise=False, normalize_y=False)
    gp.kernel.theta = np.array([0.0, np.log(0.02)])
    gp.fit(X, y, optimize_hyperparams=False)
    mean, _ = gp.predict(np.array([[0.99]]))
    assert abs(mean[0]) < 0.1  # prior mean is 0 without normalization


def test_y_normalization_restores_scale(rng):
    X = rng.random((20, 1))
    y = 1e6 + 1e5 * np.sin(6 * X[:, 0])
    gp = GaussianProcess("matern52", dim=1, noise=1e-4)
    gp.fit(X, y, rng=rng)
    mean, _ = gp.predict(X)
    assert np.corrcoef(mean, y)[0, 1] > 0.99
    assert abs(np.mean(mean) - np.mean(y)) / np.mean(y) < 0.01


def test_lml_gradient_matches_finite_differences(rng):
    X = rng.random((12, 2))
    y = np.cos(4 * X[:, 0]) * X[:, 1]
    gp = GaussianProcess("rbf", dim=2, noise=1e-2, fit_noise=True)
    z = (y - y.mean()) / y.std()
    theta = gp._pack_theta() + rng.normal(0, 0.1, size=len(gp._pack_theta()))
    _, grad = gp._neg_lml_and_grad(theta, X, z)
    eps = 1e-6
    for j in range(len(theta)):
        t_hi = theta.copy()
        t_hi[j] += eps
        t_lo = theta.copy()
        t_lo[j] -= eps
        f_hi, _ = gp._neg_lml_and_grad(t_hi, X, z)
        f_lo, _ = gp._neg_lml_and_grad(t_lo, X, z)
        fd = (f_hi - f_lo) / (2 * eps)
        assert grad[j] == pytest.approx(fd, rel=1e-3, abs=1e-5)


def test_hyperparameter_optimization_improves_lml(rng):
    X = rng.random((25, 2))
    y = np.sin(5 * X[:, 0]) + 0.1 * rng.normal(size=25)
    gp_fixed = GaussianProcess("matern52", dim=2, noise=1e-2)
    gp_fixed.fit(X, y, optimize_hyperparams=False)
    lml_fixed = gp_fixed.log_marginal_likelihood()
    gp_opt = GaussianProcess("matern52", dim=2, noise=1e-2)
    gp_opt.fit(X, y, optimize_hyperparams=True, n_restarts=2, rng=rng)
    assert gp_opt.log_marginal_likelihood() >= lml_fixed - 1e-6


def test_noise_fitting_detects_noisy_targets(rng):
    X = rng.random((40, 1))
    y = rng.normal(0, 1.0, size=40)  # pure noise
    gp = GaussianProcess("rbf", dim=1, noise=1e-3, fit_noise=True)
    gp.fit(X, y, optimize_hyperparams=True, n_restarts=2, rng=rng)
    assert gp.noise > 1e-3  # learned a larger nugget


def test_predict_shape_checks(rng):
    gp = GaussianProcess("rbf", dim=2)
    gp.fit(rng.random((5, 2)), rng.random(5), optimize_hyperparams=False)
    with pytest.raises(ValueError):
        gp.predict(rng.random((3, 4)))


def test_fit_validates_inputs(rng):
    gp = GaussianProcess("rbf", dim=2)
    with pytest.raises(ValueError):
        gp.fit(rng.random((4, 2)), rng.random(5))
    with pytest.raises(ValueError):
        gp.fit(np.empty((0, 2)), np.empty(0))
    with pytest.raises(ValueError):
        gp.fit(rng.random((4, 3)), rng.random(4))


@pytest.mark.parametrize(
    "argument, bad_value", [("X", np.inf), ("y", np.nan), ("y_err", np.nan)]
)
def test_fit_rejects_non_finite_inputs(rng, argument, bad_value):
    """Each non-finite argument is named, before any fitting starts."""
    args = {"X": rng.random((8, 2)), "y": rng.random(8), "y_err": np.zeros(8)}
    args[argument].flat[3] = bad_value
    gp = GaussianProcess("matern52", dim=2)
    with pytest.raises(ValueError, match=f"^{argument} contains inf or NaN"):
        gp.fit(args["X"], args["y"], rng=rng, y_err=args["y_err"])
    assert not gp.is_fitted


def test_sample_posterior_matches_moments(rng):
    X = rng.random((8, 1))
    y = np.sin(4 * X[:, 0])
    gp = GaussianProcess("rbf", dim=1, noise=1e-4, fit_noise=False)
    gp.fit(X, y, rng=rng)
    Xs = np.array([[0.25], [0.75]])
    samples = gp.sample_posterior(Xs, 4000, rng)
    mean, std = gp.predict(Xs)
    assert np.allclose(samples.mean(axis=0), mean, atol=0.05)
    assert np.allclose(samples.std(axis=0), std, atol=0.08)


def test_constant_targets_do_not_crash(rng):
    X = rng.random((6, 2))
    y = np.full(6, 3.0)
    gp = GaussianProcess("matern52", dim=2)
    gp.fit(X, y, rng=rng)
    mean, std = gp.predict(rng.random((4, 2)))
    assert np.allclose(mean, 3.0, atol=0.2)


def test_duplicate_inputs_with_different_targets(rng):
    """Noisy duplicates must not break the Cholesky factorization."""
    X = np.vstack([np.full((5, 1), 0.5), rng.random((5, 1))])
    y = np.concatenate([[1.0, 1.2, 0.8, 1.1, 0.9], rng.random(5)])
    gp = GaussianProcess("rbf", dim=1, noise=1e-2)
    gp.fit(X, y, rng=rng)
    mean, _ = gp.predict(np.array([[0.5]]))
    assert 0.5 < mean[0] < 1.5


def test_requires_dim_with_named_kernel():
    with pytest.raises(ValueError):
        GaussianProcess("rbf")


def test_n_observations_tracking(rng):
    gp = GaussianProcess("rbf", dim=1)
    assert gp.n_observations == 0
    gp.fit(rng.random((7, 1)), rng.random(7), optimize_hyperparams=False)
    assert gp.n_observations == 7
    assert gp.is_fitted


# ----------------------------------------------------------------------
# Bit identity of the ML-II objective against its reference form
# ----------------------------------------------------------------------
def _reference_neg_lml_and_grad(gp, theta, X, z):
    """The ML-II objective through scipy's validating Cholesky wrappers
    and two separate kernel passes (``kernel(X)``, then ``grad_dot``).

    The fast path in ``GaussianProcess._neg_lml_and_grad`` must return
    exactly these floats.
    """
    gp._unpack_theta(theta)
    n = X.shape[0]
    K = gp.kernel(X)
    Kn = K + (gp.noise + JITTER) * np.eye(n)
    if gp._y_err is not None:
        Kn = Kn + np.diag(gp._y_err)
    try:
        L = sla.cholesky(Kn, lower=True)
    except sla.LinAlgError:
        return 1e25, np.zeros_like(theta)
    alpha = sla.cho_solve((L, True), z)
    lml = (
        -0.5 * float(z @ alpha)
        - float(np.sum(np.log(np.diag(L))))
        - 0.5 * n * math.log(2.0 * math.pi)
    )
    Kinv = sla.cho_solve((L, True), np.eye(n))
    W = np.outer(alpha, alpha) - Kinv
    grad = 0.5 * gp.kernel.grad_dot(X, W)
    if gp.fit_noise:
        grad_noise = 0.5 * float(np.trace(W)) * gp.noise
        grad = np.concatenate((grad, [grad_noise]))
    return -lml, -grad


def _reference_gp(gp_args, gp_kwargs):
    """A GP whose ML-II fit runs the reference objective (and counts)."""
    gp = GaussianProcess(*gp_args, **gp_kwargs)
    gp.reference_calls = 0

    def objective(theta, X, z, eye=None):  # eye: the fast path's extra arg
        gp.reference_calls += 1
        return _reference_neg_lml_and_grad(gp, theta, X, z)

    gp._neg_lml_and_grad = objective
    return gp


def _corpus_case(seed, dim=3, n=14):
    rng = np.random.default_rng(seed)
    X = rng.random((n, dim))
    y = np.sin(4.0 * X[:, 0]) + X[:, 1:].sum(axis=1) + 0.05 * rng.normal(size=n)
    return X, y, np.abs(rng.normal(0.0, 0.2, size=n))


GP_CORPUS = list(
    itertools.product(
        ["rbf", "matern32", "matern52"], [True, False], [True, False], [False, True]
    )
)


@pytest.mark.parametrize(
    "kernel, ard, fit_noise, with_y_err",
    GP_CORPUS,
    ids=[
        f"{k}-{'ard' if a else 'iso'}-{'noise' if f else 'fixed'}-"
        f"{'yerr' if e else 'plain'}"
        for k, a, f, e in GP_CORPUS
    ],
)
def test_ml2_fast_path_is_bit_identical(kernel, ard, fit_noise, with_y_err):
    """Per call and after a full multi-start fit, the objective equals
    the reference exactly (``==``, not ``allclose``)."""
    seed = GP_CORPUS.index((kernel, ard, fit_noise, with_y_err))
    X, y, y_err = _corpus_case(seed)
    y_err = y_err if with_y_err else None
    gp_args = (kernel, X.shape[1])
    gp_kwargs = {"ard": ard, "fit_noise": fit_noise, "noise": 1e-3}

    fast = GaussianProcess(*gp_args, **gp_kwargs)
    fast.fit(X, y, optimize_hyperparams=False, y_err=y_err)
    z = fast._posterior.y
    bounds = np.array(fast._theta_bounds())
    rng = np.random.default_rng(100 + seed)
    thetas = [fast._pack_theta()] + [
        bounds[:, 0] + rng.random(len(bounds)) * (bounds[:, 1] - bounds[:, 0])
        for _ in range(6)
    ]
    eye = np.eye(X.shape[0])
    for theta in thetas:
        value, grad = fast._neg_lml_and_grad(theta, X, z, eye)
        ref_value, ref_grad = _reference_neg_lml_and_grad(fast, theta, X, z)
        assert value == ref_value
        assert np.array_equal(grad, ref_grad)
        assert np.array_equal(fast._neg_lml_and_grad(theta, X, z)[1], ref_grad)

    fast = GaussianProcess(*gp_args, **gp_kwargs)
    fast.fit(X, y, n_restarts=2, rng=np.random.default_rng(seed), y_err=y_err)
    reference = _reference_gp(gp_args, gp_kwargs)
    reference.fit(X, y, n_restarts=2, rng=np.random.default_rng(seed), y_err=y_err)
    assert reference.reference_calls > 0
    assert np.array_equal(fast.kernel.theta, reference.kernel.theta)
    assert fast._log_noise == reference._log_noise
    assert np.array_equal(fast._posterior.alpha, reference._posterior.alpha)


def test_ml2_fast_path_non_pd_branch():
    """A covariance Cholesky cannot factor returns the 1e25 sentinel
    with a zero gradient, as the reference does."""
    X, y, _ = _corpus_case(0, dim=2, n=30)
    gp = GaussianProcess("rbf", 2, fit_noise=False, noise=1e-8)
    gp.fit(X, y, optimize_hyperparams=False)
    z = gp._posterior.y
    theta = np.array([40.0, math.log(10.0), math.log(10.0)])
    value, grad = gp._neg_lml_and_grad(theta, X, z)
    assert (value, grad.tolist()) == (1e25, [0.0, 0.0, 0.0])
    assert _reference_neg_lml_and_grad(gp, theta, X, z)[0] == 1e25


def test_ml2_fast_path_in_slice_sampling():
    """Spearmint's MCMC integration draws the same samples either way."""
    X, y, _ = _corpus_case(1, dim=2, n=12)
    samples = []
    for gp in (
        GaussianProcess("matern52", 2),
        _reference_gp(("matern52", 2), {}),
    ):
        gp.fit(X, y, optimize_hyperparams=False)
        samples.append(
            sample_gp_hyperparameters(
                gp, X, gp._posterior.y, 6, burn_in=3,
                rng=np.random.default_rng(5),
            )
        )
    assert gp.reference_calls > 0
    assert np.array_equal(samples[0], samples[1])


def test_ml2_objective_rejects_non_finite_covariance():
    X, y, _ = _corpus_case(2, dim=2, n=6)
    gp = GaussianProcess("rbf", 2)
    gp.fit(X, y, optimize_hyperparams=False)
    X_bad = X.copy()
    X_bad[0, 0] = np.nan
    with pytest.raises(ValueError, match="infs or NaNs"):
        gp._neg_lml_and_grad(gp._pack_theta(), X_bad, gp._posterior.y)
