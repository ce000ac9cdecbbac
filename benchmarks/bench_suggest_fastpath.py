"""Figure 7-style microbench of the BO suggest fast path.

The PR that introduced this file replaced the per-step from-scratch GP
refit with a rank-1 Cholesky update (full ML-II refit only every
``refit_every`` steps), vectorized the ARD marginal-likelihood
gradients, and batched candidate snapping and acquisition refinement.

This bench measures mean ``suggest_seconds`` — the quantity Figure 7
plots — at 150 observations on the large-topology space, against an
in-bench replica of the pre-PR path (scalar per-row grid snapping,
gradient-free L-BFGS-B refinement, per-hyperparameter ``dK`` matrices,
full refit on every step).  The fast path must be at least 5x faster,
and its incrementally-maintained posterior must agree with a
from-scratch refactorization to 1e-8.

Run as a script for the CI perf-report job (``--smoke`` scales the loop
down; ``--json`` writes the shared bench-result schema,
docs/OBSERVABILITY.md §perf-compare)::

    PYTHONPATH=src python benchmarks/bench_suggest_fastpath.py --smoke

The script path also measures the model-quality diagnostics tier's
cost: one no-session tuning loop with diagnostics off (the default)
vs the same loop with the tracker forced on — the forced-on delta
bounds what an obs session adds, and the default path must stay within
the <2% no-session overhead budget.
"""

from __future__ import annotations

import time

import pytest

from repro.core.gp import JITTER, GaussianProcess
from repro.core.loop import TuningLoop
from repro.core.optimizer import BayesianOptimizer
from repro.experiments.presets import SYNTHETIC_BASE_CONFIG
from repro.storm.cluster import paper_cluster
from repro.storm.objective import StormObjective
from repro.storm.spaces import ParallelismCodec
from repro.topology_gen.suite import make_topology

# After repro: importing it first pins the BLAS pools to one thread.
import numpy as np
from scipy import linalg as sla
from scipy import optimize as sopt

N_OBSERVATIONS = 150
MEASURE_ROUNDS = 5


def _objective_value(x: np.ndarray) -> float:
    """Smooth deterministic stand-in objective on the unit cube."""
    return 1e6 * float(np.exp(-np.mean((x - 0.6) ** 2) * 8.0))


@pytest.fixture(scope="module")
def warmed_optimizer():
    """A BO run advanced to ``N_OBSERVATIONS`` on the large space."""
    topology = make_topology("large")
    codec = ParallelismCodec(topology, paper_cluster(), SYNTHETIC_BASE_CONFIG)
    optimizer = BayesianOptimizer(codec.space, seed=0, acq_candidates=512)
    while optimizer.n_observed < N_OBSERVATIONS:
        config = optimizer.ask()
        optimizer.tell(config, _objective_value(optimizer.space.encode(config)))
    return optimizer


# ----------------------------------------------------------------------
# Pre-PR replica: the seed revision's suggest path, reimplemented here
# so the comparison survives in-tree after the fast path replaced it.
# ----------------------------------------------------------------------
def _legacy_snap_rows(space, rows: np.ndarray) -> np.ndarray:
    return np.array([space.round_trip(row) for row in rows])


def _legacy_refine(acq, gp, space, x0, best_y):
    def neg_acq(x: np.ndarray) -> float:
        return -float(acq.score(gp, x[None, :], best_y)[0])

    result = sopt.minimize(
        neg_acq,
        x0,
        method="L-BFGS-B",
        bounds=[(0.0, 1.0)] * space.dim,
        options={"maxiter": 30},
    )
    snapped = space.round_trip(np.clip(result.x, 0.0, 1.0))
    return snapped, float(acq.score(gp, snapped[None, :], best_y)[0])


def _legacy_propose(acq, gp, space, best_x, best_y, rng):
    """The seed revision's ``AcquisitionOptimizer.propose``."""
    n = acq.n_candidates
    # Re-snapping the LHS row-by-row reproduces the seed revision's
    # scalar round-trip cost without duplicating its sampler.
    candidates = [_legacy_snap_rows(space, space.latin_hypercube(n, rng))]
    diag = np.linspace(0.0, 1.0, 33)[:, None] * np.ones((1, space.dim))
    candidates.append(_legacy_snap_rows(space, diag))
    local = np.clip(
        best_x[None, :] + rng.normal(0.0, 0.05, size=(max(8, n // 8), space.dim)),
        0.0,
        1.0,
    )
    candidates.append(_legacy_snap_rows(space, local))
    moves = []
    for d in range(space.dim):
        step = 1.0 / getattr(space.parameters[d], "n_values", 32)
        for sign in (-1.0, 1.0):
            x = best_x.copy()
            x[d] = min(1.0, max(0.0, x[d] + sign * step))
            moves.append(space.round_trip(x))
    for shift in (-0.1, -0.05, 0.05, 0.1):
        moves.append(space.round_trip(np.clip(best_x + shift, 0.0, 1.0)))
    candidates.append(np.array(moves))
    candidates = np.vstack(candidates)
    scores = acq.score(gp, candidates, best_y)
    order = np.argsort(scores)[::-1]
    best_point = candidates[int(order[0])]
    best_score = float(scores[int(order[0])])
    if any(not p.is_discrete for p in space.parameters):
        for idx in order[: acq.n_refine]:
            refined, value = _legacy_refine(
                acq, gp, space, candidates[int(idx)], best_y
            )
            if value > best_score:
                best_score = value
                best_point = refined
    return best_point


def _legacy_grad_dot(kernel, X, W):
    """Per-hyperparameter dK matrices materialized in a Python loop."""
    ls = kernel.lengthscales
    A = X / ls
    sq = (
        np.sum(A**2, axis=1)[:, None]
        + np.sum(A**2, axis=1)[None, :]
        - 2.0 * A @ A.T
    )
    sq = np.maximum(sq, 0.0)
    K = kernel.variance * kernel._shape(sq)
    radial = kernel.variance * kernel._radial_factor(sq)
    grads = [K.copy()]
    if kernel.ard:
        for d in range(kernel.dim):
            diff_sq = (X[:, d : d + 1] - X[:, d : d + 1].T) ** 2 / ls[d] ** 2
            grads.append(radial * diff_sq)
    else:
        grads.append(radial * sq)
    return np.array([float(np.sum(W * g)) for g in grads])


def test_suggest_fastpath_speedup(warmed_optimizer):
    """Mean suggest_seconds at 150 obs: fast path >= 5x the pre-PR path."""
    optimizer = warmed_optimizer
    space = optimizer.space
    rng = np.random.default_rng(7)

    y = np.asarray(optimizer.y)
    best_idx = int(np.argmax(y))
    best_x, best_y = optimizer.X[best_idx], float(y[best_idx])

    legacy_times = []
    for _ in range(MEASURE_ROUNDS):
        t0 = time.perf_counter()
        _legacy_propose(optimizer.acq, optimizer.gp, space, best_x, best_y, rng)
        legacy_times.append(time.perf_counter() - t0)

    fast_times = []
    for _ in range(MEASURE_ROUNDS):
        t0 = time.perf_counter()
        config = optimizer.ask()
        fast_times.append(time.perf_counter() - t0)
        optimizer.tell(config, _objective_value(space.encode(config)))

    legacy_mean = float(np.mean(legacy_times))
    fast_mean = float(np.mean(fast_times))
    print(
        f"\nsuggest_seconds at n={N_OBSERVATIONS} (dim={space.dim}): "
        f"legacy {legacy_mean:.4f}s  fast {fast_mean:.4f}s  "
        f"speedup {legacy_mean / fast_mean:.1f}x"
    )
    print(f"telemetry: {optimizer.telemetry}")
    assert optimizer.gp.n_incremental_updates > 0
    assert legacy_mean >= 5.0 * fast_mean, (
        f"fast path {fast_mean:.4f}s is not 5x faster than "
        f"legacy {legacy_mean:.4f}s"
    )


def _legacy_neg_lml_and_grad(theta, gp, X, z, calls):
    """The ML-II objective before the fast path: scipy's validating
    Cholesky wrappers, ``np.eye`` rebuilt per call, and materialized
    ``dK`` matrices."""
    calls.append(1)
    gp._unpack_theta(theta)
    n = X.shape[0]
    K = gp.kernel(X)
    Kn = K + (gp.noise + JITTER) * np.eye(n)
    try:
        L = sla.cholesky(Kn, lower=True)
    except sla.LinAlgError:
        return 1e25, np.zeros_like(theta)
    alpha = sla.cho_solve((L, True), z)
    lml = (
        -0.5 * float(z @ alpha)
        - float(np.sum(np.log(np.diag(L))))
        - 0.5 * n * np.log(2.0 * np.pi)
    )
    W = np.outer(alpha, alpha) - sla.cho_solve((L, True), np.eye(n))
    grad = 0.5 * _legacy_grad_dot(gp.kernel, X, W)
    if gp.fit_noise:
        grad = np.concatenate((grad, [0.5 * float(np.trace(W)) * gp.noise]))
    return -lml, -grad


def _legacy_refit(gp, X, z, *, n_restarts, rng, calls):
    """``GaussianProcess.fit``'s multi-start ML-II and posterior refresh,
    minimizing the legacy objective (passed to L-BFGS-B explicitly)."""
    bounds = gp._theta_bounds()
    lo = np.array([b[0] for b in bounds])
    hi = np.array([b[1] for b in bounds])
    starts = [gp._pack_theta()]
    starts += [lo + rng.random(len(bounds)) * (hi - lo) for _ in range(n_restarts)]
    best_theta, best_val = None, np.inf
    for start in starts:
        result = sopt.minimize(
            _legacy_neg_lml_and_grad,
            np.clip(start, lo, hi),
            args=(gp, X, z, calls),
            jac=True,
            method="L-BFGS-B",
            bounds=bounds,
            options={"maxiter": 80},
        )
        if result.fun < best_val:
            best_val, best_theta = float(result.fun), np.asarray(result.x)
    gp._unpack_theta(best_theta)
    gp._refresh_posterior(X, z)


def test_full_refit_cost_report(warmed_optimizer):
    """Report the per-step GP maintenance cost the schedule amortizes."""
    optimizer = warmed_optimizer
    X = np.vstack(optimizer.X)
    z = (np.asarray(optimizer.y) - optimizer.gp._y_mean) / optimizer.gp._y_std

    legacy_gp = GaussianProcess(
        optimizer.gp.kernel.clone(), normalize_y=False
    )
    legacy_gp._log_noise = optimizer.gp._log_noise
    legacy_calls: list[int] = []
    t0 = time.perf_counter()
    _legacy_refit(
        legacy_gp, X, z, n_restarts=2, rng=np.random.default_rng(0),
        calls=legacy_calls,
    )
    legacy_refit = time.perf_counter() - t0
    # The timed arm really ran the legacy objective, not the fast path.
    assert legacy_calls

    gp = optimizer.gp
    post = gp._posterior
    keep, x_new = post.X[:-1], post.X[-1]
    z_keep, z_new = post.y[:-1], float(post.y[-1])
    gp._refresh_posterior(keep, z_keep)
    t0 = time.perf_counter()
    gp.update(x_new, z_new * gp._y_std + gp._y_mean)
    update_seconds = time.perf_counter() - t0
    print(
        f"\nGP maintenance at n={X.shape[0]}: legacy full ML-II refit "
        f"{legacy_refit:.4f}s  rank-1 update {update_seconds:.5f}s"
    )
    assert update_seconds < legacy_refit


def test_incremental_posterior_matches_full_refit(warmed_optimizer):
    """Rank-1-maintained posterior == from-scratch refactorization (1e-8)."""
    optimizer = warmed_optimizer
    gp = optimizer.gp
    assert gp.n_incremental_updates > 0

    reference = GaussianProcess(gp.kernel.clone(), normalize_y=False)
    reference._log_noise = gp._log_noise
    reference._y_mean, reference._y_std = gp._y_mean, gp._y_std
    z = (np.asarray(optimizer.y) - gp._y_mean) / gp._y_std
    reference._refresh_posterior(np.vstack(optimizer.X), z)

    probes = optimizer.space.latin_hypercube(64, np.random.default_rng(3))
    mean_fast, std_fast = gp.predict(probes)
    mean_ref, std_ref = reference.predict(probes)
    np.testing.assert_allclose(mean_fast, mean_ref, atol=1e-8, rtol=0)
    np.testing.assert_allclose(std_fast, std_ref, atol=1e-8, rtol=0)

    # The maintained Cholesky factor itself matches (it is unique).
    K = gp.kernel(np.vstack(optimizer.X))
    Kn = K + (gp.noise + 1e-8) * np.eye(K.shape[0])
    np.testing.assert_allclose(
        gp._posterior.L, sla.cholesky(Kn, lower=True), atol=1e-8, rtol=0
    )


# ----------------------------------------------------------------------
# Script entry: suggest-path timing + diagnostics overhead (CI schema)
# ----------------------------------------------------------------------
def _timed_loop(
    *, steps: int, topology_name: str, diagnostics: bool | None
) -> tuple[float, float]:
    """One no-session tuning run; (wall seconds, mean suggest seconds).

    A fresh objective per run keeps the memo cache from subsidizing the
    second measurement.
    """
    topology = make_topology(topology_name)
    cluster = paper_cluster()
    codec = ParallelismCodec(topology, cluster, SYNTHETIC_BASE_CONFIG)
    objective = StormObjective(topology, cluster, codec)
    optimizer = BayesianOptimizer(codec.space, seed=11, acq_candidates=256)
    loop = TuningLoop(
        objective, optimizer, max_steps=steps, seed=11, diagnostics=diagnostics
    )
    t0 = time.perf_counter()
    result = loop.run()
    wall = time.perf_counter() - t0
    suggest = float(
        np.mean([obs.suggest_seconds for obs in result.observations])
    )
    return wall, suggest


def _min_wall(
    rounds: int, **kwargs: object
) -> tuple[float, float]:
    """Min wall (and its mean suggest) over ``rounds`` identical runs."""
    best = (float("inf"), float("inf"))
    for _ in range(rounds):
        best = min(best, _timed_loop(**kwargs))
    return best


def main(argv: list[str] | None = None) -> int:
    import argparse

    from _harness import add_harness_args, emit, make_metric

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    add_harness_args(parser)
    args = parser.parse_args(argv)
    steps = 20 if args.smoke else 60
    rounds = 3 if args.smoke else 2
    topology_name = "small" if args.smoke else "medium"

    # Warm both code paths (imports, lazy caches, allocator state)
    # before the measured passes.
    _timed_loop(steps=6, topology_name="small", diagnostics=True)

    # The budgeted quantity: the shipped no-session default
    # (diagnostics=None, tracker never constructed) vs the tracker
    # explicitly disabled — i.e. what the diagnostics tier costs a run
    # that never asked for it.  Min-of-N walls of seed-identical runs
    # keep scheduler noise out of a percent-level comparison.
    wall_off, suggest_off = _min_wall(
        rounds, steps=steps, topology_name=topology_name, diagnostics=False
    )
    wall_default, _ = _min_wall(
        rounds, steps=steps, topology_name=topology_name, diagnostics=None
    )
    # Informational: the full tracker forced on (what an obs session
    # pays for residuals, coverage, and the noise-free regret curve).
    wall_on, _ = _min_wall(
        rounds, steps=steps, topology_name=topology_name, diagnostics=True
    )
    no_session_pct = (
        100.0 * (wall_default - wall_off) / wall_off if wall_off else 0.0
    )
    forced_on_pct = (
        100.0 * (wall_on - wall_off) / wall_off if wall_off else 0.0
    )
    print(
        f"loop ({steps} steps, {topology_name}): diagnostics disabled "
        f"{wall_off:.3f}s, no-session default {wall_default:.3f}s "
        f"({no_session_pct:+.2f}%), forced on {wall_on:.3f}s "
        f"({forced_on_pct:+.2f}%); mean suggest {suggest_off * 1e3:.2f} ms"
    )
    emit(
        "bench_suggest_fastpath",
        smoke=args.smoke,
        metrics={
            "suggest_seconds_mean": make_metric(
                suggest_off, higher_is_better=False, unit="s"
            ),
            "loop_wall_seconds": make_metric(
                wall_off, higher_is_better=False, unit="s"
            ),
            "diag_no_session_pct": make_metric(
                no_session_pct, higher_is_better=False, unit="%"
            ),
            "diag_forced_on_pct": make_metric(
                forced_on_pct, higher_is_better=False, unit="%"
            ),
        },
        meta={"steps": steps, "rounds": rounds, "topology": topology_name},
        json_path=args.json,
    )
    # The no-session default must stay within the <2% overhead budget;
    # the forced-on tracker is allowed to cost more (reported above).
    assert no_session_pct < 2.0, (
        f"no-session diagnostics overhead {no_session_pct:.2f}% "
        "breaches the 2% budget"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
