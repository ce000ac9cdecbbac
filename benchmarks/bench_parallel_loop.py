"""Headline bench for the batch-aware loop: overlap the measurement window.

The paper's evaluations were two-minute cluster measurement windows —
wall-clock the driver spends *waiting*, not computing.  This bench
models that regime: a DES-fidelity :class:`StormObjective` wrapped in a
simulated measurement window (``time.sleep`` releases the GIL, exactly
like waiting on a remote cluster), driven once by the classic serial
loop and once by the pending-set loop over a 4-worker thread executor.

Two claims are checked:

* **Speedup** — a 60-step pla pass at q=4 in-flight evaluations is at
  least 3x faster end-to-end than serial, with the *identical* final
  ``best()`` (the objective is deterministic; pla's schedule is fixed,
  so both runs measure the same configuration set).
* **Distribution** — for a *noisy* objective, batched BO (q=4 with
  constant-liar fantasies) finds best values statistically
  indistinguishable from step-by-step BO: Welch's t-test over 10 seeds
  must not reject at p > 0.05.

Run as a script for the CI smoke check (``--smoke`` scales the window
down and asserts the executor path works), or under pytest for the
full acceptance numbers:

    PYTHONPATH=src python benchmarks/bench_parallel_loop.py --smoke
    PYTHONPATH=src python -m pytest benchmarks/bench_parallel_loop.py -v
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Mapping

from repro.core.executor import SerialExecutor, ThreadPoolExecutor
from repro.core.loop import TuningLoop
from repro.core.optimizer import BayesianOptimizer
from repro.core.seeding import derive_seed
from repro.experiments.presets import SYNTHETIC_BASE_CONFIG, default_cluster
from repro.experiments.runner import make_synthetic_optimizer
from repro.stats.ttest import welch_t_test
from repro.storm.metrics import MeasuredRun
from repro.storm.noise import GaussianNoise
from repro.storm.objective import StormObjective
from repro.storm.spaces import ParallelismCodec
from repro.topology_gen.suite import make_topology

# After repro: importing it first pins the BLAS pools to one thread.
import numpy as np

#: Full-bench knobs (the acceptance configuration).
STEPS = 60
WINDOW_SECONDS = 0.35
WINDOW_JITTER = 0.2
Q = 4
N_SEEDS = 10
#: Small DES windows keep per-evaluation *compute* low so wall-clock is
#: dominated by the measurement window, as on a real cluster.  At q=4
#: the overlap only wins while q x compute fits inside one window —
#: heavier simulations turn the pass CPU-bound and cap the speedup.
DES_KWARGS = {"max_batches": 4, "warmup_batches": 1, "max_sim_time_ms": 30_000}


class MeasurementWindowObjective:
    """A Storm objective that takes ``window_seconds`` of wall-clock.

    Models the paper's two-minute cluster measurement windows: the
    sleep releases the GIL, so a thread executor overlaps windows the
    same way the Spearmint driver overlapped cluster runs.  The window
    is jittered a deterministic ±20% per configuration — real windows
    never take exactly the same time, and lock-stepped sleeps would
    convoy the workers' (GIL-serialized) simulation compute into the
    same instant.  Delegates ``measure`` (with its per-evaluation seed)
    to the wrapped objective, so values stay a pure function of
    (config, seed).
    """

    def __init__(self, inner: StormObjective, window_seconds: float) -> None:
        self.inner = inner
        self.window_seconds = window_seconds

    def _window(self, params: Mapping[str, object]) -> float:
        label = "|".join(f"{k}={params[k]}" for k in sorted(params))
        rng = np.random.default_rng(derive_seed(0, "window", label))
        return self.window_seconds * (
            1.0 + WINDOW_JITTER * float(rng.uniform(-1.0, 1.0))
        )

    def measure(
        self, params: Mapping[str, object], *, seed: int | None = None
    ) -> MeasuredRun:
        time.sleep(self._window(params))
        return self.inner.measure(params, seed=seed)

    def cache_info(self) -> dict[str, object]:
        return self.inner.cache_info()

    def __call__(self, params: Mapping[str, object]) -> float:
        return float(self.measure(params).throughput_tps)


def _window_objective(window_seconds: float) -> MeasurementWindowObjective:
    """Deterministic DES objective behind a measurement window."""
    topology = make_topology("small")
    cluster = default_cluster()
    _, codec = make_synthetic_optimizer(
        "pla", topology, cluster, SYNTHETIC_BASE_CONFIG, STEPS, seed=0
    )
    inner = StormObjective(
        topology,
        cluster,
        codec,
        fidelity="des",
        noise=None,
        des_kwargs=DES_KWARGS,
    )
    return MeasurementWindowObjective(inner, window_seconds)


def _run_pla_pass(
    objective: MeasurementWindowObjective,
    steps: int,
    *,
    workers: int,
) -> tuple[float, float, list[tuple[tuple[tuple[str, object], ...], float]]]:
    """One pla pass; returns (wall seconds, best value, observation set)."""
    topology = objective.inner.topology
    cluster = objective.inner.cluster
    optimizer, _ = make_synthetic_optimizer(
        "pla", topology, cluster, SYNTHETIC_BASE_CONFIG, steps, seed=0
    )
    executor = (
        ThreadPoolExecutor(objective, max_workers=workers) if workers > 1 else None
    )
    try:
        loop = TuningLoop(
            objective,
            optimizer,
            max_steps=steps,
            strategy_name="pla",
            executor=executor,
            batch_size=workers if workers > 1 else None,
        )
        t0 = time.perf_counter()
        result = loop.run()
        wall = time.perf_counter() - t0
    finally:
        if executor is not None:
            executor.close()
    observations = [
        (tuple(sorted(o.config.items())), o.value) for o in result.observations
    ]
    return wall, result.best_value, observations


def run_speedup(
    steps: int = STEPS, window_seconds: float = WINDOW_SECONDS, workers: int = Q
) -> dict[str, float]:
    """Serial vs q-in-flight wall-clock on the same deterministic pass."""
    serial_wall, serial_best, serial_obs = _run_pla_pass(
        _window_objective(window_seconds), steps, workers=1
    )
    parallel_wall, parallel_best, parallel_obs = _run_pla_pass(
        _window_objective(window_seconds), steps, workers=workers
    )
    assert parallel_best == serial_best, (
        f"deterministic best diverged: serial {serial_best} "
        f"vs q={workers} {parallel_best}"
    )
    assert set(parallel_obs) == set(serial_obs), (
        "observation sets diverged between serial and concurrent runs"
    )
    speedup = serial_wall / parallel_wall
    print(
        f"pla {steps}-step DES pass (window {window_seconds * 1e3:.0f} ms): "
        f"serial {serial_wall:.2f}s  q={workers} {parallel_wall:.2f}s  "
        f"speedup {speedup:.2f}x  best {serial_best:.0f} tps"
    )
    return {
        "serial_seconds": serial_wall,
        "parallel_seconds": parallel_wall,
        "speedup": speedup,
        "best": serial_best,
    }


def _bo_best(seed: int, *, batched: bool, steps: int = 30) -> float:
    """Best value of one noisy BO pass, step-by-step or q=4 batched."""
    topology = make_topology("small")
    cluster = default_cluster()
    codec = ParallelismCodec(topology, cluster, SYNTHETIC_BASE_CONFIG)
    objective = StormObjective(
        topology,
        cluster,
        codec,
        fidelity="analytic",
        noise=GaussianNoise(0.03),
        seed=derive_seed(seed, "bench", "noise"),
    )
    optimizer = BayesianOptimizer(codec.space, seed=seed)
    if batched:
        executor = SerialExecutor(objective)
        loop = TuningLoop(
            objective,
            optimizer,
            max_steps=steps,
            executor=executor,
            batch_size=Q,
            seed=seed,
        )
    else:
        loop = TuningLoop(objective, optimizer, max_steps=steps)
    return loop.run().best_value


def run_distribution(n_seeds: int = N_SEEDS) -> dict[str, float]:
    """Welch t-test: batched-BO best values vs step-by-step BO's."""
    serial = [_bo_best(seed, batched=False) for seed in range(n_seeds)]
    batched = [_bo_best(seed, batched=True) for seed in range(n_seeds)]
    outcome = welch_t_test(serial, batched)
    print(
        f"noisy BO best over {n_seeds} seeds: "
        f"serial mean {sum(serial) / n_seeds:.0f}  "
        f"batched(q={Q}) mean {sum(batched) / n_seeds:.0f}  "
        f"Welch p={outcome.p_value:.3f}"
    )
    return {"p_value": outcome.p_value}


# ----------------------------------------------------------------------
# pytest entry points (full acceptance numbers)
# ----------------------------------------------------------------------
def test_parallel_speedup_q4() -> None:
    """60-step DES pass at q=4: >= 3x over serial, identical best."""
    report = run_speedup()
    assert report["speedup"] >= 3.0, (
        f"q={Q} speedup {report['speedup']:.2f}x is below the 3x target"
    )


def test_noisy_best_distribution_unchanged() -> None:
    """Batched BO's best-found distribution matches step-by-step BO."""
    report = run_distribution()
    assert report["p_value"] > 0.05, (
        f"Welch t-test rejected equal means (p={report['p_value']:.4f})"
    )


# ----------------------------------------------------------------------
# Script entry point (CI smoke)
# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    from _harness import add_harness_args, emit, make_metric

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="scaled-down executor exercise for CI (seconds, not minutes)",
    )
    add_harness_args(parser)
    args = parser.parse_args(argv)
    if args.smoke:
        report = run_speedup(steps=12, window_seconds=0.04)
        # The smoke check exercises the concurrent path and its
        # determinism guarantees; the 3x perf claim is asserted by the
        # full bench, not on shared CI runners.
        assert report["speedup"] > 1.0, "concurrent run slower than serial"
        print("smoke ok")
    else:
        report = run_speedup()
        run_distribution()
    emit(
        "bench_parallel_loop",
        smoke=args.smoke,
        metrics={
            "speedup": make_metric(
                report["speedup"], higher_is_better=True, unit="x"
            ),
            "serial_seconds": make_metric(
                report["serial_seconds"], higher_is_better=False, unit="s"
            ),
            "parallel_seconds": make_metric(
                report["parallel_seconds"], higher_is_better=False, unit="s"
            ),
        },
        meta={"best_tps": report["best"]},
        json_path=args.json,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
