"""Regenerate Figure 7: optimizer wall time per step (scalability).

Paper shape: pla/ipla choose the next configuration in well under a
second; the Bayesian optimizer's per-step cost grows (sublinearly) with
the number of parameters, i.e. with topology size.
"""

from repro.experiments.figures import figure7_step_time
from repro.experiments.report import render_figure

# After repro: importing it first pins the BLAS pools to one thread.
import numpy as np


def test_fig7_step_time(benchmark, synthetic_study):
    data = benchmark.pedantic(
        figure7_step_time, args=(synthetic_study,), rounds=1, iterations=1
    )
    print()
    print(render_figure(data))

    def avg(strategy, size):
        values = [
            float(r["seconds(avg)"])
            for r in data.rows
            if r["Strategy"] == strategy and r["Size"] == size
        ]
        return float(np.mean(values))

    # Baselines are effectively free.
    for size in ("small", "medium", "large"):
        assert avg("pla", size) < 0.05
        assert avg("ipla", size) < 0.05
    # The Bayesian optimizer pays for the GP, increasingly so with the
    # number of parallelism hints to optimize.
    assert avg("bo", "large") > avg("bo", "small")
    assert avg("bo", "small") > avg("pla", "small")


if __name__ == "__main__":
    import sys

    from _harness import pytest_bench_main

    sys.exit(pytest_bench_main(__file__))
