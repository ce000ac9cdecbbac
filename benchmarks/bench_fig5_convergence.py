"""Regenerate Figure 5: convergence speed (steps to best throughput).

Paper shape: the linear ascents converge in far fewer steps than the
Bayesian optimizer; informed variants converge faster than uninformed.
"""

from repro.experiments.figures import figure5_convergence
from repro.experiments.report import render_figure

# After repro: importing it first pins the BLAS pools to one thread.
import numpy as np


def test_fig5_convergence(benchmark, synthetic_study):
    data = benchmark.pedantic(
        figure5_convergence, args=(synthetic_study,), rounds=1, iterations=1
    )
    print()
    print(render_figure(data))

    by_strategy: dict[str, list[float]] = {}
    for row in data.rows:
        by_strategy.setdefault(str(row["Strategy"]), []).append(
            float(row["steps(avg)"])
        )
    # ibo (one float knob) needs fewer steps than bo (one knob per op).
    assert np.mean(by_strategy["ibo"]) < np.mean(by_strategy["bo"])
    for rows in by_strategy.values():
        assert all(1 <= v for v in rows)


if __name__ == "__main__":
    import sys

    from _harness import pytest_bench_main

    sys.exit(pytest_bench_main(__file__))
