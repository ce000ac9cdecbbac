"""Paper constants and experiment budgets.

The paper's procedure (§V-A): at most 60 evaluation runs per optimizer
pass (180 for the extended bo180 runs), two passes per cell with the
better one graphed, and the winning configuration re-run 30 times.
Because the reproduction regenerates *every* figure, benchmarks default
to a scaled-down budget that keeps the full suite in the minutes range;
set ``REPRO_FULL=1`` (or pass :func:`full_budget`) for paper-scale runs.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass
from typing import Mapping

from repro.storm.cluster import ClusterSpec, paper_cluster
from repro.storm.config import TopologyConfig

#: Batch configuration used for the synthetic-topology experiments.
#: The paper tunes only parallelism there; batch size is small enough
#: that every condition has feasible configurations under the 30 s
#: message timeout and large enough that per-batch overhead matters.
SYNTHETIC_BASE_CONFIG = TopologyConfig(
    batch_size=200,
    batch_parallelism=16,
    worker_threads=8,
    receiver_threads=1,
    ackers=None,
    num_workers=80,
)

#: Observation noise applied to every simulated measurement (§III-C
#: assumes Gaussian noise; the testbed was shared student hardware).
#: Calibrated against the paper's §V-D significance results: a 611k vs
#: 660k tuples/s difference was *insignificant* over 30 re-runs, which
#: implies a coefficient of variation of roughly this size.
MEASUREMENT_NOISE_SIGMA = 0.08

#: Paper strategy names in presentation order.
SYNTHETIC_STRATEGIES: tuple[str, ...] = ("pla", "bo", "ipla", "ibo", "bo180")

#: Paper sizes in presentation order.
SIZES: tuple[str, ...] = ("small", "medium", "large")


@dataclass(frozen=True)
class Budget:
    """Step/repeat budgets for one study run.

    ``steps`` bounds the (expensive) Bayesian-optimizer runs;
    ``baseline_steps`` bounds the cheap linear-ascent baselines, which
    keep the paper's full 60-run schedule even under scaled budgets so
    their ascent is never artificially truncated.
    """

    steps: int = 60
    steps_extended: int = 180  # the bo180 budget
    baseline_steps: int = 60  # pla / ipla schedule length
    passes: int = 2
    repeat_best: int = 30

    def __post_init__(self) -> None:
        if self.steps < 1 or self.steps_extended < self.steps:
            raise ValueError("need steps >= 1 and steps_extended >= steps")
        if self.baseline_steps < 1:
            raise ValueError("baseline_steps must be >= 1")
        if self.passes < 1:
            raise ValueError("passes must be >= 1")
        if self.repeat_best < 2:
            raise ValueError("repeat_best must be >= 2 (t-tests need n >= 2)")

    def as_dict(self) -> dict[str, int]:
        """The budget as JSON-ready data, keys in field order."""
        return {k: int(v) for k, v in asdict(self).items()}

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "Budget":
        return cls(**{k: int(v) for k, v in data.items()})  # type: ignore[arg-type]


def full_budget() -> Budget:
    """The paper's budgets: 60/180 steps, 2 passes, 30 re-runs."""
    return Budget(
        steps=60, steps_extended=180, baseline_steps=60, passes=2, repeat_best=30
    )


def scaled_budget() -> Budget:
    """Benchmark default: same shape, roughly 1/3 of the evaluations."""
    return Budget(
        steps=20, steps_extended=45, baseline_steps=60, passes=2, repeat_best=10
    )


def quick_budget() -> Budget:
    """Smoke-test budget used by integration tests and the quickstart."""
    return Budget(
        steps=8, steps_extended=12, baseline_steps=20, passes=1, repeat_best=3
    )


def default_budget() -> Budget:
    """Scaled budget, or the paper's when ``REPRO_FULL=1`` is set."""
    if os.environ.get("REPRO_FULL", "").strip() in {"1", "true", "yes"}:
        return full_budget()
    return scaled_budget()


def default_cluster() -> ClusterSpec:
    """The paper's 80-machine, 320-core testbed."""
    return paper_cluster()
