"""Shared session fixtures for the benchmark suite.

The Figure 4–7 benchmarks all derive from one synthetic study and the
Figure 8 benchmarks from one Sundog study, exactly as the paper's
figures derive from one set of cluster runs.  The studies execute once
per session at the scaled default budget (set ``REPRO_FULL=1`` for the
paper-scale 60/180-step, 2-pass, 30-re-run budgets).  ``REPRO_JOBS``
sets how many cell processes run them (``workers=``), capped at the
cell count so every tuning loop stays serial and the studies are the
same for any value.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments.presets import default_budget
from repro.experiments.runner import SundogStudy, SyntheticStudy


def _run(study_cls):
    n_cells = len(study_cls(default_budget()).specs())
    workers = min(int(os.environ.get("REPRO_JOBS", "1")), n_cells)
    return study_cls(default_budget(), seed=0, workers=workers).run()


@pytest.fixture(scope="session")
def synthetic_study() -> SyntheticStudy:
    return _run(SyntheticStudy)


@pytest.fixture(scope="session")
def sundog_study() -> SundogStudy:
    return _run(SundogStudy)
