"""Process-parallel study execution (cells must be picklable)."""

from __future__ import annotations


from repro.experiments.presets import Budget
from repro.experiments.runner import SundogStudy, SyntheticStudy
from repro.topology_gen.suite import CONDITIONS


TINY = Budget(steps=4, steps_extended=5, baseline_steps=6, passes=1, repeat_best=2)


def test_synthetic_study_with_process_pool():
    serial = SyntheticStudy(
        TINY,
        conditions=[CONDITIONS[0]],
        sizes=["small"],
        strategies=["pla", "bo"],
    ).run()
    parallel = SyntheticStudy(
        TINY,
        conditions=[CONDITIONS[0]],
        sizes=["small"],
        strategies=["pla", "bo"],
        workers=2,
    ).run()
    assert set(parallel.results) == set(serial.results)
    for key in serial.results:
        # Same seeds, same deterministic cells -> identical trajectories.
        assert parallel.results[key][0].values() == serial.results[key][0].values()


def test_sundog_study_with_process_pool():
    study = SundogStudy(TINY, arms=[("pla", "h"), ("bo", "h")], workers=2).run()
    assert set(study.results) == {("pla", "h"), ("bo", "h")}
    for results in study.results.values():
        assert results[0].n_steps >= 1
