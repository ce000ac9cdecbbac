"""The benchmark's three workloads, each a campaign through the public study API.

A :class:`Campaign` is built in set-up (study construction) and then
:meth:`Campaign.run` is the measured region: the study run plus the
exhibit rendering the ``repro-experiments`` CLI would do.  After the run
:meth:`Campaign.passes` hands back every tuning pass with what the
output checks need to re-evaluate its best configuration.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.core.history import TuningResult
from repro.experiments import figures, report
from repro.experiments.presets import (
    SYNTHETIC_BASE_CONFIG,
    default_cluster,
    scaled_budget,
)
from repro.experiments.runner import (
    SundogStudy,
    SyntheticStudy,
    _sundog_codec,
    make_synthetic_optimizer,
)
from repro.storm.config import TopologyConfig
from repro.storm.spaces import ConfigCodec
from repro.storm.topology import Topology
from repro.sundog import sundog_default_config, sundog_topology
from repro.topology_gen.suite import CONDITIONS, TopologyCondition, make_topology

#: ``synth-small``'s Fig 4/5 condition: 100% time imbalance, 25% contentious.
IMBALANCED_CONTENTIOUS = TopologyCondition(time_imbalance=1.0, contentious_share=0.25)

#: The six Fig 8 Bayesian arms (the pla arm is left out: no GP, no decisions).
SUNDOG_BO_ARMS = (
    ("bo", "h"),
    ("bo180", "h"),
    ("bo", "h bs bp"),
    ("bo180", "h bs bp"),
    ("bo", "bs bp cc"),
    ("bo180", "bs bp cc"),
)


@dataclass(frozen=True)
class PassRecord:
    """One tuning pass plus what re-evaluating its best config needs."""

    label: str
    result: TuningResult
    topology: Topology
    codec: ConfigCodec
    base_config: TopologyConfig


def render(builders: list[Callable[[object], figures.FigureData]], study: object) -> int:
    """Build and render exhibits as the CLI does; returns characters rendered."""
    return sum(len(report.render_figure(build(study))) for build in builders)


def synthetic_passes(study: SyntheticStudy) -> list[PassRecord]:
    cluster = default_cluster()
    records = []
    for (condition, size, strategy), results in study.results.items():
        topology = make_topology(size, condition)
        _, codec = make_synthetic_optimizer(
            strategy, topology, cluster, SYNTHETIC_BASE_CONFIG, study.budget.steps, 0
        )
        for i, result in enumerate(results):
            records.append(
                PassRecord(
                    f"{condition.label}/{size}/{strategy}/pass{i}",
                    result,
                    topology,
                    codec,
                    SYNTHETIC_BASE_CONFIG,
                )
            )
    return records


def _results_json(results: list[TuningResult]) -> str:
    """Results in the store's own JSON encoding, keys sorted."""
    return json.dumps([r.as_dict() for r in results], default=str, sort_keys=True)


class Campaign:
    """One workload campaign for one seed.

    Subclasses build their study in ``__init__`` (set-up) and run it in
    :meth:`run` (measured).
    """

    #: Decisions counted for ``decide_*``: ``True`` keeps only
    #: model-driven steps (past each pass's warm-up design).
    model_driven_only = True

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir

    def run(self, evaluations: Callable[[], int]) -> None:
        """The measured region; ``evaluations()`` reads the running count
        of evaluations, so a campaign can check a part of it ran none."""
        raise NotImplementedError

    def passes(self) -> list[PassRecord]:
        raise NotImplementedError

    def check(self) -> list[str]:
        """Workload-specific output problems (empty when correct)."""
        return []

    def store_bytes(self) -> int:
        return 0

    def close(self) -> None:
        """Remove anything the campaign wrote."""


class SynthSmall(Campaign):
    """``bo``, ``ibo`` and ``bo180`` on the small topology, analytic fidelity
    with the feasibility screener attached."""

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.study = SyntheticStudy(
            scaled_budget(),
            conditions=(IMBALANCED_CONTENTIOUS,),
            sizes=("small",),
            strategies=("bo", "ibo", "bo180"),
            seed=seed,
        )

    def run(self, evaluations: Callable[[], int]) -> None:
        self.study.run()
        render(
            [
                figures.figure4_throughput,
                figures.figure5_convergence,
                figures.figure6_loess_traces,
                figures.figure7_step_time,
            ],
            self.study,
        )

    def passes(self) -> list[PassRecord]:
        return synthetic_passes(self.study)


class Sundog(Campaign):
    """The six Fig 8 BO arms: all-integer spaces, no screener."""

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.study = SundogStudy(scaled_budget(), arms=SUNDOG_BO_ARMS, seed=seed)

    def run(self, evaluations: Callable[[], int]) -> None:
        self.study.run()
        render(
            [figures.figure8a_sundog_throughput, figures.figure8b_sundog_convergence],
            self.study,
        )

    def passes(self) -> list[PassRecord]:
        topology = sundog_topology()
        cluster = default_cluster()
        base = sundog_default_config(cluster.total_workers)
        records = []
        for (strategy, param_set), results in self.study.results.items():
            codec = _sundog_codec(param_set, topology, cluster, base)
            for i, result in enumerate(results):
                records.append(
                    PassRecord(
                        f"sundog/{strategy}.{param_set}/pass{i}",
                        result,
                        topology,
                        codec,
                        base,
                    )
                )
        return records


class GridCheckpoint(Campaign):
    """``pla`` and ``ipla`` over all 12 cells into a JSONL study store,
    then the same campaign again, served from the finished store."""

    model_driven_only = False

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.store = workdir / f"store-{seed}"
        shutil.rmtree(self.store, ignore_errors=True)
        self.study = self._study()
        self.reread: SyntheticStudy | None = None
        self.reread_evaluations = -1

    def _study(self) -> SyntheticStudy:
        return SyntheticStudy(
            scaled_budget(),
            conditions=CONDITIONS,
            strategies=("pla", "ipla"),
            seed=self.seed,
            checkpoint_dir=str(self.store),
        )

    def run(self, evaluations: Callable[[], int]) -> None:
        self.study.run()
        before = evaluations()
        self.reread = self._study().run()
        self.reread_evaluations = evaluations() - before
        render(
            [figures.figure4_throughput, figures.figure5_convergence], self.reread
        )

    def passes(self) -> list[PassRecord]:
        return synthetic_passes(self.study)

    def check(self) -> list[str]:
        problems = []
        if self.reread_evaluations != 0:
            problems.append(
                f"second pass over the finished store ran "
                f"{self.reread_evaluations} evaluations (expected 0)"
            )
        for key, written in self.study.results.items():
            if _results_json(self.reread.results[key]) != _results_json(written):
                problems.append(
                    f"store read-back differs for {key[0].label}/{key[1]}/{key[2]}"
                )
        return problems

    def store_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.store.rglob("*") if p.is_file())

    def close(self) -> None:
        shutil.rmtree(self.store, ignore_errors=True)


@dataclass(frozen=True)
class Workload:
    name: str
    campaign: type[Campaign]
    #: Nominal seconds of one campaign execution.
    execution_seconds: float

    def rounds(self, seconds: int) -> int:
        """Campaigns one run measures: as many as fit ``seconds``.

        A pure function of ``--seconds``, so the decision sample count
        (and with it the tail percentile) is fixed per workload.
        """
        return max(1, round(seconds / self.execution_seconds))


#: Why each workload was chosen is recorded in ``BENCHMARK.json``.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("synth-small", SynthSmall, 5.5),
        Workload("sundog", Sundog, 5.5),
        Workload("grid-ckpt", GridCheckpoint, 6.0),
    )
}
