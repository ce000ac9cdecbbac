"""Studies: the paper's experiment grids as campaign strategy layers.

:class:`SyntheticStudy` runs the Figure 4–7 grid — four workload
conditions × three topology sizes × five strategies (pla, bo, ipla,
ibo, bo180) — with the paper's procedure: several independent passes,
best pass graphed, winner re-measured.  :class:`SundogStudy` runs the
Figure 8 arms over the Sundog topology.  Both cache their
:class:`~repro.core.history.TuningResult` lists so every dependent
figure derives from one set of runs.

This module owns *strategy*: which optimizer/codec pair a cell builds,
which seeds and step budgets it uses.  Orchestration — worker-budget
splitting, the process pool, obs events, failure aggregation — lives in
:mod:`repro.service.campaign`, and persistence — per-pass checkpoints,
finished-cell result caches, resume — in :mod:`repro.store` (a cell
spec's ``checkpoint_dir`` is an :func:`repro.store.open_store` spec, so
it accepts either a SQLite ``*.db`` path or a directory holding one).
The campaign names (:class:`~repro.service.campaign.StudyError`,
:func:`~repro.service.campaign.split_worker_budget`, ...) are
re-exported here for backward compatibility.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.core.baselines import Optimizer, ParallelLinearAscent
from repro.core.executor import make_executor
from repro.core.history import TuningResult, best_of
from repro.core.loop import TuningLoop
from repro.core.optimizer import BayesianOptimizer
from repro.core.resilience import RetryPolicy
from repro.core.seeding import derive_seed
from repro.experiments.presets import (
    MEASUREMENT_NOISE_SIGMA,
    SIZES,
    SYNTHETIC_BASE_CONFIG,
    SYNTHETIC_STRATEGIES,
    Budget,
    default_budget,
    default_cluster,
)
from repro.service.campaign import (
    CampaignRunner,
    CampaignSpec,
    StudyError,
    evaluation_failure_rows,
    run_cells,
    split_worker_budget,
)
from repro.storm.cluster import ClusterSpec
from repro.storm.config import TopologyConfig
from repro.storm.noise import GaussianNoise
from repro.storm.objective import StormObjective
from repro.storm.spaces import (
    HINT_PREFIX,
    ConfigCodec,
    InformedMultiplierCodec,
    ParallelismCodec,
    SundogParameterCodec,
    UniformHintCodec,
)
from repro.storm.topology import Topology
from repro.sundog import sundog_default_config, sundog_topology
from repro.topology_gen.suite import CONDITIONS, TopologyCondition, make_topology

__all__ = [
    "StudyError",
    "SundogArmSpec",
    "SundogStudy",
    "SyntheticCellSpec",
    "SyntheticStudy",
    "cell_seed",
    "evaluation_failure_rows",
    "make_synthetic_optimizer",
    "run_cells",
    "run_sundog_arm",
    "run_synthetic_cell",
    "split_worker_budget",
]

#: Sundog parameter sets of Figure 8 (paper labels).
SUNDOG_PARAM_SETS: tuple[str, ...] = ("h", "h bs bp", "bs bp cc")
SUNDOG_STRATEGIES: tuple[str, ...] = ("pla", "bo", "bo180")

#: The hint the paper fixes for the "bs bp cc" arm: the best value the
#: parallel linear ascent found for Sundog (§V-D).
SUNDOG_PLA_BEST_HINT = 11

#: Store study names the two grids persist under.
SYNTHETIC_STUDY_NAME = "synthetic"
SUNDOG_STUDY_NAME = "sundog"


def cell_seed(base_seed: int, *identity: object) -> int:
    """Derive an independent seed stream for one study cell.

    Thin alias for :func:`repro.core.seeding.derive_seed` (the shared
    blake2b scheme the evaluation executors also use), kept under the
    study-level name: every ``(condition, size, strategy)`` cell gets
    its own optimizer/measurement-noise stream — a plain ``seed * K +
    pass`` scheme hands every cell of the grid the *same* streams and
    correlates noise across the whole study.
    """
    return derive_seed(base_seed, *identity)


def _default_hint_config(codec: ParallelismCodec) -> dict[str, object]:
    """The all-ones starting point a production deployment begins from."""
    params: dict[str, object] = {
        f"{HINT_PREFIX}{name}": 1
        for name in codec.topology.topological_order()
    }
    if codec.include_max_tasks:
        params["max_tasks"] = codec.space["max_tasks"].high
    return params


def make_synthetic_optimizer(
    strategy: str,
    topology: Topology,
    cluster: ClusterSpec,
    base_config: TopologyConfig,
    steps: int,
    seed: int,
    *,
    fidelity: str | None = None,
) -> tuple[Optimizer, ConfigCodec]:
    """Optimizer + codec pair for one synthetic strategy.

    When ``fidelity`` is ``"analytic"``, the Bayesian strategies get a
    batch-analytic feasibility screener
    (:func:`repro.storm.analytic_batch.make_analytic_screener`): their
    snapped candidate pools are scored in one vectorized pass and
    infeasible configurations are dropped before gradient refinement.
    """

    def _screener(codec: ConfigCodec):
        if fidelity != "analytic":
            return None
        from repro.storm.analytic_batch import make_analytic_screener

        return make_analytic_screener(codec, topology, cluster)

    if strategy == "pla":
        codec = UniformHintCodec(topology, cluster, base_config)
        return (
            ParallelLinearAscent("uniform_hint", codec.ascent_values(steps)),
            codec,
        )
    if strategy == "ipla":
        codec = InformedMultiplierCodec(topology, cluster, base_config)
        return (
            ParallelLinearAscent("multiplier", codec.ascent_values(steps)),
            codec,
        )
    if strategy in ("bo", "bo180"):
        codec = ParallelismCodec(topology, cluster, base_config)
        optimizer = BayesianOptimizer(
            codec.space,
            seed=seed,
            initial_configs=[_default_hint_config(codec)],
            screener=_screener(codec),
        )
        return optimizer, codec
    if strategy == "ibo":
        codec = InformedMultiplierCodec(topology, cluster, base_config)
        optimizer = BayesianOptimizer(
            codec.space, seed=seed, screener=_screener(codec)
        )
        return optimizer, codec
    if strategy == "rs":
        # Random-search control (not in the paper's Figure 4; used by
        # the ablation benches and available for what-if studies).
        from repro.core.baselines import RandomSearchOptimizer

        codec = ParallelismCodec(topology, cluster, base_config)
        return RandomSearchOptimizer(codec.space, seed=seed), codec
    raise ValueError(f"unknown synthetic strategy {strategy!r}")


@dataclass(frozen=True)
class SyntheticCellSpec:
    """One (size, condition, strategy) cell of the synthetic grid.

    ``loop_workers`` > 1 runs the cell's tuning loops over a concurrent
    evaluation executor (``loop_executor`` kind, ``batch_size``
    in-flight proposals — default the worker count); per-evaluation
    seeds keep the observations order-independent.

    ``checkpoint_dir`` makes the cell crash-safe: it is an
    :func:`repro.store.open_store` spec (a ``*.db`` file, or a
    directory holding ``store.db``); each pass checkpoints its tuning loop to the store after
    every ``tell``, and a finished cell saves its results there so a
    resumed study skips it entirely (see docs/STORE.md).

    ``resilience`` applies a :class:`~repro.core.resilience.RetryPolicy`
    to the cell's evaluations (retry/timeout/circuit-breaker).
    """

    size: str
    condition: TopologyCondition
    strategy: str
    budget: Budget
    seed: int = 0
    fidelity: str = "analytic"
    loop_workers: int = 1
    loop_executor: str = "thread"
    batch_size: int | None = None
    checkpoint_dir: str | None = None
    resilience: RetryPolicy | None = None
    #: ``(owner, fencing token)`` when a fleet worker runs the cell
    #: under a store lease: the final results write is fenced, so a
    #: stale worker cannot clobber a newer owner's cell (docs/
    #: ROBUSTNESS.md).
    lease: tuple[str, int] | None = None


def _save_cell_results(store, study, cell, results, lease) -> None:
    """Persist a finished cell, fenced when run under a fleet lease."""
    if lease is not None:
        store.save_results_fenced(
            study, cell, results, owner=lease[0], token=int(lease[1])
        )
    else:
        store.save_results(study, cell, results)


def run_synthetic_cell(spec: SyntheticCellSpec) -> list[TuningResult]:
    """Run all passes of one cell (module-level for process pools)."""
    store = None
    cell_label = f"{spec.condition.label}/{spec.size}/{spec.strategy}"
    if spec.checkpoint_dir:
        from repro.store import open_store

        store = open_store(spec.checkpoint_dir)
        cached = store.load_results(SYNTHETIC_STUDY_NAME, cell_label)
        if cached is not None:
            return cached
    topology = make_topology(spec.size, spec.condition)
    cluster = default_cluster()
    if spec.strategy == "bo180":
        steps = spec.budget.steps_extended
    elif spec.strategy in ("pla", "ipla"):
        steps = spec.budget.baseline_steps
    else:
        steps = spec.budget.steps
    results: list[TuningResult] = []
    base = cell_seed(spec.seed, spec.condition.label, spec.size, spec.strategy)
    cell_t0 = time.perf_counter()
    for pass_idx in range(spec.budget.passes):
        pass_seed = base + pass_idx
        slot = (
            store.checkpoint_slot(
                SYNTHETIC_STUDY_NAME, cell_label, f"pass{pass_idx}"
            )
            if store is not None
            else None
        )
        optimizer, codec = make_synthetic_optimizer(
            spec.strategy,
            topology,
            cluster,
            SYNTHETIC_BASE_CONFIG,
            steps,
            pass_seed,
            fidelity=spec.fidelity,
        )
        objective = StormObjective(
            topology,
            cluster,
            codec,
            fidelity=spec.fidelity,  # type: ignore[arg-type]
            noise=GaussianNoise(MEASUREMENT_NOISE_SIGMA),
            seed=pass_seed + 777,
        )
        executor = (
            make_executor(
                spec.loop_executor, objective, max_workers=spec.loop_workers
            )
            if spec.loop_workers > 1
            else None
        )
        try:
            loop = TuningLoop(
                objective,
                optimizer,
                max_steps=steps,
                repeat_best=spec.budget.repeat_best,
                strategy_name=spec.strategy,
                executor=executor,
                batch_size=spec.batch_size,
                # Checkpointed passes always get per-evaluation seeds:
                # resuming mid-pass in a fresh process must replay the
                # same noise streams the uninterrupted run would draw.
                seed=(
                    pass_seed + 991
                    if executor is not None or slot is not None
                    else None
                ),
                checkpoint=slot,
                resilience=spec.resilience,
            )
            result = loop.run()
        finally:
            if executor is not None:
                executor.close()
        result.metadata.update(
            {
                "size": spec.size,
                "condition": spec.condition.label,
                "pass": pass_idx,
                "cell_seed": pass_seed,
                "cell_seconds": time.perf_counter() - cell_t0,
            }
        )
        cell_t0 = time.perf_counter()
        results.append(result)
    if store is not None:
        _save_cell_results(
            store, SYNTHETIC_STUDY_NAME, cell_label, results, spec.lease
        )
    return results


class SyntheticStudy:
    """The Figure 4–7 grid over synthetic topologies.

    A thin strategy facade over :class:`~repro.service.campaign.
    CampaignRunner`: this class keeps the paper-facing API (keyed
    results, ``passes``/``best_pass``) while the campaign layer owns
    orchestration and the store layer persistence.

    ``n_jobs`` controls cell-level process parallelism directly;
    ``workers``, when given, is a *total* budget split between cell
    processes and in-loop evaluation concurrency via
    :func:`split_worker_budget` (overriding ``n_jobs``).
    """

    def __init__(
        self,
        budget: Budget | None = None,
        *,
        conditions: Sequence[TopologyCondition] = CONDITIONS,
        sizes: Sequence[str] = SIZES,
        strategies: Sequence[str] = SYNTHETIC_STRATEGIES,
        seed: int = 0,
        fidelity: str = "analytic",
        n_jobs: int = 1,
        workers: int | None = None,
        batch_size: int | None = None,
        checkpoint_dir: str | None = None,
        resilience: RetryPolicy | None = None,
    ) -> None:
        self.budget = budget or default_budget()
        self.conditions = tuple(conditions)
        self.sizes = tuple(sizes)
        self.strategies = tuple(strategies)
        self.seed = seed
        self.fidelity = fidelity
        self.workers = workers
        self.batch_size = batch_size
        self.checkpoint_dir = checkpoint_dir
        self.resilience = resilience
        self.campaign = CampaignSpec(
            study=SYNTHETIC_STUDY_NAME,
            budget=self.budget,
            seed=seed,
            fidelity=fidelity,
            workers=workers,
            n_jobs=n_jobs,
            batch_size=batch_size,
            store=checkpoint_dir,
            resilience=resilience,
            conditions=self.conditions,
            sizes=self.sizes,
            strategies=self.strategies,
        )
        self._runner = CampaignRunner(self.campaign)
        self.n_jobs = self._runner.n_jobs
        self.loop_workers = self._runner.loop_workers
        self.results: dict[
            tuple[TopologyCondition, str, str], list[TuningResult]
        ] = {}

    def specs(self) -> list[SyntheticCellSpec]:
        return self._runner.cell_specs()[0]  # type: ignore[return-value]

    def run(self) -> "SyntheticStudy":
        specs = self.specs()
        by_label = self._runner.run()
        for spec in specs:
            label = f"{spec.condition.label}/{spec.size}/{spec.strategy}"
            self.results[(spec.condition, spec.size, spec.strategy)] = (
                by_label[label]
            )
        return self

    # ------------------------------------------------------------------
    def passes(
        self, condition: TopologyCondition, size: str, strategy: str
    ) -> list[TuningResult]:
        return self.results[(condition, size, strategy)]

    def best_pass(
        self, condition: TopologyCondition, size: str, strategy: str
    ) -> TuningResult:
        """The better of the passes (the paper graphs this one)."""
        return best_of(self.passes(condition, size, strategy))


@dataclass(frozen=True)
class SundogArmSpec:
    """One Figure 8 arm: a strategy on a parameter set."""

    strategy: str  # 'pla', 'bo', 'bo180'
    param_set: str  # 'h', 'h bs bp', 'bs bp cc'
    budget: Budget
    seed: int = 0
    fidelity: str = "analytic"
    loop_workers: int = 1
    loop_executor: str = "thread"
    batch_size: int | None = None
    checkpoint_dir: str | None = None
    resilience: RetryPolicy | None = None
    #: ``(owner, fencing token)`` for fleet workers; see
    #: :class:`SyntheticCellSpec`.
    lease: tuple[str, int] | None = None

    @property
    def label(self) -> str:
        return f"{self.strategy}.{self.param_set}"


def _sundog_codec(
    param_set: str,
    topology: Topology,
    cluster: ClusterSpec,
    base_config: TopologyConfig,
) -> SundogParameterCodec:
    include = {
        "h": ("h",),
        "h bs bp": ("h", "bs", "bp"),
        "bs bp cc": ("bs", "bp", "cc"),
    }[param_set]
    fixed_hint = SUNDOG_PLA_BEST_HINT if "h" not in include else None
    return SundogParameterCodec(
        topology,
        cluster,
        base_config,
        include=include,
        fixed_hint=fixed_hint,
    )


def run_sundog_arm(spec: SundogArmSpec) -> list[TuningResult]:
    """Run all passes of one Figure 8 arm."""
    store = None
    cell_label = f"sundog_{spec.label}"
    if spec.checkpoint_dir:
        from repro.store import open_store

        store = open_store(spec.checkpoint_dir)
        cached = store.load_results(SUNDOG_STUDY_NAME, cell_label)
        if cached is not None:
            return cached
    topology = sundog_topology()
    cluster = default_cluster()
    base_config = sundog_default_config(cluster.total_workers)
    if spec.strategy == "bo180":
        steps = spec.budget.steps_extended
    elif spec.strategy == "pla":
        steps = spec.budget.baseline_steps
    else:
        steps = spec.budget.steps
    results: list[TuningResult] = []
    base = cell_seed(spec.seed, spec.strategy, spec.param_set)
    cell_t0 = time.perf_counter()
    for pass_idx in range(spec.budget.passes):
        pass_seed = base + pass_idx
        slot = (
            store.checkpoint_slot(
                SUNDOG_STUDY_NAME, cell_label, f"pass{pass_idx}"
            )
            if store is not None
            else None
        )
        if spec.strategy == "pla":
            if spec.param_set != "h":
                raise ValueError(
                    "the parallel linear ascent only searches parallelism hints"
                )
            ucodec = UniformHintCodec(topology, cluster, base_config)
            codec: ConfigCodec = ucodec
            optimizer: Optimizer = ParallelLinearAscent(
                "uniform_hint", ucodec.ascent_values(steps)
            )
        else:
            scodec = _sundog_codec(spec.param_set, topology, cluster, base_config)
            codec = scodec
            initial = _sundog_default_params(scodec, base_config)
            optimizer = BayesianOptimizer(
                scodec.space, seed=pass_seed, initial_configs=[initial]
            )
        objective = StormObjective(
            topology,
            cluster,
            codec,
            fidelity=spec.fidelity,  # type: ignore[arg-type]
            noise=GaussianNoise(MEASUREMENT_NOISE_SIGMA),
            seed=pass_seed + 131,
        )
        executor = (
            make_executor(
                spec.loop_executor, objective, max_workers=spec.loop_workers
            )
            if spec.loop_workers > 1
            else None
        )
        try:
            loop = TuningLoop(
                objective,
                optimizer,
                max_steps=steps,
                repeat_best=spec.budget.repeat_best,
                strategy_name=spec.label,
                executor=executor,
                batch_size=spec.batch_size,
                seed=(
                    pass_seed + 991
                    if executor is not None or slot is not None
                    else None
                ),
                checkpoint=slot,
                resilience=spec.resilience,
            )
            result = loop.run()
        finally:
            if executor is not None:
                executor.close()
        result.metadata.update(
            {
                "param_set": spec.param_set,
                "strategy": spec.strategy,
                "pass": pass_idx,
                "cell_seed": pass_seed,
                "cell_seconds": time.perf_counter() - cell_t0,
            }
        )
        cell_t0 = time.perf_counter()
        results.append(result)
    if store is not None:
        _save_cell_results(
            store, SUNDOG_STUDY_NAME, cell_label, results, spec.lease
        )
    return results


def _sundog_default_params(
    codec: SundogParameterCodec, base_config: TopologyConfig
) -> dict[str, object]:
    """Encode the developers' manual configuration as a starting point."""
    params: dict[str, object] = {}
    if "h" in codec.include:
        for name in codec.topology.topological_order():
            params[f"{HINT_PREFIX}{name}"] = 1
        params["max_tasks"] = codec.space["max_tasks"].high
    if "bs" in codec.include:
        params["batch_size"] = base_config.batch_size
    if "bp" in codec.include:
        params["batch_parallelism"] = base_config.batch_parallelism
    if "cc" in codec.include:
        params["worker_threads"] = base_config.worker_threads
        params["receiver_threads"] = base_config.receiver_threads
        params["ackers"] = base_config.effective_ackers()
    return params


#: The Figure 8 arms: pla searches hints only; the Bayesian optimizer
#: additionally tunes the batch and concurrency parameter sets.
SUNDOG_ARMS: tuple[tuple[str, str], ...] = (
    ("pla", "h"),
    ("bo", "h"),
    ("bo180", "h"),
    ("bo", "h bs bp"),
    ("bo180", "h bs bp"),
    ("bo", "bs bp cc"),
    ("bo180", "bs bp cc"),
)


class SundogStudy:
    """The Figure 8 arms over the Sundog topology."""

    def __init__(
        self,
        budget: Budget | None = None,
        *,
        arms: Iterable[tuple[str, str]] = SUNDOG_ARMS,
        seed: int = 0,
        fidelity: str = "analytic",
        n_jobs: int = 1,
        workers: int | None = None,
        batch_size: int | None = None,
        checkpoint_dir: str | None = None,
        resilience: RetryPolicy | None = None,
    ) -> None:
        self.budget = budget or default_budget()
        self.arms = tuple(arms)
        self.seed = seed
        self.fidelity = fidelity
        self.workers = workers
        self.batch_size = batch_size
        self.checkpoint_dir = checkpoint_dir
        self.resilience = resilience
        self.campaign = CampaignSpec(
            study=SUNDOG_STUDY_NAME,
            budget=self.budget,
            seed=seed,
            fidelity=fidelity,
            workers=workers,
            n_jobs=n_jobs,
            batch_size=batch_size,
            store=checkpoint_dir,
            resilience=resilience,
            arms=self.arms,
        )
        self._runner = CampaignRunner(self.campaign)
        self.n_jobs = self._runner.n_jobs
        self.loop_workers = self._runner.loop_workers
        self.results: dict[tuple[str, str], list[TuningResult]] = {}

    def specs(self) -> list[SundogArmSpec]:
        return self._runner.cell_specs()[0]  # type: ignore[return-value]

    def run(self) -> "SundogStudy":
        specs = self.specs()
        by_label = self._runner.run()
        for spec in specs:
            self.results[(spec.strategy, spec.param_set)] = by_label[spec.label]
        return self

    def passes(self, strategy: str, param_set: str) -> list[TuningResult]:
        return self.results[(strategy, param_set)]

    def best_pass(self, strategy: str, param_set: str) -> TuningResult:
        return best_of(self.passes(strategy, param_set))
