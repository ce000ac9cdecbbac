"""Studies: the paper's experiment grids as campaign strategy layers.

Every cell of Figures 4–8 runs the paper's procedure (§V-A): a fixed
step budget, several independent passes, the best pass graphed and its
winner re-measured.  :func:`run_cell` runs that procedure for any cell.
A cell spec supplies only what differs between the grids — the
substrate (topology, cluster, base configuration), the optimizer/codec
pair, the seed identity and the metadata it stamps — and names its
campaign ``label`` and its store ``cell``.  :class:`SyntheticCellSpec`
is one (condition, size, strategy) cell of the Figure 4–7 grid;
:class:`SundogArmSpec` is one Figure 8 arm over the Sundog topology.

:class:`SyntheticStudy` and :class:`SundogStudy` are thin facades over
:class:`~repro.service.campaign.CampaignRunner`, which owns
orchestration: worker-budget splitting, the process pool or worker
fleet, obs events and failure aggregation.  Both cache their
:class:`~repro.core.history.TuningResult` lists so every dependent
figure derives from one set of runs.  Persistence — per-pass
checkpoints, finished-cell result caches, resume — lives in
:mod:`repro.store`; a cell's ``checkpoint_dir`` is an
:func:`repro.store.open_store` spec (a SQLite ``*.db`` path or a
directory holding one).  :func:`run_cell` writes through the open
store its caller owns — the campaign runner's one handle per run, or a
fleet worker's — and a cell run without one (a process-pool cell)
opens and closes its own.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, ClassVar, Iterable, Sequence, TypeVar

from repro.core.baselines import Optimizer, ParallelLinearAscent
from repro.core.executor import ThreadPoolExecutor
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
from repro.service.campaign import CampaignRunner, CampaignSpec
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
from repro.store import StudyStore, open_store
from repro.storm.topology import Topology
from repro.sundog import sundog_default_config, sundog_topology
from repro.topology_gen.suite import CONDITIONS, TopologyCondition, make_topology

__all__ = [
    "CellSpec",
    "SundogArmSpec",
    "SundogStudy",
    "SyntheticCellSpec",
    "SyntheticStudy",
    "cell_seed",
    "make_synthetic_optimizer",
    "run_cell",
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

#: What every pass of a cell runs on: topology, cluster, base config.
Substrate = tuple[Topology, ClusterSpec, TopologyConfig]

_StudyT = TypeVar("_StudyT", bound="_Study")


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


@dataclass(frozen=True, kw_only=True)
class CellSpec:
    """What every study cell carries besides its grid axes.

    ``loop_workers`` > 1 runs the cell's tuning loops over a
    :class:`~repro.core.executor.ThreadPoolExecutor` (``batch_size``
    in-flight proposals — default the worker count); per-evaluation
    seeds keep the observations order-independent.

    ``checkpoint_dir`` makes the cell crash-safe: it is an
    :func:`repro.store.open_store` spec (a ``*.db`` file, or a
    directory holding ``store.db``); each pass checkpoints its tuning
    loop to the store after every ``tell``, and a finished cell saves
    its results there so a resumed study skips it entirely (see
    docs/STORE.md).

    ``resilience`` applies a :class:`~repro.core.resilience.RetryPolicy`
    to the cell's evaluations (retry/timeout/circuit-breaker).

    A grid's spec adds its axes and what :func:`run_cell` asks of it:
    ``label`` (the campaign label), ``key`` (its study's results key),
    ``base_seed()`` (pass ``i`` runs on ``base_seed() + i``),
    ``metadata()`` (the identity keys stamped first on each pass),
    ``substrate()`` and ``make_optimizer(substrate, seed)`` (one
    pass's optimizer and codec).
    """

    #: Store study the cell persists under.
    study: ClassVar[str]
    #: Offset from a pass seed to its objective's noise seed.
    objective_seed_offset: ClassVar[int]

    strategy: str
    budget: Budget
    seed: int = 0
    loop_workers: int = 1
    batch_size: int | None = None
    checkpoint_dir: str | None = None
    resilience: RetryPolicy | None = None
    #: ``(owner, fencing token)`` when a fleet worker runs the cell
    #: under a store lease: the final results write is fenced, so a
    #: stale worker cannot clobber a newer owner's cell (docs/
    #: ROBUSTNESS.md).
    lease: tuple[str, int] | None = None

    @property
    def label(self) -> str:
        raise NotImplementedError

    @property
    def cell(self) -> str:
        """The store cell the results persist under."""
        return self.label

    @property
    def strategy_name(self) -> str:
        """The strategy name the cell's results carry."""
        return self.strategy

    @property
    def steps(self) -> int:
        """Each pass's step budget."""
        if self.strategy == "bo180":
            return self.budget.steps_extended
        if self.strategy in ("pla", "ipla"):
            return self.budget.baseline_steps
        return self.budget.steps


@dataclass(frozen=True, kw_only=True)
class SyntheticCellSpec(CellSpec):
    """One (size, condition, strategy) cell of the synthetic grid."""

    study: ClassVar[str] = SYNTHETIC_STUDY_NAME
    objective_seed_offset: ClassVar[int] = 777

    size: str
    condition: TopologyCondition

    @property
    def label(self) -> str:
        return f"{self.condition.label}/{self.size}/{self.strategy}"

    @property
    def key(self) -> tuple[TopologyCondition, str, str]:
        return (self.condition, self.size, self.strategy)

    def base_seed(self) -> int:
        return cell_seed(
            self.seed, self.condition.label, self.size, self.strategy
        )

    def metadata(self) -> dict[str, object]:
        return {"size": self.size, "condition": self.condition.label}

    def substrate(self) -> Substrate:
        topology = make_topology(self.size, self.condition)
        return topology, default_cluster(), SYNTHETIC_BASE_CONFIG

    def make_optimizer(
        self, substrate: Substrate, seed: int
    ) -> tuple[Optimizer, ConfigCodec]:
        return make_synthetic_optimizer(
            self.strategy, *substrate, self.steps, seed, fidelity="analytic"
        )


@dataclass(frozen=True, kw_only=True)
class SundogArmSpec(CellSpec):
    """One Figure 8 arm: a strategy on a parameter set."""

    study: ClassVar[str] = SUNDOG_STUDY_NAME
    objective_seed_offset: ClassVar[int] = 131

    param_set: str  # 'h', 'h bs bp', 'bs bp cc'

    @property
    def label(self) -> str:
        return f"{self.strategy}.{self.param_set}"

    @property
    def cell(self) -> str:
        # Sundog arms carry a ``sundog_`` prefix in the store: the
        # store layout predates the campaign labels.
        return f"sundog_{self.label}"

    @property
    def strategy_name(self) -> str:
        return self.label

    @property
    def key(self) -> tuple[str, str]:
        return (self.strategy, self.param_set)

    def base_seed(self) -> int:
        return cell_seed(self.seed, self.strategy, self.param_set)

    def metadata(self) -> dict[str, object]:
        return {"param_set": self.param_set, "strategy": self.strategy}

    def substrate(self) -> Substrate:
        cluster = default_cluster()
        base_config = sundog_default_config(cluster.total_workers)
        return sundog_topology(), cluster, base_config

    def make_optimizer(
        self, substrate: Substrate, seed: int
    ) -> tuple[Optimizer, ConfigCodec]:
        topology, cluster, base_config = substrate
        if self.strategy not in SUNDOG_STRATEGIES:
            raise ValueError(f"unknown sundog strategy {self.strategy!r}")
        if self.param_set not in SUNDOG_PARAM_SETS:
            raise ValueError(f"unknown sundog parameter set {self.param_set!r}")
        if self.strategy == "pla":
            if self.param_set != "h":
                raise ValueError(
                    "the parallel linear ascent only searches parallelism hints"
                )
            ucodec = UniformHintCodec(topology, cluster, base_config)
            ascent = ucodec.ascent_values(self.steps)
            return ParallelLinearAscent("uniform_hint", ascent), ucodec
        codec = _sundog_codec(self.param_set, topology, cluster, base_config)
        initial = _sundog_default_params(codec, base_config)
        optimizer = BayesianOptimizer(
            codec.space, seed=seed, initial_configs=[initial]
        )
        return optimizer, codec


def run_cell(
    spec: SyntheticCellSpec | SundogArmSpec, store: StudyStore | None = None
) -> list[TuningResult]:
    """Run all passes of one study cell (module-level for process pools).

    ``store`` is an open handle its caller owns (a campaign's, or a
    fleet worker's); without one, a cell with a ``checkpoint_dir``
    opens its own store and closes it when done.  A cell whose results
    are already in its store is served from there without running —
    when they are this spec's passes (see :func:`_check_cached`).
    """
    if store is None and spec.checkpoint_dir:
        with open_store(spec.checkpoint_dir) as own:
            return run_cell(spec, own)
    if store is not None:
        cached = store.load_results(spec.study, spec.cell)
        if cached is not None:
            _check_cached(spec, store, cached)
            return cached
    substrate = spec.substrate()
    topology, cluster, _ = substrate
    results: list[TuningResult] = []
    base = spec.base_seed()
    cell_t0 = time.perf_counter()
    for pass_idx in range(spec.budget.passes):
        pass_seed = base + pass_idx
        slot = (
            store.checkpoint_slot(spec.study, spec.cell, f"pass{pass_idx}")
            if store is not None
            else None
        )
        optimizer, codec = spec.make_optimizer(substrate, pass_seed)
        objective = StormObjective(
            topology,
            cluster,
            codec,
            noise=GaussianNoise(MEASUREMENT_NOISE_SIGMA),
            seed=pass_seed + spec.objective_seed_offset,
        )
        executor = (
            ThreadPoolExecutor(objective, max_workers=spec.loop_workers)
            if spec.loop_workers > 1
            else None
        )
        try:
            loop = TuningLoop(
                objective,
                optimizer,
                max_steps=spec.steps,
                repeat_best=spec.budget.repeat_best,
                strategy_name=spec.strategy_name,
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
                **spec.metadata(),
                "pass": pass_idx,
                "cell_seed": pass_seed,
                "cell_seconds": time.perf_counter() - cell_t0,
            }
        )
        cell_t0 = time.perf_counter()
        results.append(result)
    if store is not None:
        if spec.lease is None:
            store.save_results(spec.study, spec.cell, results)
        else:
            owner, token = spec.lease
            store.save_results_fenced(
                spec.study, spec.cell, results, owner=owner, token=int(token)
            )
    return results


def _check_cached(
    spec: SyntheticCellSpec | SundogArmSpec,
    store: StudyStore,
    cached: list[TuningResult],
) -> None:
    """Refuse finished results another campaign left under this cell.

    A store holds one campaign per cell: results written under another
    seed or budget would be served as this spec's.  Each pass must
    carry this spec's ``cell_seed``, ``max_steps`` and ``repeat_best``.
    """
    expected = [
        (spec.base_seed() + i, spec.steps, spec.budget.repeat_best)
        for i in range(spec.budget.passes)
    ]
    found = [
        tuple(r.metadata.get(k) for k in ("cell_seed", "max_steps", "repeat_best"))
        for r in cached
    ]
    if found != expected:
        raise ValueError(
            f"results {store.address(spec.study, spec.cell, 'results')} "
            f"were written with (cell_seed, max_steps, repeat_best) per "
            f"pass {found}; this cell expects {expected}"
        )


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


class _Study:
    """A study facade over :class:`~repro.service.campaign.CampaignRunner`.

    It keeps the paper-facing API (results keyed by the grid's axes,
    ``passes``/``best_pass``) while the campaign layer owns
    orchestration and the store layer persistence.

    ``workers``, when given, is a *total* budget split between cell
    processes and in-loop evaluation concurrency via
    :func:`~repro.service.campaign.split_worker_budget`; without it
    every cell runs serially in this process.
    """

    study_name: ClassVar[str]

    def __init__(
        self,
        budget: Budget | None = None,
        *,
        seed: int = 0,
        workers: int | None = None,
        batch_size: int | None = None,
        checkpoint_dir: str | None = None,
        resilience: RetryPolicy | None = None,
        **axes: Any,
    ) -> None:
        self.budget = budget or default_budget()
        self.seed = seed
        self.campaign = CampaignSpec(
            study=self.study_name,
            budget=self.budget,
            seed=seed,
            workers=workers,
            batch_size=batch_size,
            store=checkpoint_dir,
            resilience=resilience,
            **axes,
        )
        self._runner = CampaignRunner(self.campaign)
        self.results: dict[Any, list[TuningResult]] = {}

    def specs(self) -> list[SyntheticCellSpec | SundogArmSpec]:
        return self._runner.cell_specs()  # type: ignore[return-value]

    def run(self: _StudyT) -> _StudyT:
        by_label = self._runner.run()
        for spec in self.specs():
            self.results[spec.key] = by_label[spec.label]
        return self

    def passes(self, *key: Any) -> list[TuningResult]:
        return self.results[key]

    def best_pass(self, *key: Any) -> TuningResult:
        """The better of the passes (the paper graphs this one)."""
        return best_of(self.passes(*key))


class SyntheticStudy(_Study):
    """The Figure 4–7 grid over synthetic topologies, keyed by
    ``(condition, size, strategy)``."""

    study_name = SYNTHETIC_STUDY_NAME

    def __init__(
        self,
        budget: Budget | None = None,
        *,
        conditions: Sequence[TopologyCondition] = CONDITIONS,
        sizes: Sequence[str] = SIZES,
        strategies: Sequence[str] = SYNTHETIC_STRATEGIES,
        **options: Any,
    ) -> None:
        self.conditions = tuple(conditions)
        self.sizes = tuple(sizes)
        self.strategies = tuple(strategies)
        super().__init__(
            budget,
            conditions=self.conditions,
            sizes=self.sizes,
            strategies=self.strategies,
            **options,
        )


class SundogStudy(_Study):
    """The Figure 8 arms over the Sundog topology, keyed by
    ``(strategy, param_set)``."""

    study_name = SUNDOG_STUDY_NAME

    def __init__(
        self,
        budget: Budget | None = None,
        *,
        arms: Iterable[tuple[str, str]] = SUNDOG_ARMS,
        **options: Any,
    ) -> None:
        self.arms = tuple(arms)
        super().__init__(budget, arms=self.arms, **options)
