"""Campaign orchestration: serializable study grids, leased cells.

The experiment runner used to own all of this inline — worker-budget
splitting, the process-pool fan-out with obs events, per-cell result
caching on the filesystem.  This module extracts it into a service
layer the runner (and anything else — the CLI, a future tuning daemon)
drives through two types:

* :class:`CampaignSpec` — a *data* description of one study campaign:
  which grid (``synthetic`` or ``sundog``), its axes, budget, seeds,
  worker budget, resilience policy, and the study store that holds its
  persistent state.  ``as_dict``/``from_dict`` round-trip it through
  JSON, so a campaign can be submitted, queued, or resumed by a process
  that never constructed the original Python objects.
* :class:`CampaignRunner` — executes a spec: builds the cell specs,
  splits the worker budget between cell processes and in-loop
  evaluation concurrency (:func:`split_worker_budget`), and leases each
  cell to :func:`run_cells`, which fans out over a process pool,
  reports through the active obs context, and aggregates failures into
  one :class:`StudyError` after every cell has been attempted.

Cells persist through :mod:`repro.store` (results cache + per-pass
checkpoints), so a killed campaign resumes from whatever completed —
see docs/STORE.md for the resume guarantees.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import asdict, dataclass, field
from typing import Callable, Mapping, Sequence

from repro.core.history import TuningResult
from repro.core.resilience import RetryPolicy
from repro.experiments.presets import (
    SIZES,
    SYNTHETIC_STRATEGIES,
    Budget,
    default_budget,
)
from repro.obs import runtime as obs_runtime
from repro.topology_gen.suite import CONDITIONS, TopologyCondition

CAMPAIGN_KINDS = ("synthetic", "sundog")
CAMPAIGN_MODES = ("pool", "fleet")

#: Store state-document name under which a fleet campaign publishes its
#: spec (cell ``""``), so `campaign workers` can attach by store alone.
CAMPAIGN_STATE_NAME = "campaign"


def store_cell_label(study: str, label: str) -> str:
    """The store cell a campaign cell persists under.

    Synthetic cells persist under their campaign label verbatim; sundog
    arms carry a ``sundog_`` prefix in the store (the experiment runner
    predates the campaign layer).  Fleet leases key on *store* labels so
    the fenced result write and the lease land on the same cell.
    """
    if study == "sundog":
        return f"sundog_{label}"
    return label


def split_worker_budget(workers: int, n_cells: int) -> tuple[int, int]:
    """Split one worker budget between cell processes and loop threads.

    Returns ``(n_jobs, loop_workers)``: cells are fully independent, so
    the budget goes to cell-level process parallelism first; whatever
    head-room remains (budget beyond the cell count) is spent *inside*
    each cell as concurrent in-loop evaluations.  ``workers=8`` over 24
    cells → 8 cell processes, serial loops; over 2 cells → 2 processes
    with 4 in-flight evaluations each.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    n_jobs = min(workers, max(1, n_cells))
    return n_jobs, max(1, workers // n_jobs)


class StudyError(RuntimeError):
    """One or more study cells raised instead of returning results.

    Raised by :func:`run_cells` *after* every cell has been attempted,
    so a single bad cell cannot waste the others' compute.  ``failures``
    is a list of ``(cell_label, error_description)`` pairs the CLI
    renders as a table before exiting nonzero.
    """

    def __init__(self, study: str, failures: Sequence[tuple[str, str]]) -> None:
        self.study = study
        self.failures = list(failures)
        cells = ", ".join(label for label, _ in self.failures)
        super().__init__(
            f"{len(self.failures)} {study} cell(s) failed: {cells}"
        )


def _result_label(key: object) -> str:
    if isinstance(key, tuple):
        return "/".join(
            getattr(part, "label", None) or str(part) for part in key
        )
    return getattr(key, "label", None) or str(key)


def evaluation_failure_rows(study: object) -> list[dict[str, object]]:
    """Runs whose evaluations *all* failed, as CLI-table rows.

    A run that never produced a single successful measurement has no
    best configuration worth reporting — the paper's procedure (graph
    the best pass, re-measure the winner) is meaningless for it.  The
    CLI prints these rows and exits nonzero so automation notices.
    """
    rows: list[dict[str, object]] = []
    results_by_key = getattr(study, "results", {})
    for key, results in results_by_key.items():
        label = _result_label(key)
        for result in results:
            obs = result.observations
            if not obs or not all(o.failed for o in obs):
                continue
            rows.append(
                {
                    "cell": label,
                    "pass": result.metadata.get("pass", ""),
                    "failed_steps": len(obs),
                    "last_reason": obs[-1].failure_reason or "unknown",
                }
            )
    return rows


def _worker_obs_off() -> None:
    """Disable obs in pool workers (module-level for picklability).

    Under the fork start method a worker inherits the parent's live
    context — including the JSONL sink's file handle, whose shared
    offset makes concurrent writes from several processes interleave.
    Workers run disabled instead and report home through the metrics
    snapshot in ``TuningResult.metadata["obs_metrics"]``.
    """
    obs_runtime.deactivate()


def _cell_seconds(results: list[TuningResult], fallback: float) -> float:
    """Per-cell wall time, preferring the cell's own in-process stamp."""
    stamped = [
        float(r.metadata["cell_seconds"])  # type: ignore[arg-type]
        for r in results
        if "cell_seconds" in r.metadata
    ]
    return sum(stamped) if stamped else fallback


def run_cells(
    study_name: str,
    specs: Sequence[object],
    labels: Sequence[str],
    cell_fn: Callable[..., list[TuningResult]],
    n_jobs: int,
    budget: Budget,
) -> list[list[TuningResult]]:
    """Run every study cell, reporting through the active obs context.

    Emits ``study_start`` / ``cell_start`` / ``cell_finish`` /
    ``study_finish`` events (the progress sink renders them with a
    per-cell ETA) and, for process-parallel execution, merges each
    worker cell's metrics snapshot back into the session registry —
    worker processes carry their own (disabled) obs state, so their
    per-run registries come home inside ``TuningResult.metadata``.

    A cell that raises is recorded (``cell_error`` event) while the
    remaining cells keep running; once every cell has been attempted a
    :class:`StudyError` aggregating the failures is raised.
    """
    ctx = obs_runtime.current()
    ctx.tracer.event(
        "study_start",
        study=study_name,
        n_cells=len(specs),
        budget=asdict(budget),
    )
    outcomes: list[list[TuningResult]] = [[] for _ in specs]
    failures: list[tuple[str, str]] = []

    def cell_failed(i: int, exc: Exception) -> None:
        detail = f"{type(exc).__name__}: {exc}"
        failures.append((labels[i], detail))
        ctx.tracer.event(
            "cell_error", study=study_name, cell=labels[i], error=detail
        )

    if n_jobs > 1:
        submitted = time.perf_counter()
        with ProcessPoolExecutor(
            max_workers=n_jobs, initializer=_worker_obs_off
        ) as pool:
            futures = {}
            for i, spec in enumerate(specs):
                ctx.tracer.event(
                    "cell_start",
                    study=study_name,
                    cell=labels[i],
                    seed=getattr(spec, "seed", None),
                )
                futures[pool.submit(cell_fn, spec)] = i
            for future in as_completed(futures):
                i = futures[future]
                try:
                    outcomes[i] = future.result()
                except Exception as exc:
                    cell_failed(i, exc)
                    continue
                seconds = _cell_seconds(outcomes[i], time.perf_counter() - submitted)
                for result in outcomes[i]:
                    snap = result.metadata.get("obs_metrics")
                    if snap is not None:
                        ctx.metrics.merge_snapshot(snap)  # type: ignore[arg-type]
                ctx.tracer.event(
                    "cell_finish",
                    study=study_name,
                    cell=labels[i],
                    seconds=seconds,
                    best=max(r.best_value for r in outcomes[i]),
                )
    else:
        for i, spec in enumerate(specs):
            ctx.tracer.event(
                "cell_start",
                study=study_name,
                cell=labels[i],
                seed=getattr(spec, "seed", None),
            )
            t0 = time.perf_counter()
            try:
                outcomes[i] = cell_fn(spec)
            except Exception as exc:
                cell_failed(i, exc)
                continue
            ctx.tracer.event(
                "cell_finish",
                study=study_name,
                cell=labels[i],
                seconds=time.perf_counter() - t0,
                best=max(r.best_value for r in outcomes[i]),
            )
    ctx.tracer.event(
        "study_finish",
        study=study_name,
        n_cells=len(specs),
        n_failed_cells=len(failures),
    )
    if failures:
        raise StudyError(study_name, failures)
    return outcomes


# ----------------------------------------------------------------------
# Serializable campaign descriptions
# ----------------------------------------------------------------------
def _budget_as_dict(budget: Budget) -> dict[str, int]:
    return {k: int(v) for k, v in asdict(budget).items()}


def _budget_from_dict(data: Mapping[str, object]) -> Budget:
    return Budget(**{k: int(v) for k, v in data.items()})  # type: ignore[arg-type]


@dataclass(frozen=True)
class CampaignSpec:
    """One study campaign as plain data.

    ``study`` selects the grid family (``synthetic``: conditions ×
    sizes × strategies; ``sundog``: the Figure 8 arms).  ``store`` is an
    :func:`repro.store.open_store` spec — a ``*.db`` file or a
    directory holding ``store.db`` — or ``None`` for a purely in-memory campaign.
    ``workers`` is a total concurrency budget split by
    :func:`split_worker_budget`; ``n_jobs`` sets cell processes directly
    when no budget is given.  ``resilience`` applies one
    :class:`~repro.core.resilience.RetryPolicy` to every cell's
    evaluations.
    """

    study: str
    budget: Budget = field(default_factory=default_budget)
    seed: int = 0
    fidelity: str = "analytic"
    workers: int | None = None
    n_jobs: int = 1
    batch_size: int | None = None
    store: str | None = None
    loop_executor: str = "thread"
    resilience: RetryPolicy | None = None
    #: ``pool``: one coordinator fans cells over a process pool.
    #: ``fleet``: ``workers`` independent, crash-safe worker processes
    #: lease cells through the store (requires ``store``); see
    #: :mod:`repro.service.queue` and docs/ROBUSTNESS.md.
    mode: str = "pool"
    #: Fleet lease heartbeat timeout and poisoned-cell claim bound.
    lease_ttl_seconds: float = 30.0
    max_claim_attempts: int = 5
    #: Synthetic axes (ignored for sundog).
    conditions: tuple[TopologyCondition, ...] = ()
    sizes: tuple[str, ...] = ()
    strategies: tuple[str, ...] = ()
    #: Sundog arms as (strategy, param_set) pairs (ignored for synthetic).
    arms: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        if self.study not in CAMPAIGN_KINDS:
            raise ValueError(
                f"study must be one of {CAMPAIGN_KINDS}, got {self.study!r}"
            )
        if self.mode not in CAMPAIGN_MODES:
            raise ValueError(
                f"mode must be one of {CAMPAIGN_MODES}, got {self.mode!r}"
            )
        if self.mode == "fleet" and not self.store:
            raise ValueError("fleet mode needs a store the workers share")
        if self.lease_ttl_seconds <= 0:
            raise ValueError("lease_ttl_seconds must be > 0")
        if self.max_claim_attempts < 1:
            raise ValueError("max_claim_attempts must be >= 1")

    # ------------------------------------------------------------------
    @property
    def n_cells(self) -> int:
        if self.study == "synthetic":
            return (
                len(self.conditions) * len(self.sizes) * len(self.strategies)
            )
        return len(self.arms)

    def worker_split(self) -> tuple[int, int]:
        """``(n_jobs, loop_workers)`` for this campaign."""
        if self.mode == "fleet":
            # Fleet workers are whole processes; each runs its cells
            # with a serial loop so any worker's cell is byte-identical
            # to a serial run of the same cell.
            return max(1, self.workers or self.n_jobs), 1
        if self.workers is not None:
            return split_worker_budget(self.workers, self.n_cells)
        return max(1, self.n_jobs), 1

    # ------------------------------------------------------------------
    def as_dict(self) -> dict[str, object]:
        return {
            "study": self.study,
            "budget": _budget_as_dict(self.budget),
            "seed": self.seed,
            "fidelity": self.fidelity,
            "workers": self.workers,
            "n_jobs": self.n_jobs,
            "batch_size": self.batch_size,
            "store": self.store,
            "loop_executor": self.loop_executor,
            "resilience": (
                None if self.resilience is None else self.resilience.as_dict()
            ),
            "mode": self.mode,
            "lease_ttl_seconds": self.lease_ttl_seconds,
            "max_claim_attempts": self.max_claim_attempts,
            "conditions": [
                {
                    "time_imbalance": c.time_imbalance,
                    "contentious_share": c.contentious_share,
                }
                for c in self.conditions
            ],
            "sizes": list(self.sizes),
            "strategies": list(self.strategies),
            "arms": [list(arm) for arm in self.arms],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "CampaignSpec":
        resilience = data.get("resilience")
        workers = data.get("workers")
        batch_size = data.get("batch_size")
        return cls(
            study=str(data["study"]),
            budget=_budget_from_dict(data.get("budget") or _budget_as_dict(default_budget())),  # type: ignore[arg-type]
            seed=int(data.get("seed", 0)),  # type: ignore[arg-type]
            fidelity=str(data.get("fidelity", "analytic")),
            workers=None if workers is None else int(workers),  # type: ignore[arg-type]
            n_jobs=int(data.get("n_jobs", 1)),  # type: ignore[arg-type]
            batch_size=None if batch_size is None else int(batch_size),  # type: ignore[arg-type]
            store=None if data.get("store") is None else str(data["store"]),
            loop_executor=str(data.get("loop_executor", "thread")),
            resilience=(
                None
                if resilience is None
                else RetryPolicy.from_dict(resilience)  # type: ignore[arg-type]
            ),
            mode=str(data.get("mode", "pool")),
            lease_ttl_seconds=float(data.get("lease_ttl_seconds", 30.0)),  # type: ignore[arg-type]
            max_claim_attempts=int(data.get("max_claim_attempts", 5)),  # type: ignore[arg-type]
            conditions=tuple(
                TopologyCondition(
                    time_imbalance=float(c["time_imbalance"]),
                    contentious_share=float(c["contentious_share"]),
                )
                for c in data.get("conditions", ())  # type: ignore[union-attr]
            ),
            sizes=tuple(str(s) for s in data.get("sizes", ())),  # type: ignore[union-attr]
            strategies=tuple(str(s) for s in data.get("strategies", ())),  # type: ignore[union-attr]
            arms=tuple(
                (str(a[0]), str(a[1])) for a in data.get("arms", ())  # type: ignore[union-attr]
            ),
        )

    @classmethod
    def synthetic(cls, **kwargs: object) -> "CampaignSpec":
        """A synthetic-grid spec with the paper's default axes."""
        kwargs.setdefault("conditions", CONDITIONS)
        kwargs.setdefault("sizes", SIZES)
        kwargs.setdefault("strategies", SYNTHETIC_STRATEGIES)
        return cls(study="synthetic", **kwargs)  # type: ignore[arg-type]

    @classmethod
    def sundog(cls, **kwargs: object) -> "CampaignSpec":
        """A sundog spec with the paper's Figure 8 arms."""
        if "arms" not in kwargs:
            from repro.experiments.runner import SUNDOG_ARMS

            kwargs["arms"] = SUNDOG_ARMS
        return cls(study="sundog", **kwargs)  # type: ignore[arg-type]


class CampaignRunner:
    """Execute one :class:`CampaignSpec` over the store-backed cells.

    The runner is the *strategy-free* half of a study: it turns the
    spec into cell specs (lazily importing the experiment runner, which
    owns optimizer construction), leases them through
    :func:`run_cells`, and returns outcomes keyed by cell label.  The
    classic study classes (:class:`~repro.experiments.runner.
    SyntheticStudy`, :class:`~repro.experiments.runner.SundogStudy`)
    are thin facades over this.
    """

    def __init__(self, spec: CampaignSpec) -> None:
        self.spec = spec
        self.n_jobs, self.loop_workers = spec.worker_split()
        #: Cell outcomes keyed by label, populated by :meth:`run`.
        self.results: dict[str, list[TuningResult]] = {}

    # ------------------------------------------------------------------
    def cell_specs(self) -> tuple[list[object], list[str], Callable[..., list[TuningResult]]]:
        """``(specs, labels, cell_fn)`` for this campaign's grid.

        The experiment runner is imported here, not at module level:
        it re-exports campaign names for backward compatibility, so a
        top-level import would be circular.
        """
        from repro.experiments import runner

        spec = self.spec
        if spec.study == "synthetic":
            specs: list[object] = [
                runner.SyntheticCellSpec(
                    size=size,
                    condition=condition,
                    strategy=strategy,
                    budget=spec.budget,
                    seed=spec.seed,
                    fidelity=spec.fidelity,
                    loop_workers=self.loop_workers,
                    loop_executor=spec.loop_executor,
                    batch_size=spec.batch_size,
                    checkpoint_dir=spec.store,
                    resilience=spec.resilience,
                )
                for condition in spec.conditions
                for size in spec.sizes
                for strategy in spec.strategies
            ]
            labels = [
                f"{s.condition.label}/{s.size}/{s.strategy}" for s in specs  # type: ignore[attr-defined]
            ]
            return specs, labels, runner.run_synthetic_cell
        specs = [
            runner.SundogArmSpec(
                strategy=strategy,
                param_set=param_set,
                budget=spec.budget,
                seed=spec.seed,
                fidelity=spec.fidelity,
                loop_workers=self.loop_workers,
                loop_executor=spec.loop_executor,
                batch_size=spec.batch_size,
                checkpoint_dir=spec.store,
                resilience=spec.resilience,
            )
            for strategy, param_set in spec.arms
        ]
        labels = [s.label for s in specs]  # type: ignore[attr-defined]
        return specs, labels, runner.run_sundog_arm

    def run(self) -> dict[str, list[TuningResult]]:
        if self.spec.mode == "fleet":
            return self._run_fleet()
        specs, labels, cell_fn = self.cell_specs()
        outcomes = run_cells(
            self.spec.study, specs, labels, cell_fn, self.n_jobs, self.spec.budget
        )
        self.results = dict(zip(labels, outcomes))
        return self.results

    # ------------------------------------------------------------------
    # Fleet mode (repro.service.queue)
    # ------------------------------------------------------------------
    def _run_fleet(self) -> dict[str, list[TuningResult]]:
        """Supervise a crash-safe worker fleet over the shared store.

        Publishes the spec as the store's ``campaign`` state document
        (so detached ``campaign workers`` processes can join), spawns
        ``n_jobs`` worker processes, and respawns any that die while
        non-terminal cells remain — a worker loss costs at most one
        lease TTL of progress, never the campaign.  Quarantined cells
        surface as a :class:`StudyError` after everything else ran.
        """
        import multiprocessing

        from repro.service.queue import CellQueue, QueuePolicy
        from repro.store import open_store

        spec = self.spec
        _specs, labels, _cell_fn = self.cell_specs()
        cells = [store_cell_label(spec.study, label) for label in labels]
        ctx = obs_runtime.current()
        with open_store(spec.store) as store:
            store.save_state(
                spec.study, "", CAMPAIGN_STATE_NAME,
                {"version": 1, "spec": spec.as_dict()},
            )
            policy = QueuePolicy(
                ttl_seconds=spec.lease_ttl_seconds,
                max_claim_attempts=spec.max_claim_attempts,
            )
            queue = CellQueue(store, spec.study, cells, policy)
            ctx.tracer.event(
                "study_start",
                study=spec.study,
                n_cells=len(labels),
                budget=asdict(spec.budget),
                mode="fleet",
                workers=self.n_jobs,
            )
            procs: dict[str, multiprocessing.Process] = {}
            spawned = 0
            # Every respawn means a worker died mid-campaign; the
            # quarantine bound guarantees per-cell progress, so this
            # cap only stops a systemically broken fleet.
            max_spawns = self.n_jobs + 4 * len(labels)
            t0 = time.perf_counter()
            while True:
                pending = queue.pending_labels()
                if not pending:
                    break
                for owner, proc in list(procs.items()):
                    if proc.is_alive():
                        continue
                    proc.join()
                    del procs[owner]
                    ctx.tracer.event(
                        "worker.lost" if proc.exitcode else "worker.done",
                        worker=owner,
                        exitcode=proc.exitcode,
                    )
                while len(procs) < min(self.n_jobs, len(pending)):
                    if spawned >= max_spawns:
                        # Tear the fleet down before reporting failure:
                        # orphaned children would keep claiming cells
                        # and writing to the store after the supervisor
                        # declared the campaign dead.
                        for proc in procs.values():
                            proc.terminate()
                        for proc in procs.values():
                            proc.join(timeout=5.0)
                            if proc.is_alive():
                                proc.kill()
                                proc.join()
                        raise StudyError(
                            spec.study,
                            [
                                (label, "fleet stalled: worker respawn "
                                 f"budget ({max_spawns}) exhausted")
                                for label in pending
                            ],
                        )
                    owner = f"fleet-{spawned}"
                    spawned += 1
                    proc = multiprocessing.Process(
                        target=_fleet_worker_main,
                        args=(spec.as_dict(), owner, policy.as_dict()),
                        name=owner,
                    )
                    proc.start()
                    procs[owner] = proc
                    ctx.tracer.event("worker.spawn", worker=owner)
                time.sleep(min(0.2, policy.poll_interval()))
            for proc in procs.values():
                proc.join()
            seconds = time.perf_counter() - t0
            failures: list[tuple[str, str]] = []
            results: dict[str, list[TuningResult]] = {}
            for label, cell in zip(labels, cells):
                lease = store.read_lease(spec.study, cell)
                if lease is not None and lease.status == "quarantined":
                    failures.append((label, lease.reason or "quarantined"))
                    continue
                cell_results = store.load_results(spec.study, cell)
                if not cell_results:
                    failures.append((label, "no results in the store"))
                    continue
                for result in cell_results:
                    snap = result.metadata.get("obs_metrics")
                    if isinstance(snap, dict):
                        ctx.metrics.merge_snapshot(snap)  # type: ignore[arg-type]
                results[label] = cell_results
            ctx.tracer.event(
                "study_finish",
                study=spec.study,
                n_cells=len(labels),
                n_failed_cells=len(failures),
                seconds=seconds,
            )
            if failures:
                raise StudyError(spec.study, failures)
        self.results = results
        return results


def _fleet_worker_main(
    spec_dict: dict[str, object],
    owner: str,
    policy_dict: dict[str, object],
) -> None:
    """Fleet worker process entry (module-level for picklability).

    Workers deactivate obs for the same reason pool workers do (the
    inherited JSONL sink handle is not multi-process safe) and report
    home through the store.
    """
    from repro.service.queue import QueuePolicy, run_worker

    obs_runtime.deactivate()
    run_worker(
        CampaignSpec.from_dict(spec_dict),
        owner,
        policy=QueuePolicy.from_dict(policy_dict),
    )
