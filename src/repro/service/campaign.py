"""Campaign orchestration: serializable study grids, leased cells.

Every study — from the experiment facades, the CLI or a detached fleet
worker — runs through two types:

* :class:`CampaignSpec` — a *data* description of one study campaign:
  which grid (``synthetic`` or ``sundog``), its axes, budget, seeds,
  worker budget, resilience policy, and the study store that holds its
  persistent state.  ``as_dict``/``from_dict`` round-trip it through
  JSON, so a campaign can be submitted, queued, or resumed by a process
  that never constructed the original Python objects.
* :class:`CampaignRunner` — executes a spec: builds one cell spec per
  grid cell, splits the worker budget between cell processes and
  in-loop evaluation concurrency (:func:`split_worker_budget`), and
  runs every cell through :func:`~repro.experiments.runner.run_cell` —
  either over :func:`run_cells`, which fans out over a process pool,
  reports through the active obs context and aggregates failures into
  one :class:`StudyError` after every cell has been attempted, or over
  a crash-safe worker fleet (:mod:`repro.service.queue`).

Cells persist through :mod:`repro.store` (results cache + per-pass
checkpoints), so a killed campaign resumes from whatever completed —
see docs/STORE.md for the resume guarantees.
"""

from __future__ import annotations

import contextlib
import functools
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from repro.core.history import TuningResult
from repro.core.resilience import RetryPolicy
from repro.experiments.presets import (
    SIZES,
    SYNTHETIC_STRATEGIES,
    Budget,
    default_budget,
)
from repro.obs import runtime as obs_runtime
from repro.store import open_store
from repro.topology_gen.suite import CONDITIONS, TopologyCondition

if TYPE_CHECKING:
    from repro.experiments.runner import CellSpec

CAMPAIGN_KINDS = ("synthetic", "sundog")
CAMPAIGN_MODES = ("pool", "fleet")

#: Store state-document name under which a fleet campaign publishes its
#: spec (cell ``""``), so `campaign workers` can attach by store alone.
CAMPAIGN_STATE_NAME = "campaign"


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


def evaluation_failure_rows(study: object) -> list[dict[str, object]]:
    """Runs whose evaluations *all* failed, as CLI-table rows.

    A run that never produced a single successful measurement has no
    best configuration worth reporting — the paper's procedure (graph
    the best pass, re-measure the winner) is meaningless for it.  The
    CLI prints these rows and exits nonzero so automation notices.
    Each row names its cell by the campaign label (``spec.label``),
    as obs events and :class:`StudyError` do.
    """
    rows: list[dict[str, object]] = []
    for spec in study.specs():  # type: ignore[attr-defined]
        for result in study.results.get(spec.key, ()):  # type: ignore[attr-defined]
            obs = result.observations
            if not obs or not all(o.failed for o in obs):
                continue
            rows.append(
                {
                    "cell": spec.label,
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
    specs: Sequence[CellSpec],
    cell_fn: Callable[[CellSpec], list[TuningResult]],
    n_jobs: int,
    budget: Budget,
) -> list[list[TuningResult]]:
    """Run every study cell, reporting through the active obs context.

    Cells are named by their ``label`` in events and failures.

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
    labels = [spec.label for spec in specs]
    ctx.tracer.event(
        "study_start",
        study=study_name,
        n_cells=len(specs),
        budget=budget.as_dict(),
    )
    outcomes: list[list[TuningResult]] = [[] for _ in specs]
    failures: list[tuple[str, str]] = []

    def cell_started(i: int) -> None:
        ctx.tracer.event(
            "cell_start", study=study_name, cell=labels[i], seed=specs[i].seed
        )

    def cell_finished(i: int, seconds: float) -> None:
        best = max(r.best_value for r in outcomes[i])
        ctx.tracer.event(
            "cell_finish", study=study_name, cell=labels[i], seconds=seconds,
            best=best,
        )

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
                cell_started(i)
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
                cell_finished(i, seconds)
    else:
        for i, spec in enumerate(specs):
            cell_started(i)
            t0 = time.perf_counter()
            try:
                outcomes[i] = cell_fn(spec)
            except Exception as exc:
                cell_failed(i, exc)
                continue
            cell_finished(i, time.perf_counter() - t0)
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
@dataclass(frozen=True)
class CampaignSpec:
    """One study campaign as plain data.

    ``study`` selects the grid family (``synthetic``: conditions ×
    sizes × strategies; ``sundog``: the Figure 8 arms).  ``store`` is an
    :func:`repro.store.open_store` spec — a ``*.db`` file or a
    directory holding ``store.db`` — or ``None`` for a purely in-memory campaign.
    ``workers`` is a total concurrency budget split by
    :func:`split_worker_budget`; without one every cell runs serially in
    the calling process.  Every cell measures the analytic model
    (:class:`~repro.storm.objective.StormObjective`'s default fidelity).
    ``resilience`` applies one :class:`~repro.core.resilience.RetryPolicy`
    to every cell's evaluations.
    """

    study: str
    budget: Budget = field(default_factory=default_budget)
    seed: int = 0
    workers: int | None = None
    batch_size: int | None = None
    store: str | None = None
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
            return max(1, self.workers or 1), 1
        if self.workers is not None:
            return split_worker_budget(self.workers, self.n_cells)
        return 1, 1

    # ------------------------------------------------------------------
    def as_dict(self) -> dict[str, object]:
        return {
            "study": self.study,
            "budget": self.budget.as_dict(),
            "seed": self.seed,
            "workers": self.workers,
            "batch_size": self.batch_size,
            "store": self.store,
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
        # Campaign documents published before the in-loop executor was
        # fixed to threads carry ``"loop_executor": "thread"``, and those
        # published before every cell measured the analytic model carry
        # ``"fidelity": "analytic"`` (and an ``n_jobs``, superseded by
        # ``workers`` and ignored).
        for key, fixed in (("loop_executor", "thread"), ("fidelity", "analytic")):
            value = data.get(key, fixed)
            if value != fixed:
                raise ValueError(
                    f"unsupported {key} {value!r}: only {fixed!r} is supported"
                )
        budget = data.get("budget")
        resilience = data.get("resilience")
        workers = data.get("workers")
        batch_size = data.get("batch_size")
        return cls(
            study=str(data["study"]),
            budget=Budget.from_dict(budget) if budget else default_budget(),  # type: ignore[arg-type]
            seed=int(data.get("seed", 0)),  # type: ignore[arg-type]
            workers=None if workers is None else int(workers),  # type: ignore[arg-type]
            batch_size=None if batch_size is None else int(batch_size),  # type: ignore[arg-type]
            store=None if data.get("store") is None else str(data["store"]),
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
    owns optimizer construction), runs each through
    :func:`~repro.experiments.runner.run_cell` — over :func:`run_cells`
    or a worker fleet — and returns outcomes keyed by cell label.  The
    study classes (:class:`~repro.experiments.runner.SyntheticStudy`,
    :class:`~repro.experiments.runner.SundogStudy`) are thin facades
    over this.
    """

    def __init__(self, spec: CampaignSpec) -> None:
        self.spec = spec
        self.n_jobs, self.loop_workers = spec.worker_split()
        #: Cell outcomes keyed by label, populated by :meth:`run`.
        self.results: dict[str, list[TuningResult]] = {}

    # ------------------------------------------------------------------
    def cell_specs(self) -> list[CellSpec]:
        """One cell spec per cell of this campaign's grid, in grid order.

        The experiment runner is imported here, not at module level: it
        builds its study facades on this module, so a top-level import
        would be circular.
        """
        from repro.experiments import runner

        spec = self.spec
        common = dict(
            budget=spec.budget,
            seed=spec.seed,
            loop_workers=self.loop_workers,
            batch_size=spec.batch_size,
            checkpoint_dir=spec.store,
            resilience=spec.resilience,
        )
        if spec.study == "synthetic":
            return [
                runner.SyntheticCellSpec(
                    size=size, condition=condition, strategy=strategy, **common
                )
                for condition in spec.conditions
                for size in spec.sizes
                for strategy in spec.strategies
            ]
        return [
            runner.SundogArmSpec(
                strategy=strategy, param_set=param_set, **common
            )
            for strategy, param_set in spec.arms
        ]

    def run(self) -> dict[str, list[TuningResult]]:
        if self.spec.mode == "fleet":
            return self._run_fleet()
        from repro.experiments.runner import run_cell

        specs = self.cell_specs()
        # Serial cells share one store handle for the whole run: closing
        # the last connection checkpoints and deletes the WAL file, and
        # every next cell's checkpoint writes would pay for growing a
        # fresh one (~30% slower on perfbench's grid-ckpt).  Pool cells
        # run in other processes and each open their own.
        shared = self.spec.store if self.n_jobs == 1 else None
        with (
            open_store(shared) if shared else contextlib.nullcontext()
        ) as store:
            outcomes = run_cells(
                self.spec.study,
                specs,
                functools.partial(run_cell, store=store),
                self.n_jobs,
                self.spec.budget,
            )
        self.results = {s.label: o for s, o in zip(specs, outcomes)}
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

        spec = self.spec
        specs = self.cell_specs()
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
            queue = CellQueue(store, spec.study, [s.cell for s in specs], policy)
            ctx.tracer.event(
                "study_start",
                study=spec.study,
                n_cells=len(specs),
                budget=spec.budget.as_dict(),
                mode="fleet",
                workers=self.n_jobs,
            )
            procs: dict[str, multiprocessing.Process] = {}
            spawned = 0
            # Every respawn means a worker died mid-campaign; the
            # quarantine bound guarantees per-cell progress, so this
            # cap only stops a systemically broken fleet.
            max_spawns = self.n_jobs + 4 * len(specs)
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
            for cell_spec in specs:
                label = cell_spec.label
                lease = store.read_lease(spec.study, cell_spec.cell)
                if lease is not None and lease.status == "quarantined":
                    failures.append((label, lease.reason or "quarantined"))
                    continue
                cell_results = store.load_results(spec.study, cell_spec.cell)
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
                n_cells=len(specs),
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
