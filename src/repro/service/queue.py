"""Lease-based cell work queue: crash-safe multi-worker campaigns.

This module turns the :class:`~repro.store.base.StudyStore` lease
primitives (owner id, monotonic fencing token, heartbeat deadline) into
the worker fleet the campaign layer runs on: N independent
:func:`run_worker` processes pointed at one store execute one campaign
concurrently, and any of them can be SIGKILLed at any moment without
losing or duplicating observations (docs/ROBUSTNESS.md):

* **claim** — :class:`CellQueue` scans the campaign's cells and
  acquires the first free one; expired leases (a dead worker's
  heartbeat deadline passed) are reclaimed with a bumped fencing token,
  and the cell's per-observation checkpoints mean the next claimant
  resumes mid-cell instead of starting over;
* **heartbeat** — a daemon thread renews the lease every
  ``ttl / 3`` so a *live* worker is never reclaimed; a renewal that
  raises :class:`~repro.store.base.StaleLeaseError` marks the worker
  stale and its results are dropped (the new owner re-derives them
  deterministically);
* **commit** — the cell function writes its results under the fencing
  token (:meth:`~repro.store.base.StudyStore.save_results_fenced`),
  then the worker commits the lease.  A crash between those two phases
  leaves a *torn commit*: results present, lease uncommitted — the next
  claimant sees the results and re-commits without re-running, which
  keeps commits idempotent and byte-identical;
* **quarantine** — a cell whose claims keep dying (``attempts`` above
  the policy bound) or whose execution raises a *persistent* failure
  (:func:`~repro.core.resilience.classify_failure`) is parked
  terminally with the recorded reason instead of crash-looping the
  fleet.

``benchmarks/bench_fleet.py`` is the seed-deterministic kill-fuzzer
that SIGKILLs workers at randomized store operations and asserts the
finished study is byte-identical to a serial unkilled run.
"""

from __future__ import annotations

import dataclasses
import os
import signal
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from repro.core.resilience import classify_failure
from repro.obs import runtime as obs_runtime
from repro.store import open_store
from repro.store.base import (
    TERMINAL_LEASE_STATUSES,
    Lease,
    LeaseError,
    StaleLeaseError,
    StudyStore,
)

if TYPE_CHECKING:
    from repro.experiments.runner import CellSpec


def default_owner() -> str:
    """``<host>-<pid>``: unique per worker process on one machine."""
    return f"{socket.gethostname()}-{os.getpid()}"


def _count(name: str, n: int = 1) -> None:
    obs_runtime.current().metrics.counter(name).inc(n)


@dataclass(frozen=True)
class QueuePolicy:
    """Lease timing and poisoned-cell bounds for one worker fleet.

    ``ttl_seconds`` is the heartbeat timeout: a lease not renewed for
    this long is considered dead and reclaimable.  The heartbeat
    interval defaults to a third of it (two missed beats of slack) and
    the idle poll to a quarter (so an expired lease is reclaimed within
    one heartbeat timeout).  ``max_claim_attempts`` bounds total
    acquisitions per cell before the next claimant quarantines it — the
    crash-loop breaker for cells that kill their workers.
    """

    ttl_seconds: float = 30.0
    heartbeat_seconds: float | None = None
    poll_seconds: float | None = None
    max_claim_attempts: int = 5

    def __post_init__(self) -> None:
        if self.ttl_seconds <= 0:
            raise ValueError("ttl_seconds must be > 0")
        if self.heartbeat_seconds is not None and not (
            0 < self.heartbeat_seconds < self.ttl_seconds
        ):
            raise ValueError("heartbeat_seconds must be in (0, ttl_seconds)")
        if self.poll_seconds is not None and self.poll_seconds <= 0:
            raise ValueError("poll_seconds must be > 0")
        if self.max_claim_attempts < 1:
            raise ValueError("max_claim_attempts must be >= 1")

    def heartbeat_interval(self) -> float:
        if self.heartbeat_seconds is not None:
            return self.heartbeat_seconds
        return max(0.02, self.ttl_seconds / 3.0)

    def poll_interval(self) -> float:
        if self.poll_seconds is not None:
            return self.poll_seconds
        return min(1.0, max(0.02, self.ttl_seconds / 4.0))

    def as_dict(self) -> dict[str, object]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "QueuePolicy":
        return cls(**dict(data))  # type: ignore[arg-type]


class CellQueue:
    """Claim/inspect one campaign's cells through the store's leases."""

    def __init__(
        self,
        store: StudyStore,
        study: str,
        labels: Sequence[str],
        policy: QueuePolicy | None = None,
    ) -> None:
        self.store = store
        self.study = study
        self.labels = list(labels)
        self.policy = policy or QueuePolicy()

    def claim_next(self, owner: str) -> Lease | None:
        """Acquire the first claimable cell (``None``: nothing free).

        Emits a ``lease.expired_reclaim`` event when the claim takes
        over a dead worker's expired lease.
        """
        tracer = obs_runtime.current().tracer
        now = time.time()
        for label in self.labels:
            lease = self.store.read_lease(self.study, label)
            expired_from = None
            if lease is not None:
                if lease.status in TERMINAL_LEASE_STATUSES:
                    continue
                if lease.status == "leased":
                    if not lease.expired(now):
                        continue
                    expired_from = lease
            claimed = self.store.acquire_lease(
                self.study, label, owner, self.policy.ttl_seconds
            )
            if claimed is None:
                continue  # lost the race; try the next cell
            if expired_from is not None:
                _count("lease.expired_reclaims")
                tracer.event(
                    "lease.expired_reclaim",
                    study=self.study,
                    cell=label,
                    dead_owner=expired_from.owner,
                    dead_token=expired_from.token,
                    token=claimed.token,
                    overdue_seconds=now - expired_from.deadline,
                )
            tracer.event(
                "lease.claim",
                study=self.study,
                cell=label,
                worker=owner,
                token=claimed.token,
                attempts=claimed.attempts,
            )
            return claimed
        return None

    def pending_labels(self) -> list[str]:
        """Cells not yet terminal (committed or quarantined)."""
        pending = []
        for label in self.labels:
            lease = self.store.read_lease(self.study, label)
            if lease is None or lease.status not in TERMINAL_LEASE_STATUSES:
                pending.append(label)
        return pending

    def rows(self) -> list[dict[str, object]]:
        """One status row per cell (the ``campaign status`` table)."""
        out = []
        now = time.time()
        for label in self.labels:
            lease = self.store.read_lease(self.study, label)
            if lease is None:
                status = "free"
                detail: dict[str, object] = {}
            else:
                status = lease.status
                if lease.status == "leased" and lease.expired(now):
                    status = "expired"
                detail = {
                    "owner": lease.owner,
                    "token": lease.token,
                    "attempts": lease.attempts,
                    "reason": lease.reason,
                }
            out.append(
                {
                    "cell": label,
                    "status": status,
                    "observations": self.store.observation_count(
                        self.study, label
                    ),
                    "results": self.store.has_results(self.study, label),
                    **detail,
                }
            )
        return out


class _Heartbeat(threading.Thread):
    """Renew one lease every heartbeat interval until stopped.

    Opens its *own* store handle inside the thread — SQLite connections
    are bound to their creating thread, so renewing through a handle
    the worker opened would raise on every beat and the lease would
    silently expire under a live worker.  A stale renewal stops the
    beat and flags the worker; transient store errors (including a
    failed open) are retried on the next beat — the deadline has two
    missed beats of slack by construction.
    """

    def __init__(
        self, store_spec: str, lease: Lease, policy: QueuePolicy
    ) -> None:
        super().__init__(
            name=f"lease-heartbeat-{lease.cell or 'root'}", daemon=True
        )
        self._store_spec = store_spec
        self._policy = policy
        # Not named _stop: threading.Thread owns a private _stop method
        # and shadowing it breaks join() on CPython.
        self._halt = threading.Event()
        self.lease = lease
        self.stale = False

    def run(self) -> None:
        interval = self._policy.heartbeat_interval()
        store: StudyStore | None = None
        try:
            while not self._halt.wait(interval):
                try:
                    if store is None:
                        store = open_store(self._store_spec)
                    self.lease = store.renew_lease(
                        self.lease, self._policy.ttl_seconds
                    )
                except StaleLeaseError:
                    self.stale = True
                    obs_runtime.current().tracer.event(
                        "lease.heartbeat_stale",
                        cell=self.lease.cell,
                        worker=self.lease.owner,
                        token=self.lease.token,
                    )
                    return
                except Exception:  # noqa: BLE001 - retried next beat
                    _count("lease.heartbeat_errors")
        finally:
            if store is not None:
                try:
                    store.close()
                except Exception:  # noqa: BLE001 - daemon-thread exit
                    pass

    def stop(self) -> None:
        self._halt.set()
        self.join(timeout=max(5.0, 2 * self._policy.heartbeat_interval()))


@dataclass
class WorkerReport:
    """What one :func:`run_worker` invocation did, cell by cell."""

    owner: str
    committed: list[str] = field(default_factory=list)
    repaired: list[str] = field(default_factory=list)
    released: list[tuple[str, str]] = field(default_factory=list)
    quarantined: list[tuple[str, str]] = field(default_factory=list)
    stale_drops: list[str] = field(default_factory=list)
    drained: bool = False

    @property
    def clean(self) -> bool:
        """True when no cell failed or was quarantined by this worker."""
        return not self.released and not self.quarantined


def run_worker(
    spec: "CampaignSpec",  # noqa: F821 - imported in the body
    owner: str | None = None,
    *,
    policy: QueuePolicy | None = None,
    stop: threading.Event | None = None,
    install_sigterm: bool = False,
    cells: Sequence[CellSpec] | None = None,
    cell_fn: Callable[[CellSpec, StudyStore], object] | None = None,
) -> WorkerReport:
    """One worker process's whole life: claim → heartbeat → commit.

    Loops until every cell of the campaign is terminal (committed or
    quarantined) or ``stop`` is set (SIGTERM drain when
    ``install_sigterm``: finish the current cell, commit it, exit
    cleanly).  ``cells`` and ``cell_fn`` override the campaign grid and
    :func:`~repro.experiments.runner.run_cell` — the unit-test hook for
    poisoned-cell scenarios.  Leases key on each spec's store ``cell``,
    so the fenced result write and the lease land on the same cell.

    The worker opens one store handle, runs every cell's checkpoint
    and result writes through it (``cell_fn(spec, store)``), and closes
    it on exit; only the heartbeat thread opens its own.
    """
    # Both circular at import: the campaign layer spawns these workers.
    from repro.experiments.runner import run_cell
    from repro.service.campaign import CampaignRunner, CampaignSpec

    assert isinstance(spec, CampaignSpec)
    if not spec.store:
        raise ValueError("a worker fleet needs a shared store")
    policy = policy or QueuePolicy(
        ttl_seconds=spec.lease_ttl_seconds,
        max_claim_attempts=spec.max_claim_attempts,
    )
    owner = owner or default_owner()
    stop = stop or threading.Event()
    if install_sigterm:
        signal.signal(signal.SIGTERM, lambda *_args: stop.set())
    if cells is None:
        cells = CampaignRunner(spec).cell_specs()
    run = cell_fn or run_cell
    by_cell = {c.cell: c for c in cells}
    study = spec.study
    with open_store(spec.store) as store:
        queue = CellQueue(store, study, list(by_cell), policy)
        report = WorkerReport(owner=owner)
        ctx = obs_runtime.current()
        ctx.tracer.event(
            "worker.start", worker=owner, study=study, n_cells=len(by_cell)
        )
        _count("worker.starts")

        while not stop.is_set():
            lease = queue.claim_next(owner)
            if lease is None:
                if not queue.pending_labels():
                    break  # campaign fully terminal
                # Everything left is leased to live workers; wait for
                # progress (or for an expired lease to become reclaimable).
                stop.wait(policy.poll_interval())
                continue
            label = lease.cell
            if lease.attempts > policy.max_claim_attempts:
                reason = (
                    f"poisoned cell: claim attempt {lease.attempts} exceeds "
                    f"the bound of {policy.max_claim_attempts}"
                )
                if lease.reason:
                    reason += f" (last failure: {lease.reason})"
                _quarantine(store, lease, reason, report)
                continue
            if store.has_results(study, label):
                # Torn commit: results landed, the lease never committed
                # (a worker died between the two phases).  Re-commit
                # without re-running — the results bytes are untouched.
                try:
                    store.commit_lease(lease)
                except StaleLeaseError:
                    continue
                report.repaired.append(label)
                _count("worker.commits_repaired")
                ctx.tracer.event(
                    "worker.cell_repair", worker=owner, cell=label,
                    token=lease.token,
                )
                continue
            heartbeat = _Heartbeat(spec.store, lease, policy)
            heartbeat.start()
            ctx.tracer.event(
                "worker.cell_start",
                worker=owner,
                cell=label,
                token=lease.token,
                attempts=lease.attempts,
            )
            try:
                run(
                    dataclasses.replace(
                        by_cell[label], lease=(owner, lease.token)
                    ),
                    store,
                )
            except (KeyboardInterrupt, SystemExit):
                heartbeat.stop()
                raise
            except StaleLeaseError:
                heartbeat.stop()
                report.stale_drops.append(label)
                _count("worker.stale_drops")
                continue
            except Exception as exc:  # noqa: BLE001 - classified below
                heartbeat.stop()
                reason = f"{type(exc).__name__}: {exc}"
                # Classify on the bare message: the transient markers are
                # failure-reason prefixes, not exception-type prefixes.
                if classify_failure(str(exc)) == "persistent":
                    # No retry can fix a deterministic failure: quarantine
                    # now instead of burning the remaining claim attempts.
                    _quarantine(store, heartbeat.lease, reason, report)
                else:
                    try:
                        store.release_lease(heartbeat.lease, reason=reason)
                    except LeaseError:
                        pass
                    report.released.append((label, reason))
                    _count("worker.cells_released")
                    ctx.tracer.event(
                        "worker.cell_release",
                        worker=owner,
                        cell=label,
                        error=reason,
                    )
                continue
            heartbeat.stop()
            if heartbeat.stale:
                # Reclaimed mid-run: the new owner's work is authoritative.
                report.stale_drops.append(label)
                _count("worker.stale_drops")
                continue
            try:
                store.commit_lease(heartbeat.lease)
            except StaleLeaseError:
                report.stale_drops.append(label)
                _count("worker.stale_drops")
                continue
            report.committed.append(label)
            _count("worker.cells_committed")
            ctx.tracer.event(
                "worker.cell_commit",
                worker=owner,
                cell=label,
                token=heartbeat.lease.token,
            )

        report.drained = stop.is_set()
        if report.drained:
            _count("worker.drains")
        ctx.tracer.event(
            "worker.exit",
            worker=owner,
            committed=len(report.committed),
            repaired=len(report.repaired),
            released=len(report.released),
            quarantined=len(report.quarantined),
            drained=report.drained,
        )
    return report


def _quarantine(
    store: StudyStore, lease: Lease, reason: str, report: WorkerReport
) -> None:
    try:
        store.quarantine_lease(lease, reason)
    except StaleLeaseError:
        return
    report.quarantined.append((lease.cell, reason))
    _count("worker.quarantines")
    obs_runtime.current().tracer.event(
        "worker.quarantine",
        worker=lease.owner,
        cell=lease.cell,
        token=lease.token,
        reason=reason,
    )
