"""Directory-of-JSONL study store (the pre-store layout, formalized).

One directory holds every document, in the file layout the experiment
runner and continuous-tuning loop used before the store layer existed,
so a store directory is readable by eye:

* ``<stem>.<run>.jsonl``   — run checkpoints (``pass0``, ``epoch-0003``)
  in the :mod:`repro.core.checkpoint` record format, atomic-rewritten
  after every tell;
* ``<stem>.done.json``     — a finished cell's results list;
* ``<stem>.<name>.json``   — named state documents (the continuous
  loop's sidecar: cell ``""`` + name ``continuous`` → the literal
  ``continuous.json``);
* ``<stem>.lease-<token>.json`` — cell work leases, one file per
  fencing token, claimed via exclusive create (docs/ROBUSTNESS.md);
  transient coordination state, excluded from enumeration/migration.

``<stem>`` is :func:`repro.store.base.cell_stem`: the sanitized label
plus a short blake2b digest of the raw label, so ``a/b`` and ``a.b``
(identical after sanitizing) can no longer overwrite each other.  An
``store-index.json`` sidecar remembers which stem belongs to which
(study, raw label) so enumeration and migration recover the original
addresses; directories without one still enumerate, with stems
standing in for labels.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
from pathlib import Path
from typing import Iterator

from repro.core.checkpoint import (
    TuningCheckpoint,
    _fsync_directory,
    atomic_write_text,
    load_checkpoint,
    save_checkpoint,
)
from repro.core.history import TuningResult
from repro.store.base import (
    Lease,
    SchemaVersionError,
    StaleLeaseError,
    StudyStore,
    cell_stem,
)

INDEX_VERSION = 1
INDEX_NAME = "store-index.json"

#: Reserved file names that are never store documents.
_RESERVED = frozenset({INDEX_NAME})

#: Lease token files: ``<stem>.lease-<token>.json`` (root cell: bare
#: ``lease-<token>.json``).  Excluded from document enumeration — they
#: are transient coordination state, not study data (and `store
#: migrate` deliberately does not copy them).
_LEASE_FILE_RE = re.compile(r"(?:^|\.)lease-(\d{6,})\.json$")


class JsonlStudyStore(StudyStore):
    """Study store over a directory of atomic-write JSONL/JSON files."""

    kind = "jsonl"

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        #: (study, cell) addresses this instance already indexed — the
        #: index is rewritten once per new cell, not once per tell.
        self._registered: set[tuple[str, str]] = set()

    def describe(self) -> str:
        return str(self.root)

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    @staticmethod
    def _join(stem: str, suffix: str) -> str:
        return f"{stem}.{suffix}" if stem else suffix

    def _checkpoint_path(self, cell: str, run: str) -> Path:
        return self.root / self._join(cell_stem(cell), f"{run}.jsonl")

    def _results_path(self, cell: str) -> Path:
        return self.root / self._join(cell_stem(cell), "done.json")

    def _state_path(self, cell: str, name: str) -> Path:
        return self.root / self._join(cell_stem(cell), f"{name}.json")

    # ------------------------------------------------------------------
    # Index (stem -> study/raw-label, for enumeration and migration)
    # ------------------------------------------------------------------
    def _load_index(self) -> dict[str, dict[str, str]]:
        path = self.root / INDEX_NAME
        if not path.is_file():
            return {}
        try:
            data = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return {}
        version = data.get("version")
        if version != INDEX_VERSION:
            raise SchemaVersionError(
                f"store index {path} has version {version!r} but this "
                f"build reads version {INDEX_VERSION}"
            )
        cells = data.get("cells", {})
        return {str(k): dict(v) for k, v in cells.items()}

    def _register(self, study: str, cell: str) -> None:
        if (study, cell) in self._registered:
            return
        # Merge-on-write: concurrent cell processes each re-read the
        # index before rewriting, so parallel studies interleave their
        # registrations instead of clobbering each other wholesale.
        index = self._load_index()
        entry = {"study": study, "label": cell}
        if index.get(cell_stem(cell)) != entry:
            index[cell_stem(cell)] = entry
            atomic_write_text(
                self.root / INDEX_NAME,
                json.dumps(
                    {"version": INDEX_VERSION, "cells": index}, sort_keys=True
                ),
            )
        self._registered.add((study, cell))

    # ------------------------------------------------------------------
    # Backend hooks
    # ------------------------------------------------------------------
    def _save_checkpoint(
        self, study: str, cell: str, run: str, checkpoint: TuningCheckpoint
    ) -> None:
        self._register(study, cell)
        save_checkpoint(self._checkpoint_path(cell, run), checkpoint)

    def _load_checkpoint(
        self, study: str, cell: str, run: str
    ) -> TuningCheckpoint | None:
        return load_checkpoint(self._checkpoint_path(cell, run))

    def _save_results(
        self, study: str, cell: str, results: list[TuningResult]
    ) -> None:
        self._register(study, cell)
        atomic_write_text(
            self._results_path(cell),
            json.dumps([r.as_dict() for r in results], default=str),
        )

    def _load_results(
        self, study: str, cell: str
    ) -> list[TuningResult] | None:
        path = self._results_path(cell)
        if not path.is_file():
            return None
        try:
            payload = json.loads(path.read_text())
            return [TuningResult.from_dict(entry) for entry in payload]
        except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError):
            return None

    def _save_state(
        self, study: str, cell: str, name: str, state: dict[str, object]
    ) -> None:
        self._register(study, cell)
        atomic_write_text(
            self._state_path(cell, name), json.dumps(state, sort_keys=True)
        )

    def _load_state(
        self, study: str, cell: str, name: str
    ) -> dict[str, object] | None:
        path = self._state_path(cell, name)
        if not path.is_file():
            return None
        try:
            data = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return None
        return dict(data) if isinstance(data, dict) else None

    # ------------------------------------------------------------------
    # Leases
    # ------------------------------------------------------------------
    # One file per fencing token, claimed with O_CREAT|O_EXCL (the
    # atomic only-one-racer-wins primitive POSIX gives a directory);
    # the *highest* token file is the current lease, renew/commit
    # atomic-rewrite the owner's own token file, and a torn claim (file
    # created, JSON never landed) just burns its token — the next
    # claimant writes token+1 and the unreadable file is ignored.

    def _lease_path(self, cell: str, token: int) -> Path:
        return self.root / self._join(cell_stem(cell), f"lease-{token:06d}.json")

    def _lease_files(self, cell: str) -> list[tuple[int, Path]]:
        stem = cell_stem(cell)
        if not self.root.is_dir():
            return []
        found = []
        for path in self.root.glob(self._join(stem, "lease-*.json")):
            match = _LEASE_FILE_RE.search(path.name)
            if match and path.name == self._join(stem, f"lease-{match.group(1)}.json"):
                found.append((int(match.group(1)), path))
        return sorted(found)

    def _lease_doc(self, study: str, cell: str, path: Path) -> Lease | None:
        try:
            data = json.loads(path.read_text())
            lease = Lease.from_dict(data)
        except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError):
            return None
        return dataclasses.replace(lease, study=study, cell=cell)

    def _read_lease(self, study: str, cell: str) -> Lease | None:
        # Highest *readable* token wins; unreadable (torn) claims above
        # it are burned tokens, not leases.
        for _, path in reversed(self._lease_files(cell)):
            lease = self._lease_doc(study, cell, path)
            if lease is not None:
                return lease
        return None

    def _acquire_lease(
        self, study: str, cell: str, owner: str, ttl: float, now: float
    ) -> Lease | None:
        files = self._lease_files(cell)
        top_token = files[-1][0] if files else 0
        current = self._read_lease(study, cell)
        if current is not None:
            if current.status in ("committed", "quarantined"):
                return None
            if current.status == "leased" and current.deadline > now:
                return None
        lease = Lease(
            study=study,
            cell=cell,
            owner=owner,
            token=top_token + 1,
            deadline=now + ttl,
            attempts=(current.attempts if current else 0) + 1,
            status="leased",
            reason=current.reason if current else "",
        )
        path = self._lease_path(cell, lease.token)
        self.root.mkdir(parents=True, exist_ok=True)
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
        except FileExistsError:
            return None  # lost the claim race to a concurrent worker
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(json.dumps(lease.as_dict(), sort_keys=True))
                handle.flush()
                os.fsync(handle.fileno())
        except OSError:
            return None
        _fsync_directory(self.root)
        self._register(study, cell)
        return lease

    def _update_lease(
        self, lease: Lease, *, status: str, deadline: float, reason: str
    ) -> Lease:
        def stale(detail: str) -> StaleLeaseError:
            return StaleLeaseError(
                f"lease on {lease.study}/{lease.cell or '(root)'} "
                f"({lease.owner!r} token {lease.token}) is stale: {detail}"
            )

        files = self._lease_files(lease.cell)
        if files and files[-1][0] > lease.token:
            raise stale(f"token {files[-1][0]} supersedes it")
        own_path = self._lease_path(lease.cell, lease.token)
        current = self._lease_doc(lease.study, lease.cell, own_path)
        if current is None:
            raise stale("its token file is missing or unreadable")
        if current.owner != lease.owner or current.status != "leased":
            raise stale(
                f"current record is {current.owner!r} {current.status}"
            )
        updated = dataclasses.replace(
            lease, status=status, deadline=deadline, reason=reason
        )
        atomic_write_text(
            own_path, json.dumps(updated.as_dict(), sort_keys=True)
        )
        # Close the check-then-write window: if a reclaimer bumped the
        # token while we were writing, our record is shadowed (highest
        # readable token wins) — report stale so the caller drops the
        # work instead of believing the no-op update.
        files = self._lease_files(lease.cell)
        if files and files[-1][0] > lease.token:
            raise stale(f"token {files[-1][0]} claimed during the update")
        return updated

    def _leases(self, study: str) -> list[Lease]:
        index = self._load_index()
        found = []
        for entry in index.values():
            if str(entry.get("study", "default")) != study:
                continue
            label = str(entry.get("label", ""))
            lease = self._read_lease(study, label)
            if lease is not None:
                found.append(lease)
        return found

    # ------------------------------------------------------------------
    # Enumeration
    # ------------------------------------------------------------------
    def _scan(self) -> Iterator[tuple[str, str, str, str]]:
        """Yield ``(stem, doc_kind, doc_name, file_name)`` for every
        store document in the directory.

        ``doc_kind`` is ``checkpoint`` / ``results`` / ``state``.  Stems
        come from the index when possible (longest match wins, so a
        stem containing dots cannot shadow a shorter one); unindexed
        files fall back to the empty stem (whole name = document name),
        which is exactly how the continuous-tuning layout reads.
        """
        if not self.root.is_dir():
            return
        stems = sorted(
            (s for s in self._load_index() if s), key=len, reverse=True
        )

        def split(name: str) -> tuple[str, str]:
            for stem in stems:
                if name.startswith(stem + "."):
                    return stem, name[len(stem) + 1 :]
            return "", name

        for path in sorted(self.root.iterdir()):
            name = path.name
            if not path.is_file() or name in _RESERVED or name.endswith(".tmp"):
                continue
            if _LEASE_FILE_RE.search(name):
                continue  # coordination state, not a study document
            if name.endswith(".jsonl"):
                stem, rest = split(name[: -len(".jsonl")] + ".")
                yield stem, "checkpoint", rest.rstrip("."), name
            elif name.endswith(".done.json"):
                yield name[: -len(".done.json")], "results", "done", name
            elif name.endswith(".json"):
                stem, rest = split(name[: -len(".json")] + ".")
                yield stem, "state", rest.rstrip("."), name

    @staticmethod
    def _address(
        stem: str, index: dict[str, dict[str, str]]
    ) -> tuple[str, str]:
        """(study, raw cell label) for a stem; legacy fallbacks."""
        entry = index.get(stem)
        if entry is not None:
            return str(entry.get("study", "default")), str(
                entry.get("label", stem)
            )
        return "default", stem

    def studies(self) -> list[str]:
        index = self._load_index()
        found = {self._address(stem, index)[0] for stem, *_ in self._scan()}
        return sorted(found)

    def cells(self, study: str) -> list[str]:
        index = self._load_index()
        found = set()
        for stem, *_ in self._scan():
            cell_study, label = self._address(stem, index)
            if cell_study == study:
                found.add(label)
        return sorted(found)

    def _documents_of(self, study: str, cell: str, doc_kind: str) -> list[str]:
        index = self._load_index()
        found = set()
        for stem, kind, doc_name, _ in self._scan():
            if kind != doc_kind:
                continue
            cell_study, label = self._address(stem, index)
            if cell_study == study and label == cell:
                found.add(doc_name)
        return sorted(found)

    def runs(self, study: str, cell: str) -> list[str]:
        return self._documents_of(study, cell, "checkpoint")

    def state_names(self, study: str, cell: str) -> list[str]:
        return self._documents_of(study, cell, "state")

    def has_results(self, study: str, cell: str) -> bool:
        return self._results_path(cell).is_file()

    # ------------------------------------------------------------------
    def schema_version(self) -> int:
        path = self.root / INDEX_NAME
        if not path.is_file():
            return INDEX_VERSION
        try:
            data = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return INDEX_VERSION
        return int(data.get("version", INDEX_VERSION))

    def vacuum(self) -> None:
        """Remove orphaned temp files left by crashed atomic writes and
        lease token files superseded by a newer claim."""
        if not self.root.is_dir():
            return
        for path in self.root.glob("*.tmp"):
            try:
                path.unlink()
            except OSError:
                pass
        by_stem: dict[str, list[tuple[int, Path]]] = {}
        for path in self.root.glob("*lease-*.json"):
            match = _LEASE_FILE_RE.search(path.name)
            if match is None:
                continue
            stem = path.name[: -len(f"lease-{match.group(1)}.json")].rstrip(".")
            by_stem.setdefault(stem, []).append((int(match.group(1)), path))
        for files in by_stem.values():
            ordered = sorted(files)
            # Keep everything from the highest *readable* lease up: the
            # top token file alone may be a torn, unreadable claim, and
            # deleting the readable record below it would erase the
            # cell's attempts counter and last-failure reason (the
            # poisoned-cell quarantine bound).  Files above the
            # readable lease are burned tokens _read_lease skips, but
            # the top one must survive so token monotonicity holds.
            keep_from = len(ordered) - 1
            for i in range(len(ordered) - 1, -1, -1):
                if self._readable_lease(ordered[i][1]):
                    keep_from = i
                    break
            for _, path in ordered[:keep_from]:
                try:
                    path.unlink()
                except OSError:
                    pass

    @staticmethod
    def _readable_lease(path: Path) -> bool:
        try:
            Lease.from_dict(json.loads(path.read_text()))
        except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError):
            return False
        return True
