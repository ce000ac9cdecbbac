"""Crash-safe tuning-run checkpoints.

The paper leaned on Spearmint's pause/resume because cluster-scale
campaigns die mid-run (§III-C); this module gives :class:`~repro.core.
loop.TuningLoop` the same property.  After every ``tell`` the loop
saves a :class:`TuningCheckpoint` — observation history plus, when the
optimizer supports ``state_dict``, a full optimizer snapshot — to its
:class:`CheckpointSlot`, in practice one address in a study store
(:meth:`repro.store.base.StudyStore.checkpoint_slot`), which replaces
the whole checkpoint in one durable transaction: after a ``kill -9``
the checkpoint is exactly the state as of some completed step
(docs/ROBUSTNESS.md).

Resume semantics: completed observations are replayed into the result
verbatim; the optimizer is restored from its snapshot when one exists
(exact resume — same RNG stream, same GP state), else every completed
observation is re-told into a fresh optimizer (replay resume — exact
for deterministic replay-tolerant strategies like grid ascent).
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Protocol, Sequence

from repro.core.history import Observation

#: Wall-clock fields of an observation record.  Excluded from
#: :func:`canonical_history` because no two executions of anything
#: measure identical durations; everything else — steps, configs,
#: values, failure diagnoses — must match bit-for-bit between an
#: uninterrupted run and a kill-and-resume one.
TIMING_FIELDS = ("suggest_seconds", "evaluate_seconds")


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` so readers see old or new, never torn.

    The temp file lives in the destination directory because
    ``os.replace`` is only atomic within one filesystem.  After the
    replace, the *directory* is fsynced too: the rename itself lives in
    directory metadata, and without flushing it a power cut can forget
    the replace even though the file data was synced.  Platforms where
    a directory cannot be opened for reading skip that step.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    _fsync_directory(path.parent)


def _fsync_directory(directory: Path) -> None:
    """Best-effort fsync of a directory's metadata (the rename)."""
    try:
        dir_fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(dir_fd)
    except OSError:
        pass
    finally:
        os.close(dir_fd)


@dataclass
class TuningCheckpoint:
    """One tuning run's recoverable state."""

    strategy: str = ""
    seed: int | None = None
    max_steps: int = 0
    observations: list[Observation] = field(default_factory=list)
    optimizer_state: dict[str, object] | None = None

    @property
    def completed(self) -> int:
        return len(self.observations)


class CheckpointSlot(Protocol):
    """Where one tuning run's checkpoint lives.

    The slot is the seam between :class:`~repro.core.loop.TuningLoop`
    and persistence: the loop saves and loads whole
    :class:`TuningCheckpoint` values and never learns where they land
    (:class:`repro.store.base.StoreCheckpointSlot` binds one study-store
    address).
    """

    def load(self) -> TuningCheckpoint | None:
        """The last saved checkpoint, or None when none exists."""
        ...  # pragma: no cover - protocol

    def save(self, checkpoint: TuningCheckpoint) -> None:
        """Atomically replace the stored checkpoint."""
        ...  # pragma: no cover - protocol

    def describe(self) -> str:
        """Human-readable location for events and error messages."""
        ...  # pragma: no cover - protocol


def canonical_history(
    observations: Iterable[Observation | Mapping[str, object]],
) -> bytes:
    """Byte-exact encoding of a history, wall-clock timings excluded.

    This is the comparison key of the resume acceptance criterion: a
    killed-and-resumed campaign must reproduce the uninterrupted run's
    observations *byte-identically* — same steps, configs, values, and
    failure diagnoses.  Timing fields are measurements of the host, not
    of the optimization, and are stripped.
    """
    canon: list[dict[str, object]] = []
    for obs in observations:
        data = obs.as_dict() if isinstance(obs, Observation) else dict(obs)
        data.pop("type", None)
        for fieldname in TIMING_FIELDS:
            data.pop(fieldname, None)
        canon.append(data)
    return json.dumps(canon, sort_keys=True, default=_json_default).encode()


def histories_match(
    a: Sequence[Observation | Mapping[str, object]],
    b: Sequence[Observation | Mapping[str, object]],
) -> bool:
    return canonical_history(a) == canonical_history(b)


def _json_default(obj: object) -> object:
    try:
        import numpy as np
    except ImportError:  # pragma: no cover - numpy is a hard dep here
        raise TypeError(f"not JSON serializable: {type(obj)!r}") from None
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")
