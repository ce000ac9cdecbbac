"""In-memory spans around calls into the program's public functions.

The benchmark measures the program from outside: it replaces class
attributes and module functions with thin wrappers that record a span
(name, start, end, parent) per call and optionally run a hook on the
call's arguments and result.  Nothing inside ``src/`` is modified, and
:meth:`Recorder.restore` puts every original back.

Spans live in flat ``array`` buffers (a few bytes per call; the hottest
layer is called ~10^5 times per campaign) and are written out with
:meth:`Recorder.save` when the run ends.  A span's *self* time is its
duration minus the durations of its direct children; the benchmark is
single-threaded, so spans nest properly.
"""

from __future__ import annotations

import functools
from array import array
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Mapping

import numpy as np

Hook = Callable[[tuple, Mapping[str, Any], Any], None]


class Recorder:
    """Wraps functions in place and records spans and counters.

    With ``spans=False`` only the hooks run; functions without a hook
    are left unwrapped, so an untraced run pays for nothing but the
    hooks it asked for.
    """

    def __init__(self, *, spans: bool) -> None:
        self.spans = spans
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = [-1]
        self.counters: dict[str, float] = {}
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def instrument(
        self,
        fn: Callable[..., Any],
        name: str | Callable[[tuple, Mapping[str, Any]], str],
        after: Hook | None = None,
    ) -> Callable[..., Any]:
        """``fn`` wrapped in a span (and ``after`` hook), signature kept.

        ``name`` may be a callable choosing the span name from the
        call's arguments (e.g. a GP fit with or without hyperparameter
        optimization).
        """
        if not self.spans:
            if after is None:
                return fn

            @functools.wraps(fn)
            def hooked(*args: Any, **kwargs: Any) -> Any:
                result = fn(*args, **kwargs)
                after(args, kwargs, result)
                return result

            return hooked

        fixed = None if callable(name) else self._intern(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack

        @functools.wraps(fn)
        def spanned(*args: Any, **kwargs: Any) -> Any:
            i = len(start)
            name_id.append(
                fixed if fixed is not None else self._intern(name(args, kwargs))
            )
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return spanned

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str | Callable[[tuple, Mapping[str, Any]], str],
        after: Hook | None = None,
    ) -> None:
        """Replace ``owner.attr`` (defined on ``owner`` itself) in place.

        Raises ``KeyError`` when ``owner`` does not define ``attr``, so a
        renamed public function fails the benchmark instead of silently
        reporting zero.
        """
        self.replace(owner, attr, lambda fn: self.instrument(fn, name, after))

    def replace(
        self,
        owner: object,
        attr: str,
        make: Callable[[Callable[..., Any]], Callable[..., Any]],
    ) -> None:
        """Set ``owner.attr`` to ``make(original)`` until :meth:`restore`."""
        original = vars(owner)[attr]
        replacement = make(original)
        if replacement is not original:
            setattr(owner, attr, replacement)
            self._patched.append((owner, attr, original))

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def open_root(self, name: str) -> int:
        """Start a span not tied to a call (the measured campaign)."""
        i = len(self.start)
        self.name_id.append(self._intern(name))
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self.start.append(perf_counter())
        self._stack.append(i)
        return i

    def close_root(self, i: int) -> None:
        self.end[i] = perf_counter()
        popped = self._stack.pop()
        if popped != i:
            raise RuntimeError("root span closed out of order")

    def table(self) -> "SpanTable":
        return SpanTable(
            self.names,
            np.frombuffer(self.name_id, dtype=np.uint16).astype(np.int64),
            np.frombuffer(self.parent, dtype=np.int64).copy(),
            np.frombuffer(self.start, dtype=np.float64).copy(),
            np.frombuffer(self.end, dtype=np.float64).copy(),
        )

    def save(self, path: Path) -> None:
        """Write every span (compressed arrays + the name table)."""
        table = self.table()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(table.names),
            name_id=table.name_id,
            parent=table.parent,
            start=table.start,
            end=table.end,
        )


class SpanTable:
    """Column view of recorded spans with per-name aggregates."""

    def __init__(
        self,
        names: list[str],
        name_id: np.ndarray,
        parent: np.ndarray,
        start: np.ndarray,
        end: np.ndarray,
    ) -> None:
        self.names = list(names)
        self.name_id = name_id
        self.parent = parent
        self.start = start
        self.end = end
        self.duration = end - start
        child = np.zeros_like(self.duration)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], self.duration[has_parent])
        self.self_time = self.duration - child
        # Outermost calls only: a span whose direct parent has the same
        # name (tell_failure -> tell, recursion) is already inside it.
        nested = np.zeros(len(parent), dtype=bool)
        nested[has_parent] = name_id[parent[has_parent]] == name_id[has_parent]
        self._outer = ~nested

    def _mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self.name_id), dtype=bool)
        return self.name_id == self.names.index(name)

    def count(self, name: str) -> int:
        return int(self._mask(name).sum())

    def total(self, name: str) -> float:
        """Inclusive seconds over the outermost calls of ``name``."""
        return float(self.duration[self._mask(name) & self._outer].sum())

    def self_seconds(self, name: str) -> float:
        return float(self.self_time[self._mask(name)].sum())

    def durations(self, name: str) -> np.ndarray:
        return self.duration[self._mask(name)]
