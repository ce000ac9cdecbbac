"""Aggregate a run trace into a where-time-goes breakdown.

Consumes the JSONL event stream a session writes (see
docs/OBSERVABILITY.md) and answers the paper's Figure 7-style question:
of the wall-clock a tuning run spent, how much went to suggesting
configurations, measuring them, and updating the model — and inside the
model, to full ML-II refits vs rank-1 updates.

:func:`aggregate_spans` is the generic groupby; :func:`summarize_trace`
layers the tuning-loop phase accounting on top.  Both return plain
dicts/rows so :mod:`repro.experiments.figures` can wrap them in a
:class:`~repro.experiments.figures.FigureData` without this module
importing the experiments layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.obs.metrics import Histogram

#: Span names that make up the tuning loop's per-step phase accounting.
PHASE_SPANS = (
    "tuning.suggest",
    "tuning.evaluate",
    "tuning.diagnose",
    "tuning.tell",
)

#: The root span one TuningLoop.run() wraps everything in.
ROOT_SPAN = "tuning.run"

#: The loop's one event per failed observation.  The engine and
#: objective failure events beneath it are per-layer detail, and a
#: memo-cache hit replays a failed run without re-emitting them.
FAILURE_EVENT = "tuning.evaluation_failure"


@dataclass
class SpanStats:
    """Aggregated timings for one span name.

    Durations stream into a log-bucketed
    :class:`~repro.obs.metrics.Histogram` rather than a kept-forever
    list, so aggregating a multi-hour trace stays O(buckets) per span
    and quantiles carry the histogram's bounded ~2.5% relative error.
    Min/max/mean remain exact.
    """

    name: str
    count: int = 0
    total_s: float = 0.0
    min_s: float = math.inf
    max_s: float = 0.0
    errors: int = 0
    histogram: Histogram = field(default_factory=Histogram)

    def add(self, duration_s: float, *, error: bool = False) -> None:
        self.count += 1
        self.total_s += duration_s
        self.min_s = min(self.min_s, duration_s)
        self.max_s = max(self.max_s, duration_s)
        self.histogram.record(duration_s)
        if error:
            self.errors += 1

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        if not self.count:
            return 0.0
        return self.histogram.quantile(q)


def aggregate_spans(
    events: Iterable[Mapping[str, object]],
) -> dict[str, SpanStats]:
    """Group finished-span records by name."""
    stats: dict[str, SpanStats] = {}
    for record in events:
        if record.get("type") != "span":
            continue
        name = str(record.get("name", ""))
        entry = stats.get(name)
        if entry is None:
            entry = stats[name] = SpanStats(name)
        entry.add(
            float(record.get("duration_s", 0.0)),  # type: ignore[arg-type]
            error=record.get("status") == "error",
        )
    return stats


@dataclass
class TraceSummary:
    """The aggregate a trace file reduces to."""

    spans: dict[str, SpanStats]
    wall_seconds: float  # total time inside tuning.run root spans
    phase_seconds: dict[str, float]  # per PHASE_SPANS name
    n_runs: int
    n_steps: int
    failures: int  # failed observations (FAILURE_EVENT count)
    counters: dict[str, int]

    @property
    def phase_total_seconds(self) -> float:
        return sum(self.phase_seconds.values())

    @property
    def coverage(self) -> float:
        """Fraction of root wall-clock the three phases account for."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.phase_total_seconds / self.wall_seconds


def summarize_trace(events: Iterable[Mapping[str, object]]) -> TraceSummary:
    """Reduce an event stream to the where-time-goes summary."""
    events = list(events)
    spans = aggregate_spans(events)
    root = spans.get(ROOT_SPAN)
    wall = root.total_s if root else 0.0
    if wall <= 0.0:
        # Headless traces (no tuning.run root, e.g. hand-rolled spans):
        # fall back to the stream's observable extent.
        stamps = [
            (float(e.get("t_start", 0.0)), float(e.get("duration_s", 0.0)))  # type: ignore[arg-type]
            for e in events
            if e.get("type") == "span"
        ]
        if stamps:
            wall = max(t + d for t, d in stamps) - min(t for t, _ in stamps)
    phase_seconds = {
        name: spans[name].total_s if name in spans else 0.0
        for name in PHASE_SPANS
    }
    failures = 0
    counters: dict[str, int] = {}
    for record in events:
        if record.get("type") == "event" and record.get("name") == FAILURE_EVENT:
            failures += 1
        if record.get("type") == "metrics":
            snap = record.get("snapshot")
            if isinstance(snap, Mapping):
                for key, value in dict(snap.get("counters", {})).items():  # type: ignore[union-attr]
                    counters[key] = counters.get(key, 0) + int(value)
    step_stats = spans.get("tuning.step")
    # Prefer the per-completion step spans; fall back to the loop's
    # tuning.steps counter for traces that carry only metrics snapshots.
    n_steps = step_stats.count if step_stats else counters.get("tuning.steps", 0)
    return TraceSummary(
        spans=spans,
        wall_seconds=wall,
        phase_seconds=phase_seconds,
        n_runs=root.count if root else 0,
        n_steps=n_steps,
        failures=failures,
        counters=counters,
    )


def summary_rows(summary: TraceSummary) -> list[dict[str, object]]:
    """Flat table rows (one per span name, phases first) for rendering."""
    ordered = [n for n in (ROOT_SPAN, *PHASE_SPANS) if n in summary.spans]
    ordered += sorted(n for n in summary.spans if n not in ordered)
    rows: list[dict[str, object]] = []
    for name in ordered:
        s = summary.spans[name]
        share = s.total_s / summary.wall_seconds if summary.wall_seconds else 0.0
        rows.append(
            {
                "span": name,
                "count": s.count,
                "total_s": round(s.total_s, 4),
                "mean_s": round(s.mean_s, 5),
                "p50_s": round(s.quantile(0.50), 5),
                "p95_s": round(s.quantile(0.95), 5),
                "max_s": round(s.max_s, 5),
                "share_of_wall": f"{share:.1%}",
                "errors": s.errors,
            }
        )
    return rows


def format_event_line(record: Mapping[str, object]) -> str:
    """One human-readable line per trace record (the ``obs tail`` view)."""
    kind = str(record.get("type", "?"))
    attrs = record.get("attrs")
    attrs_text = ""
    if isinstance(attrs, Mapping) and attrs:
        parts = ", ".join(f"{k}={v}" for k, v in attrs.items())
        attrs_text = f"  [{parts}]"
    if kind == "span":
        depth = int(record.get("depth", 0))  # type: ignore[arg-type]
        return (
            f"{float(record.get('t_start', 0.0)):9.3f}s "  # type: ignore[arg-type]
            f"{'  ' * depth}{record.get('name')} "
            f"({float(record.get('duration_s', 0.0)) * 1e3:.2f} ms)"  # type: ignore[arg-type]
            f"{attrs_text}"
        )
    if kind == "event":
        return (
            f"{float(record.get('t', 0.0)):9.3f}s "  # type: ignore[arg-type]
            f"* {record.get('name')}{attrs_text}"
        )
    if kind == "manifest":
        return f"    0.000s = manifest{attrs_text}"
    if kind == "metrics":
        snap = record.get("snapshot")
        n = len(dict(snap.get("histograms", {}))) if isinstance(snap, Mapping) else 0  # type: ignore[union-attr]
        return f"          = metrics snapshot ({n} histograms)"
    return f"          ? {kind}"
