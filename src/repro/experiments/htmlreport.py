"""Self-contained HTML run reports from a JSONL observability trace.

``repro-experiments obs report RUN.jsonl -o report.html`` renders one
file a browser can open offline — no JavaScript, no external assets:
charts are inline SVG from :mod:`repro.experiments.svg`, styling is one
embedded stylesheet.  Sections degrade gracefully: a trace without
diagnostics still gets its phase-time breakdown, and vice versa.

Sections
--------
* **Run manifest** — identity attrs from the trace's first record.
* **Convergence & regret** — best-so-far / per-tell values and, when
  the analytic reference exists, incumbent regret (``diag.tell``
  series; docs/OBSERVABILITY.md §diagnostics).
* **Calibration** — one-step-ahead standardized residuals vs the ±1.96
  interval bounds, running 95% coverage, NLPD.
* **Phase-time breakdown** — the Figure 7-style where-time-goes table
  and bar chart (:func:`repro.obs.summarize_trace`).
* **Drift & fault timeline** — drift detections, evaluation failures,
  fault injections, retries, resumes, in trace order.
"""

from __future__ import annotations

import html
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from repro.obs.diagnostics import extract_diagnostics
from repro.obs.summary import summarize_trace, summary_rows
from repro.experiments.svg import (
    svg_bar_chart,
    svg_line_chart,
    svg_scatter_chart,
)

#: Z bound of the central 95% normal interval (plotted calibration band).
_Z95 = 1.959964

#: Event-name prefixes that belong on the drift/fault timeline.
TIMELINE_PREFIXES = (
    "drift.",
    "resilience.",
    "engine.fault_injected",
    "tuning.evaluation_failure",
    "tuning.resume",
    "continuous.",
)

_STYLE = """
body { font-family: sans-serif; margin: 2em auto; max-width: 960px;
       color: #222; }
h1 { border-bottom: 2px solid #4477aa; padding-bottom: 0.3em; }
h2 { margin-top: 2em; color: #4477aa; }
table { border-collapse: collapse; margin: 1em 0; font-size: 0.9em; }
th, td { border: 1px solid #ccc; padding: 0.3em 0.7em; text-align: left; }
th { background: #eef2f7; }
.note { color: #777; font-style: italic; }
svg { max-width: 100%; height: auto; }
"""


def _esc(text: object) -> str:
    return html.escape(str(text))


def _html_table(rows: Sequence[Mapping[str, object]]) -> str:
    if not rows:
        return '<p class="note">(no rows)</p>'
    columns = list(rows[0].keys())
    parts = ["<table>", "<tr>"]
    parts += [f"<th>{_esc(c)}</th>" for c in columns]
    parts.append("</tr>")
    for row in rows:
        parts.append("<tr>")
        parts += [f"<td>{_esc(row.get(c, ''))}</td>" for c in columns]
        parts.append("</tr>")
    parts.append("</table>")
    return "".join(parts)


def _note(text: str) -> str:
    return f'<p class="note">{_esc(text)}</p>'


def _manifest_section(events: Sequence[Mapping[str, object]]) -> str:
    for record in events:
        if record.get("type") == "manifest":
            attrs = record.get("attrs")
            if isinstance(attrs, Mapping) and attrs:
                rows = [{"key": k, "value": v} for k, v in attrs.items()]
                return _html_table(rows)
            break
    return _note("trace carries no manifest")


def _convergence_section(diags: Sequence[Mapping[str, object]]) -> str:
    telling = [d for d in diags if "value" in d]
    if not telling:
        return _note(
            "no diag.tell events in this trace — record it with an obs "
            "session active (e.g. --trace) to get convergence diagnostics"
        )
    xs = list(range(len(telling)))
    series: dict[str, tuple[list[float], list[float]]] = {
        "best so far": (xs, [float(d["best_value"]) for d in telling]),  # type: ignore[arg-type]
        "per-tell value": (xs, [float(d["value"]) for d in telling]),  # type: ignore[arg-type]
    }
    refs = [
        (i, float(d["reference_optimum"]))  # type: ignore[arg-type]
        for i, d in enumerate(telling)
        if "reference_optimum" in d
    ]
    if refs:
        series["noise-free reference optimum"] = (
            [x for x, _ in refs],
            [r for _, r in refs],
        )
    parts = [
        svg_line_chart(
            series,
            title="Convergence",
            x_label="tell",
            y_label="objective value",
        )
    ]
    regret = [
        (i, float(d["incumbent_regret"]))  # type: ignore[arg-type]
        for i, d in enumerate(telling)
        if "incumbent_regret" in d
    ]
    if regret:
        parts.append(
            svg_line_chart(
                {
                    "incumbent regret": (
                        [x for x, _ in regret],
                        [max(0.0, r) for _, r in regret],
                    )
                },
                title="Incumbent regret vs noise-free reference",
                x_label="tell",
                y_label="relative regret",
            )
        )
    acq = [
        (i, float(d["acquisition_value"]))  # type: ignore[arg-type]
        for i, d in enumerate(telling)
        if "acquisition_value" in d
    ]
    if acq:
        parts.append(
            svg_line_chart(
                {
                    "acquisition value": (
                        [x for x, _ in acq],
                        [max(0.0, a) for _, a in acq],
                    )
                },
                title="Acquisition-value decay",
                x_label="tell",
                y_label="acquisition value",
            )
        )
    return "\n".join(parts)


def _calibration_section(diags: Sequence[Mapping[str, object]]) -> str:
    scored = [d for d in diags if "residual_z" in d]
    if not scored:
        return _note(
            "no scored tells (surrogate predictions) in this trace — "
            "grid/random strategies and warm-up steps carry no "
            "calibration data"
        )
    xs = list(range(len(scored)))
    zs = [float(d["residual_z"]) for d in scored]  # type: ignore[arg-type]
    scatter = svg_scatter_chart(
        {"standardized residual": (xs, zs)},
        title="One-step-ahead calibration",
        x_label="scored tell",
        y_label="z = (y − μ) / σ",
        hlines=((_Z95, "+1.96"), (-_Z95, "−1.96"), (0.0, "")),
    )
    n = len(scored)
    covered = sum(1 for z in zs if abs(z) <= _Z95)
    nlpds = [float(d["nlpd"]) for d in scored if "nlpd" in d]  # type: ignore[arg-type]
    stats_rows = [
        {
            "scored tells": n,
            "95% coverage": f"{covered / n:.1%} (target 95%)",
            "mean |z|": f"{sum(abs(z) for z in zs) / n:.2f}",
            "mean NLPD": (
                f"{sum(nlpds) / len(nlpds):.3f}" if nlpds else "n/a"
            ),
        }
    ]
    return scatter + "\n" + _html_table(stats_rows)


def _phase_section(events: Sequence[Mapping[str, object]]) -> str:
    summary = summarize_trace(events)
    rows = summary_rows(summary)
    if not rows:
        return _note("no span records in this trace")
    chart_rows = [r for r in rows if float(r["total_s"]) > 0.0]  # type: ignore[arg-type]
    parts = []
    if chart_rows:
        parts.append(
            svg_bar_chart(
                chart_rows,
                value_key="total_s",
                label_keys=["span"],
                title="Where time goes (total seconds per span)",
                y_label="seconds",
            )
        )
    parts.append(_html_table(rows))
    parts.append(
        _note(
            f"{summary.n_runs} run(s), {summary.n_steps} step(s); "
            f"suggest/evaluate/tell cover {summary.coverage:.1%} of "
            f"run wall-clock"
        )
    )
    return "\n".join(parts)


def _timeline_section(events: Sequence[Mapping[str, object]]) -> str:
    rows: list[dict[str, object]] = []
    for record in events:
        if record.get("type") != "event":
            continue
        name = str(record.get("name", ""))
        if not name.startswith(TIMELINE_PREFIXES):
            continue
        attrs = record.get("attrs")
        detail = ""
        if isinstance(attrs, Mapping) and attrs:
            detail = ", ".join(f"{k}={v}" for k, v in attrs.items())
        rows.append(
            {
                "t (s)": f"{float(record.get('t', 0.0)):.3f}",  # type: ignore[arg-type]
                "event": name,
                "detail": detail,
            }
        )
    if not rows:
        return _note("no drift, fault, or resilience events in this trace")
    shown = rows[:200]
    out = _html_table(shown)
    if len(rows) > len(shown):
        out += _note(f"... and {len(rows) - len(shown)} more events")
    return out


def render_report(
    events: Iterable[Mapping[str, object]], *, title: str = "Tuning run report"
) -> str:
    """Render a trace's event stream as one self-contained HTML page."""
    events = list(events)
    diags = extract_diagnostics(events)
    sections = (
        ("Run manifest", _manifest_section(events)),
        ("Convergence & regret", _convergence_section(diags)),
        ("Calibration", _calibration_section(diags)),
        ("Phase-time breakdown", _phase_section(events)),
        ("Drift & fault timeline", _timeline_section(events)),
    )
    parts = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8">',
        f"<title>{_esc(title)}</title>",
        f"<style>{_STYLE}</style>",
        "</head><body>",
        f"<h1>{_esc(title)}</h1>",
    ]
    for heading, body in sections:
        parts.append(f"<h2>{_esc(heading)}</h2>")
        parts.append(body)
    parts.append("</body></html>")
    return "\n".join(parts)


def write_report(
    events: Iterable[Mapping[str, object]],
    path: str | Path,
    *,
    title: str = "Tuning run report",
) -> Path:
    """Render and write the report; returns the path written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(render_report(events, title=title), encoding="utf-8")
    return path
