"""Persist and reload study results.

Paper-scale studies take real time; exports make their results
re-renderable (and diffable across calibration changes) without
re-running.  The JSON layout is stable and versioned.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Mapping

from repro.core.history import TuningResult
from repro.experiments.presets import Budget
from repro.experiments.runner import SundogStudy, SyntheticStudy
from repro.topology_gen.suite import TopologyCondition

FORMAT_VERSION = 1


def synthetic_study_to_dict(study: SyntheticStudy) -> dict[str, object]:
    cells = []
    for (condition, size, strategy), results in study.results.items():
        cells.append(
            {
                "time_imbalance": condition.time_imbalance,
                "contentious_share": condition.contentious_share,
                "size": size,
                "strategy": strategy,
                "passes": [r.as_dict() for r in results],
            }
        )
    return {
        "format_version": FORMAT_VERSION,
        "kind": "synthetic",
        "budget": study.budget.as_dict(),
        "seed": study.seed,
        "fidelity": study.fidelity,
        "cells": cells,
    }


def synthetic_study_from_dict(data: Mapping[str, object]) -> SyntheticStudy:
    if data.get("kind") != "synthetic":
        raise ValueError(f"not a synthetic study export: kind={data.get('kind')!r}")
    cells = list(data["cells"])  # type: ignore[arg-type]
    conditions: list[TopologyCondition] = []
    sizes: list[str] = []
    strategies: list[str] = []
    results = {}
    for cell in cells:
        condition = TopologyCondition(
            time_imbalance=float(cell["time_imbalance"]),
            contentious_share=float(cell["contentious_share"]),
        )
        size = str(cell["size"])
        strategy = str(cell["strategy"])
        if condition not in conditions:
            conditions.append(condition)
        if size not in sizes:
            sizes.append(size)
        if strategy not in strategies:
            strategies.append(strategy)
        results[(condition, size, strategy)] = [
            TuningResult.from_dict(r) for r in cell["passes"]
        ]
    study = SyntheticStudy(
        Budget.from_dict(data["budget"]),  # type: ignore[arg-type]
        conditions=conditions,
        sizes=sizes,
        strategies=strategies,
        seed=int(data.get("seed", 0)),  # type: ignore[arg-type]
        fidelity=str(data.get("fidelity", "analytic")),
    )
    study.results = results
    return study


def sundog_study_to_dict(study: SundogStudy) -> dict[str, object]:
    arms = []
    for (strategy, param_set), results in study.results.items():
        arms.append(
            {
                "strategy": strategy,
                "param_set": param_set,
                "passes": [r.as_dict() for r in results],
            }
        )
    return {
        "format_version": FORMAT_VERSION,
        "kind": "sundog",
        "budget": study.budget.as_dict(),
        "seed": study.seed,
        "fidelity": study.fidelity,
        "arms": arms,
    }


def sundog_study_from_dict(data: Mapping[str, object]) -> SundogStudy:
    if data.get("kind") != "sundog":
        raise ValueError(f"not a sundog study export: kind={data.get('kind')!r}")
    arm_specs = []
    results = {}
    for arm in data["arms"]:  # type: ignore[union-attr]
        key = (str(arm["strategy"]), str(arm["param_set"]))
        arm_specs.append(key)
        results[key] = [TuningResult.from_dict(r) for r in arm["passes"]]
    study = SundogStudy(
        Budget.from_dict(data["budget"]),  # type: ignore[arg-type]
        arms=arm_specs,
        seed=int(data.get("seed", 0)),  # type: ignore[arg-type]
        fidelity=str(data.get("fidelity", "analytic")),
    )
    study.results = results
    return study


def save_study(study: SyntheticStudy | SundogStudy, path: str | Path) -> None:
    if isinstance(study, SyntheticStudy):
        payload = synthetic_study_to_dict(study)
    else:
        payload = sundog_study_to_dict(study)
    Path(path).write_text(json.dumps(payload, indent=1))


def load_study(path: str | Path) -> SyntheticStudy | SundogStudy:
    data = json.loads(Path(path).read_text())
    kind = data.get("kind")
    if kind == "synthetic":
        return synthetic_study_from_dict(data)
    if kind == "sundog":
        return sundog_study_from_dict(data)
    raise ValueError(f"unknown study kind {kind!r}")
