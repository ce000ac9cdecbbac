"""The layer table: which public functions the traced run wraps, and
the per-layer metrics, liveness checks and verdict derived from them.

Each wrapped function becomes a span name; each span name belongs to
one layer.  A layer's self time is the self time of its spans, so the
layers partition the traced campaign's wall-clock (whatever no span
covers is reported as unattributed).  The per-layer metrics' units and
directions are declared in ``BENCHMARK.json``.
"""

from __future__ import annotations

import math
from time import perf_counter
from typing import Any, Mapping

import numpy as np

from repro.core.acquisition import AcquisitionOptimizer
from repro.core.baselines import GridAscentOptimizer, Optimizer
from repro.core.executor import SerialExecutor
from repro.core.gp import GaussianProcess
from repro.core.loop import TuningLoop
from repro.core.optimizer import BayesianOptimizer
from repro.core.parameters import ParameterSpace
from repro.experiments import figures, report
from repro.service.campaign import CampaignRunner
from repro.storm import analytic_batch
from repro.storm.analytic import AnalyticPerformanceModel
from repro.storm.analytic_batch import AnalyticBatchModel
from repro.storm.objective import StormObjective
from repro.storm.spaces import (
    InformedMultiplierCodec,
    ParallelismCodec,
    SundogParameterCodec,
    UniformHintCodec,
)
from repro.store.base import StudyStore

from spans import Recorder, SpanTable

ROOT_SPAN = "campaign"

#: span name -> layer.
LAYER_OF = {
    "space.decode": "core.parameters",
    "space.round_trip_batch": "core.parameters",
    "space.latin_hypercube": "core.parameters",
    "screen.build": "screener",
    "screen": "screener",
    "codec.decode": "screener",
    "batch_model.evaluate": "screener",
    "acq.propose": "core.acquisition",
    "acq.score": "core.acquisition",
    "gp.refit": "core.gp",
    "gp.recondition": "core.gp",
    "gp.update": "core.gp",
    "gp.predict": "core.gp",
    "optimizer.ask": "core.optimizer",
    "optimizer.tell": "core.optimizer",
    "objective.measure": "storm.objective",
    "objective.measure_batch": "storm.objective",
    "objective.cache_info": "storm.objective",
    "engine.evaluate": "storm.analytic",
    "executor.wait_one": "core.executor",
    "store.save_checkpoint": "store",
    "store.load_checkpoint": "store",
    "store.save_results": "store",
    "store.load_results": "store",
    "loop.run": "core.loop",
    "campaign.run": "service.campaign",
    "figures.render": "experiments.figures",
}

#: layer -> the metric reporting its self seconds.
LAYER_SELF_METRIC = {
    "core.parameters": "space.self_s",
    "screener": "screen.self_s",
    "core.acquisition": "acq.self_s",
    "core.gp": "gp.self_s",
    "core.optimizer": "optimizer.self_s",
    "storm.objective": "objective.self_s",
    "storm.analytic": "engine.self_s",
    "core.executor": "executor.self_s",
    "store": "store.self_s",
    "core.loop": "loop.self_s",
    "service.campaign": "campaign.self_s",
    "experiments.figures": "figures.self_s",
}

#: Layers whose self time is orchestration glue around the wrapped
#: public functions, not work of their own; ``trace.coverage`` counts
#: it as unattributed.
ORCHESTRATION = ("core.loop", "service.campaign")

#: Liveness: counts each workload must exercise (> 0) or bypass (== 0).
LIVE = {
    "synth-small": {
        "nonzero": (
            "space.decode_rows", "screen.rows", "batch_model.rows",
            "acq.candidates", "acq.score_rows", "acq.refine_iters",
            "gp.refits", "gp.updates", "gp.predict_rows",
            "objective.measures", "engine.evaluations",
        ),
        "zero": ("store.checkpoint_writes", "store.results_loaded"),
    },
    "sundog": {
        "nonzero": (
            "space.decode_rows", "acq.candidates", "acq.score_rows",
            "gp.refits", "gp.updates", "gp.predict_rows",
            "objective.measures", "engine.evaluations",
        ),
        "zero": ("screen.rows", "store.checkpoint_writes", "store.results_loaded"),
    },
    "grid-ckpt": {
        "nonzero": (
            "store.checkpoint_writes", "store.results_loaded", "batch_model.rows",
            "objective.measures", "objective.batch_rows", "engine.evaluations",
        ),
        "zero": ("screen.rows", "acq.candidates", "gp.refits"),
    },
}


class DecisionProbe:
    """Always-on hooks behind ``decide_*`` and ``eval_ok_share``.

    A decision is the interval from a measurement returning
    (``SerialExecutor.wait_one``) to the next configuration being issued
    (an optimizer's ``ask`` returning): tell, checkpoint and ask, the
    quantity of the paper's Figure 7.  The first ask of each pass has no
    measurement before it and is not a decision.
    """

    def __init__(self) -> None:
        self.rec = Recorder(spans=False)
        #: ``(seconds, model_driven)`` per decision.
        self.decisions: list[tuple[float, bool]] = []
        self.evaluations = 0
        self.failed_evaluations = 0
        self._measured_at: float | None = None

    def install(self) -> None:
        self.rec.wrap(TuningLoop, "run", "loop.run", self._pass_done)
        self.rec.wrap(SerialExecutor, "wait_one", "executor.wait_one", self._measured)
        self.rec.wrap(BayesianOptimizer, "ask", "optimizer.ask", self._asked_bo)
        self.rec.wrap(GridAscentOptimizer, "ask", "optimizer.ask", self._asked_grid)

    def restore(self) -> None:
        self.rec.restore()

    def _pass_done(self, args: tuple, kwargs: Mapping[str, Any], result: Any) -> None:
        self._measured_at = None

    def _measured(self, args: tuple, kwargs: Mapping[str, Any], outcome: Any) -> None:
        self._measured_at = perf_counter()
        self.evaluations += 1
        run = outcome.run
        if (run is not None and run.failed) or not math.isfinite(outcome.value):
            self.failed_evaluations += 1

    def _decided(self, model_driven: bool) -> None:
        now = perf_counter()
        if self._measured_at is not None:
            self.decisions.append((now - self._measured_at, model_driven))
        self._measured_at = None

    def _asked_bo(self, args: tuple, kwargs: Mapping[str, Any], config: Any) -> None:
        opt = args[0]
        warmup = len(opt._initial_configs) + opt.init_points
        self._decided(len(opt.X) >= warmup and opt.gp.is_fitted)

    def _asked_grid(self, args: tuple, kwargs: Mapping[str, Any], config: Any) -> None:
        self._decided(False)


def _gp_fit_name(args: tuple, kwargs: Mapping[str, Any]) -> str:
    return "gp.refit" if kwargs.get("optimize_hyperparams", True) else "gp.recondition"


def install(rec: Recorder) -> None:
    """Wrap every layer's public functions on ``rec``."""
    count = rec.count

    def rows(counter: str, position: int):
        def hook(args: tuple, kwargs: Mapping[str, Any], result: Any) -> None:
            count(counter, len(np.atleast_2d(args[position])))

        return hook

    def items(counter: str, position: int):
        def hook(args: tuple, kwargs: Mapping[str, Any], result: Any) -> None:
            count(counter, len(args[position]))

        return hook

    # core.parameters
    rec.wrap(ParameterSpace, "decode", "space.decode")
    rec.wrap(ParameterSpace, "round_trip_batch", "space.round_trip_batch")
    rec.wrap(ParameterSpace, "latin_hypercube", "space.latin_hypercube")

    # screener: the factory is looked up lazily by the study runner, so a
    # module-level replacement sees every screener it builds.
    def screened(args: tuple, kwargs: Mapping[str, Any], keep: Any) -> None:
        keep = np.asarray(keep, dtype=bool)
        count("screen.rows", keep.size)
        count("screen.kept", int(keep.sum()))

    def traced_factory(factory):
        def make_analytic_screener(*args: Any, **kwargs: Any):
            return rec.instrument(factory(*args, **kwargs), "screen", screened)

        return rec.instrument(make_analytic_screener, "screen.build")

    rec.replace(analytic_batch, "make_analytic_screener", traced_factory)
    for codec in (
        ParallelismCodec,
        UniformHintCodec,
        InformedMultiplierCodec,
        SundogParameterCodec,
    ):
        rec.wrap(codec, "decode", "codec.decode")
    rec.wrap(
        AnalyticBatchModel, "evaluate", "batch_model.evaluate",
        items("batch_model.rows", 1),
    )

    # core.acquisition
    def proposed(args: tuple, kwargs: Mapping[str, Any], proposal: Any) -> None:
        count("acq.candidates", proposal.n_candidates)
        count("acq.screened_out", proposal.n_screened_out)
        count("acq.refine_iters", proposal.refine_iterations)

    rec.wrap(AcquisitionOptimizer, "propose", "acq.propose", proposed)
    rec.wrap(AcquisitionOptimizer, "score", "acq.score", rows("acq.score_rows", 2))

    # core.gp
    rec.wrap(GaussianProcess, "fit", _gp_fit_name)
    rec.wrap(GaussianProcess, "update", "gp.update")
    rec.wrap(GaussianProcess, "predict", "gp.predict", rows("gp.predict_rows", 1))

    # core.optimizer
    rec.wrap(BayesianOptimizer, "ask", "optimizer.ask")
    rec.wrap(BayesianOptimizer, "tell", "optimizer.tell")
    rec.wrap(BayesianOptimizer, "tell_failure", "optimizer.tell")
    rec.wrap(GridAscentOptimizer, "ask", "optimizer.ask")
    rec.wrap(GridAscentOptimizer, "tell", "optimizer.tell")
    rec.wrap(Optimizer, "tell_failure", "optimizer.tell")

    # storm.objective / storm.analytic
    def cache(args: tuple, kwargs: Mapping[str, Any], info: Any) -> None:
        count("objective.cache_hits", float(info["hits"]))
        count("objective.cache_misses", float(info["misses"]))

    rec.wrap(StormObjective, "measure", "objective.measure")
    rec.wrap(
        StormObjective, "measure_batch", "objective.measure_batch",
        items("objective.batch_rows", 1),
    )
    rec.wrap(StormObjective, "cache_info", "objective.cache_info", cache)
    rec.wrap(AnalyticPerformanceModel, "evaluate", "engine.evaluate")

    # core.executor
    rec.wrap(SerialExecutor, "wait_one", "executor.wait_one")

    # store
    def loaded(args: tuple, kwargs: Mapping[str, Any], results: Any) -> None:
        count("store.results_loaded", len(results or ()))

    rec.wrap(StudyStore, "save_checkpoint", "store.save_checkpoint")
    rec.wrap(StudyStore, "load_checkpoint", "store.load_checkpoint")
    rec.wrap(StudyStore, "save_results", "store.save_results")
    rec.wrap(StudyStore, "load_results", "store.load_results", loaded)

    # core.loop / service.campaign / experiments.figures
    rec.wrap(TuningLoop, "run", "loop.run")
    rec.wrap(CampaignRunner, "run", "campaign.run")
    for builder in (
        "figure4_throughput",
        "figure5_convergence",
        "figure6_loess_traces",
        "figure7_step_time",
        "figure8a_sundog_throughput",
        "figure8b_sundog_convergence",
    ):
        rec.wrap(figures, builder, "figures.render")
    rec.wrap(report, "render_figure", "figures.render")


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_self_seconds(table: SpanTable) -> dict[str, float]:
    """Self seconds per layer, plus ``unattributed`` (root self time)."""
    out = {layer: 0.0 for layer in LAYER_SELF_METRIC}
    for name in table.names:
        if name == ROOT_SPAN:
            continue
        out[LAYER_OF[name]] += table.self_seconds(name)
    out["unattributed"] = table.self_seconds(ROOT_SPAN)
    return out


def metrics(
    table: SpanTable,
    counters: Mapping[str, float],
    *,
    traced_s: float,
    untraced_s: float,
    store_bytes: int,
) -> dict[str, float]:
    """Every per-layer metric from one traced campaign.

    ``trace.coverage`` is the share of the traced ``campaign_s`` spent
    in the self time of a wrapped public function that does work of its
    own, i.e. outside the root span's glue and the self time of the
    :data:`ORCHESTRATION` layers (cell set-up inside ``CampaignRunner.run``,
    the step loop inside ``TuningLoop.run``).
    """
    def c(name: str) -> float:
        return float(counters.get(name, 0.0))

    writes = table.durations("store.save_checkpoint")
    selfs = layer_self_seconds(table)
    out = {
        "space.decode_s": table.total("space.decode"),
        "space.decode_rows": table.count("space.decode"),
        "space.round_trip_batch_s": table.total("space.round_trip_batch"),
        "space.latin_hypercube_s": table.total("space.latin_hypercube"),
        "screen.s": table.total("screen"),
        "screen.rows": c("screen.rows"),
        "screen.keep_share": _share(c("screen.kept"), c("screen.rows")),
        "codec.decode_s": table.total("codec.decode"),
        "batch_model.evaluate_s": table.total("batch_model.evaluate"),
        "batch_model.rows": c("batch_model.rows"),
        "acq.propose_s": table.total("acq.propose"),
        "acq.score_s": table.total("acq.score"),
        "acq.score_rows": c("acq.score_rows"),
        "acq.candidates": c("acq.candidates"),
        "acq.screened_out_share": _share(c("acq.screened_out"), c("acq.candidates")),
        "acq.refine_iters": c("acq.refine_iters"),
        "gp.refit_s": table.total("gp.refit"),
        "gp.refits": table.count("gp.refit"),
        "gp.recondition_s": table.total("gp.recondition"),
        "gp.update_s": table.total("gp.update"),
        "gp.updates": table.count("gp.update"),
        "gp.predict_s": table.total("gp.predict"),
        "gp.predict_rows": c("gp.predict_rows"),
        "optimizer.ask_s": table.total("optimizer.ask"),
        "optimizer.tell_s": table.total("optimizer.tell"),
        "objective.measure_s": table.total("objective.measure"),
        "objective.measures": table.count("objective.measure"),
        "objective.measure_batch_s": table.total("objective.measure_batch"),
        "objective.batch_rows": c("objective.batch_rows"),
        "objective.cache_hit_ratio": _share(
            c("objective.cache_hits"),
            c("objective.cache_hits") + c("objective.cache_misses"),
        ),
        "engine.evaluate_s": table.total("engine.evaluate"),
        "engine.evaluations": table.count("engine.evaluate"),
        "executor.wait_s": table.total("executor.wait_one"),
        "store.checkpoint_writes": len(writes),
        "store.checkpoint_write_s": float(writes.sum()),
        "store.checkpoint_write_p95_ms": (
            float(np.percentile(writes, 95)) * 1e3 if len(writes) else 0.0
        ),
        "store.load_results_s": table.total("store.load_results"),
        "store.results_loaded": c("store.results_loaded"),
        "store.bytes_on_disk": store_bytes,
        "figures.render_s": table.total("figures.render"),
        **{LAYER_SELF_METRIC[layer]: selfs[layer] for layer in LAYER_SELF_METRIC},
        "trace.unattributed_s": selfs["unattributed"],
        "trace.coverage": 1.0 - _share(
            selfs["unattributed"] + sum(selfs[layer] for layer in ORCHESTRATION),
            traced_s,
        ),
        "trace.overhead_s": traced_s - untraced_s,
        "trace.spans": len(table.start),
    }
    return {name: float(value) for name, value in out.items()}


def liveness(workload: str, values: Mapping[str, float]) -> list[str]:
    """Problems with the layers ``workload`` should exercise or bypass."""
    expect = LIVE[workload]
    problems = [
        f"liveness: {name} is 0 on {workload}; a wrapped function is no longer called"
        for name in expect["nonzero"]
        if values[name] <= 0
    ]
    problems += [
        f"liveness: {name} is {values[name]:g} on {workload}; predicted bypassed"
        for name in expect["zero"]
        if values[name] != 0
    ]
    return problems


def verdict(table: SpanTable, campaign_s: float) -> list[str]:
    """Lines naming each layer's self seconds and share of ``campaign_s``."""
    selfs = layer_self_seconds(table)
    unattributed = selfs.pop("unattributed")
    ranked = sorted(selfs.items(), key=lambda kv: kv[1], reverse=True)
    top, top_s = ranked[0]
    lines = [
        f"dominant layer: {top} {top_s:.3f} s self "
        f"({_share(top_s, campaign_s):.1%} of campaign_s {campaign_s:.3f} s)"
    ]
    lines += [
        f"  {layer:<20} {seconds:9.3f} s  {_share(seconds, campaign_s):6.1%}"
        for layer, seconds in ranked
    ]
    lines.append(
        f"  {'unattributed':<20} {unattributed:9.3f} s  "
        f"{_share(unattributed, campaign_s):6.1%}"
    )
    return lines
