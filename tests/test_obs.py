"""The repro.obs subsystem: tracer, metrics, sinks, summary, CLI."""

from __future__ import annotations

import dataclasses
import io
import json
import time

import numpy as np
import pytest

from repro import obs
from repro.core.history import Observation
from repro.core.loop import TuningLoop, _coerce_telemetry
from repro.core.optimizer import BayesianOptimizer
from repro.experiments.presets import SYNTHETIC_BASE_CONFIG
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.sinks import VERBOSE, ProgressSink
from repro.obs.tracer import NOOP_SPAN, NoopTracer, Tracer
from repro.storm.cluster import paper_cluster
from repro.storm.objective import StormObjective
from repro.storm.spaces import ParallelismCodec
from repro.topology_gen.suite import make_topology


# ----------------------------------------------------------------------
# Tracer: span nesting invariants
# ----------------------------------------------------------------------
class TestTracer:
    def test_span_nesting_invariants(self):
        sink = obs.InMemorySink()
        tracer = Tracer((sink,))
        with tracer.span("outer", a=1) as outer:
            with tracer.span("inner"):
                tracer.event("ping", n=7)
            with tracer.span("inner2") as inner2:
                inner2.set_attribute("late", True)
        spans = [e for e in sink.events if e["type"] == "span"]
        by_name = {s["name"]: s for s in spans}
        # Children close (and therefore emit) before their parent.
        assert [s["name"] for s in spans] == ["inner", "inner2", "outer"]
        assert by_name["inner"]["parent_id"] == by_name["outer"]["span_id"]
        assert by_name["inner2"]["parent_id"] == by_name["outer"]["span_id"]
        assert by_name["outer"]["parent_id"] is None
        assert by_name["outer"]["depth"] == 0
        assert by_name["inner"]["depth"] == 1
        assert by_name["inner2"]["attrs"]["late"] is True
        assert by_name["outer"]["attrs"] == {"a": 1}
        # The point event is tied to the span that was open at the time.
        (event,) = [e for e in sink.events if e["type"] == "event"]
        assert event["span_id"] == by_name["inner"]["span_id"]
        # Stack fully unwound.
        assert tracer.current_depth == 0
        assert outer.duration_s >= by_name["inner"]["duration_s"]

    def test_span_timing_is_monotonic_and_contained(self):
        sink = obs.InMemorySink()
        tracer = Tracer((sink,))
        with tracer.span("parent"):
            time.sleep(0.01)
            with tracer.span("child"):
                time.sleep(0.01)
        child, parent = (e for e in sink.events if e["type"] == "span")
        assert child["t_start"] >= parent["t_start"]
        assert child["duration_s"] <= parent["duration_s"]
        assert parent["duration_s"] >= 0.02

    def test_exception_marks_span_status(self):
        sink = obs.InMemorySink()
        tracer = Tracer((sink,))
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("nope")
        (span,) = sink.events
        assert span["status"] == "error"
        assert span["attrs"]["exception"] == "ValueError"
        assert tracer.current_depth == 0

    def test_noop_tracer_is_allocation_free_and_fast(self):
        tracer = NoopTracer()
        assert tracer.span("anything") is NOOP_SPAN
        assert tracer.span("other", k=1) is NOOP_SPAN
        # Overhead bar: 50k disabled spans must be far below a
        # millisecond-scale budget (the <2% suggest-path criterion).
        n = 50_000
        t0 = time.perf_counter()
        for _ in range(n):
            with tracer.span("hot"):
                pass
        elapsed = time.perf_counter() - t0
        assert elapsed < 0.5, f"{elapsed:.3f}s for {n} no-op spans"


# ----------------------------------------------------------------------
# Metrics: histogram accuracy and registry merge
# ----------------------------------------------------------------------
class TestHistogram:
    def test_quantile_accuracy_lognormal(self):
        rng = np.random.default_rng(0)
        values = np.exp(rng.normal(0.0, 1.0, size=20_000))
        hist = Histogram()
        for v in values:
            hist.record(float(v))
        for q in (0.50, 0.95, 0.99):
            exact = float(np.quantile(values, q))
            approx = hist.quantile(q)
            assert approx == pytest.approx(exact, rel=0.10), q

    def test_min_max_mean_exact(self):
        hist = Histogram()
        for v in (3.0, 1.0, 2.0):
            hist.record(v)
        assert hist.min == 1.0
        assert hist.max == 3.0
        assert hist.mean == pytest.approx(2.0)
        assert hist.quantile(0.0) >= 1.0
        assert hist.quantile(1.0) == pytest.approx(3.0, rel=0.05)
        assert hist.quantile(1.0) <= hist.max

    def test_zero_and_negative_values_counted(self):
        hist = Histogram()
        for v in (0.0, -1.0, 5.0):
            hist.record(v)
        assert hist.count == 3
        assert hist.zeros == 2
        assert hist.quantile(0.99) <= 5.0

    def test_roundtrip_and_merge_equivalence(self):
        rng = np.random.default_rng(1)
        a, b, combined = Histogram(), Histogram(), Histogram()
        for i, v in enumerate(rng.exponential(2.0, size=5_000)):
            (a if i % 2 else b).record(float(v))
            combined.record(float(v))
        restored = Histogram.from_dict(json.loads(json.dumps(a.as_dict())))
        restored.merge(b)
        assert restored.count == combined.count
        assert restored.total == pytest.approx(combined.total)
        for q in (0.5, 0.95, 0.99):
            assert restored.quantile(q) == pytest.approx(combined.quantile(q))


class TestRegistryMerge:
    def test_merge_across_cells(self):
        """Two 'cells' record independently; the merged registry agrees
        with one registry that saw everything."""
        cells = [MetricsRegistry() for _ in range(2)]
        reference = MetricsRegistry()
        rng = np.random.default_rng(2)
        for i, cell in enumerate(cells):
            for v in rng.gamma(2.0, 1.0, size=1000):
                cell.histogram("suggest_seconds").record(float(v))
                reference.histogram("suggest_seconds").record(float(v))
            cell.counter("steps").inc(100 + i)
            reference.counter("steps").inc(100 + i)
            cell.gauge("pool_size").set(512 + i)
            reference.gauge("pool_size").set(512 + i)
        merged = MetricsRegistry()
        for cell in cells:
            # Snapshots cross process boundaries as JSON.
            merged.merge_snapshot(json.loads(json.dumps(cell.snapshot())))
        assert merged.counter("steps").value == reference.counter("steps").value
        assert merged.gauge("pool_size").value == 513
        got = merged.histogram("suggest_seconds")
        want = reference.histogram("suggest_seconds")
        assert got.count == want.count
        for q in (0.5, 0.95, 0.99):
            assert got.quantile(q) == pytest.approx(want.quantile(q))

    def test_snapshot_is_json_serializable(self):
        registry = MetricsRegistry()
        registry.histogram("h").record(1.5)
        registry.counter("c").inc()
        registry.gauge("g").set(2.0)
        snap = json.loads(json.dumps(registry.snapshot()))
        assert snap["counters"]["c"] == 1
        assert snap["histograms"]["h"]["count"] == 1


# ----------------------------------------------------------------------
# Session + JSONL round trip
# ----------------------------------------------------------------------
class TestSessionJsonl:
    def test_events_round_trip(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with obs.session(jsonl_path=path, manifest={"seed": 7}) as ctx:
            with ctx.tracer.span("tuning.run"):
                with ctx.tracer.span("tuning.suggest", step=0):
                    pass
            ctx.tracer.event("cell_finish", cell="a", seconds=1.0)
            ctx.metrics.counter("tuning.steps").inc(3)
        events = obs.read_jsonl(path)
        kinds = [e["type"] for e in events]
        assert kinds[0] == "manifest"
        assert kinds[-1] == "metrics"
        assert events[0]["attrs"] == {"seed": 7}
        spans = [e for e in events if e["type"] == "span"]
        assert {s["name"] for s in spans} == {"tuning.run", "tuning.suggest"}
        assert events[-1]["snapshot"]["counters"] == {"tuning.steps": 3}
        # Every line is independently parseable JSON (the JSONL contract).
        for line in path.read_text().splitlines():
            assert json.loads(line)

    def test_torn_tail_line_is_dropped(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text('{"type": "event", "name": "a"}\n{"type": "ev')
        events = obs.read_jsonl(path)
        assert len(events) == 1

    def test_session_restores_previous_context(self, tmp_path):
        before = obs.current()
        with obs.session(jsonl_path=tmp_path / "t.jsonl"):
            assert obs.current().enabled
        assert obs.current() is before
        assert not obs.current().enabled


# ----------------------------------------------------------------------
# Instrumented tuning loop
# ----------------------------------------------------------------------
def _tiny_setup(seed=0, **objective_kwargs):
    topology = make_topology("small")
    cluster = paper_cluster()
    codec = ParallelismCodec(topology, cluster, SYNTHETIC_BASE_CONFIG)
    objective = StormObjective(
        topology, cluster, codec, seed=seed, **objective_kwargs
    )
    optimizer = BayesianOptimizer(codec.space, seed=seed, acq_candidates=32)
    return objective, optimizer


class TestInstrumentedLoop:
    def test_phase_spans_cover_wall_clock(self, tmp_path):
        objective, optimizer = _tiny_setup()
        path = tmp_path / "run.jsonl"
        with obs.session(jsonl_path=path):
            TuningLoop(objective, optimizer, max_steps=6, repeat_best=2).run()
        summary = obs.summarize_trace(obs.read_jsonl(path))
        assert summary.n_runs == 1
        assert summary.n_steps == 6
        assert summary.wall_seconds > 0
        # Acceptance bar: phase totals sum to within 10% of wall-clock.
        assert summary.coverage == pytest.approx(1.0, abs=0.10)
        # repeat_best re-runs show up as extra evaluate spans.
        assert summary.spans["tuning.evaluate"].count == 8
        assert summary.spans["gp.refit"].count > 0

    def test_metadata_keys_backward_compatible(self):
        objective, optimizer = _tiny_setup()
        result = TuningLoop(objective, optimizer, max_steps=5).run()
        telemetry = result.metadata["optimizer_telemetry"]
        assert telemetry["n_proposals"] >= 0
        assert "gp_fit_seconds_total" in telemetry
        assert result.metadata["objective_cache"]["enabled"] is True
        snap = result.metadata["obs_metrics"]
        assert snap["counters"]["tuning.steps"] == 5
        assert snap["histograms"]["tuning.suggest_seconds"]["count"] == 5

    def test_failure_reason_propagates_to_history(self):
        """A config the engine rejects is diagnosable from the history."""
        from repro.storm.metrics import MeasuredRun

        objective, optimizer = _tiny_setup()
        objective.engine._evaluate_mechanics = (
            lambda config, point=None: MeasuredRun.failure(
                "640 executors exceed cluster capacity 200"
            )
        )
        result = TuningLoop(objective, optimizer, max_steps=1).run()
        (observation,) = result.observations
        assert observation.value == 0.0
        assert observation.failed
        assert "exceed" in observation.failure_reason
        # Round-trips through serialization.
        restored = Observation.from_dict(
            json.loads(json.dumps(observation.as_dict()))
        )
        assert restored.failed
        assert restored.failure_reason == observation.failure_reason

    def test_bottleneck_detail_recorded_on_success(self):
        objective, optimizer = _tiny_setup()
        result = TuningLoop(objective, optimizer, max_steps=3).run()
        for observation in result.observations:
            assert not observation.failed
            assert observation.bottleneck  # an operator name

    def test_telemetry_dataclass_is_coerced_not_dropped(self):
        @dataclasses.dataclass
        class Telemetry:
            fits: int = 4
            pool: float = 2.5

        class DataclassTelemetryOptimizer(BayesianOptimizer):
            @property
            def telemetry(self):  # type: ignore[override]
                return Telemetry()

        objective, _ = _tiny_setup()
        codec_space = DataclassTelemetryOptimizer(
            ParallelismCodec(
                make_topology("small"), paper_cluster(), SYNTHETIC_BASE_CONFIG
            ).space,
            seed=0,
            acq_candidates=16,
        )
        result = TuningLoop(objective, codec_space, max_steps=3).run()
        assert result.metadata["optimizer_telemetry"] == {
            "fits": 4,
            "pool": 2.5,
        }

    def test_coerce_telemetry_variants(self):
        assert _coerce_telemetry(None) is None
        assert _coerce_telemetry({"a": 1}) == {"a": 1}

        class Bag:
            def __init__(self):
                self.x = 1

        assert _coerce_telemetry(Bag()) == {"x": 1}
        assert _coerce_telemetry(42) is None  # no dict view at all

    def test_failure_events_in_trace(self, tmp_path):
        """An infeasible measurement emits failure events with a reason."""
        from repro.storm.metrics import MeasuredRun

        objective, _ = _tiny_setup()
        objective.engine._evaluate_mechanics = (
            lambda config, point=None: MeasuredRun.failure(
                "640 executors exceed cluster capacity 200"
            )
        )
        params = objective.codec.space.decode(
            np.full(objective.codec.space.dim, 0.5)
        )
        path = tmp_path / "run.jsonl"
        with obs.session(jsonl_path=path):
            assert objective(params) == 0.0
        events = obs.read_jsonl(path)
        names = [e.get("name") for e in events if e["type"] == "event"]
        assert "engine.failure" in names
        assert "objective.failure" in names
        failure = next(
            e for e in events if e.get("name") == "objective.failure"
        )
        assert "exceed" in failure["attrs"]["reason"]

    def test_summary_failures_count_failed_observations(self, tmp_path):
        """Infeasible diagnostics reference-pool points are not failures.

        A 2 s batch timeout makes part of the space infeasible, so both
        the BO run and the tracker's noise-free reference pool hit
        failed deployments; only the former may reach the trace.
        """
        from repro.core.diagnostics import REFERENCE_POOL
        from repro.storm.analytic import CalibrationParams

        objective, optimizer = _tiny_setup(
            calibration=CalibrationParams(batch_timeout_ms=2_000.0)
        )
        path = tmp_path / "run.jsonl"
        with obs.session(jsonl_path=path):
            result = TuningLoop(
                objective, optimizer, max_steps=10, diagnostics=True
            ).run()
        events = obs.read_jsonl(path)
        n_failed = sum(o.failed for o in result.observations)
        assert n_failed > 0

        codec = objective.codec
        pool = codec.space.latin_hypercube(
            REFERENCE_POOL, np.random.default_rng(0)
        )
        configs = [
            codec.decode(codec.space.decode(np.asarray(point)))
            for point in codec.space.round_trip_batch(pool)
        ]
        pool_runs = objective.engine.evaluate_noise_free_batch(configs)
        assert any(run.failed for run in pool_runs)

        assert obs.summarize_trace(events).failures == n_failed
        names = [e.get("name") for e in events if e["type"] == "event"]
        assert names.count("engine.failure") == names.count("objective.failure")


# ----------------------------------------------------------------------
# Progress sink
# ----------------------------------------------------------------------
class TestProgressSink:
    def _events(self, sink):
        sink(
            {
                "type": "event",
                "name": "study_start",
                "attrs": {"study": "synthetic", "n_cells": 4},
            }
        )
        for i in range(2):
            sink(
                {
                    "type": "event",
                    "name": "cell_finish",
                    "attrs": {"study": "synthetic", "cell": f"c{i}", "seconds": 2.0},
                }
            )

    def test_eta_from_completed_cells(self):
        err = io.StringIO()
        sink = ProgressSink(err=err, out=io.StringIO())
        self._events(sink)
        assert sink.eta_seconds("synthetic") == pytest.approx(4.0)
        text = err.getvalue()
        assert "2/4 cells" in text
        assert "eta 4s" in text

    def test_quiet_suppresses_info_and_progress(self):
        out, err = io.StringIO(), io.StringIO()
        sink = ProgressSink(0, out=out, err=err)
        self._events(sink)
        sink.info("informational")
        sink.result("the exhibit")
        assert err.getvalue() == ""
        assert out.getvalue() == "the exhibit\n"

    def test_verbose_shows_detail(self):
        out = io.StringIO()
        sink = ProgressSink(VERBOSE, out=out, err=io.StringIO())
        sink.detail("fine-grained")
        assert "fine-grained" in out.getvalue()


# ----------------------------------------------------------------------
# CLI integration
# ----------------------------------------------------------------------
class TestObsCli:
    def _write_trace(self, tmp_path):
        objective, optimizer = _tiny_setup()
        path = tmp_path / "run.jsonl"
        with obs.session(jsonl_path=path, manifest={"seed": 0}):
            TuningLoop(objective, optimizer, max_steps=5).run()
        return path

    def test_obs_summary(self, tmp_path, capsys):
        from repro.cli import main

        path = self._write_trace(tmp_path)
        assert main(["obs", "summary", str(path)]) == 0
        out = capsys.readouterr().out
        assert "Obs Summary" in out
        assert "tuning.suggest" in out
        assert "tuning.evaluate" in out
        assert "tuning.tell" in out
        assert "share_of_wall" in out

    def test_obs_tail(self, tmp_path, capsys):
        from repro.cli import main

        path = self._write_trace(tmp_path)
        assert main(["obs", "tail", str(path), "-n", "5"]) == 0
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == 5
        assert "metrics snapshot" in out

    def test_obs_export_output_is_written_durably(self, tmp_path, monkeypatch):
        """Regression: the .prom export must go through the fsyncing
        atomic writer, not a bare temp-file rename a crash can lose."""
        import repro.core.checkpoint as checkpoint
        from repro.cli import main

        path = self._write_trace(tmp_path)
        target = tmp_path / "metrics.prom"
        calls = []
        real_write = checkpoint.atomic_write_text

        def spying_write(p, text):
            calls.append(str(p))
            real_write(p, text)

        monkeypatch.setattr(checkpoint, "atomic_write_text", spying_write)
        assert main(["obs", "export", str(path), "--output", str(target)]) == 0
        assert calls == [str(target)]
        assert target.read_text(encoding="utf-8").endswith("# EOF\n")
        assert not list(tmp_path.glob("*.tmp"))

    def test_exhibit_with_trace_flag(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "cli.jsonl"
        assert main(["table1", "--trace", str(path)]) == 0
        events = obs.read_jsonl(path)
        assert events[0]["type"] == "manifest"
        assert events[-1]["type"] == "metrics"

    def test_quiet_flag_still_prints_exhibit(self, capsys):
        from repro.cli import main

        assert main(["table1", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out

    def test_verbose_and_quiet_mutually_exclusive(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["table1", "-v", "-q"])


class TestStudyEvents:
    @pytest.mark.slow
    def test_synthetic_study_emits_cell_events(self, tmp_path):
        from repro.experiments.presets import Budget
        from repro.experiments.runner import SyntheticStudy
        from repro.topology_gen.suite import CONDITIONS

        tiny = Budget(
            steps=3, steps_extended=4, baseline_steps=5, passes=1, repeat_best=2
        )
        path = tmp_path / "study.jsonl"
        with obs.session(jsonl_path=path) as ctx:
            SyntheticStudy(
                tiny,
                conditions=CONDITIONS[:1],
                sizes=("small",),
                strategies=("pla", "bo"),
            ).run()
            merged = ctx.metrics.snapshot()
        events = obs.read_jsonl(path)
        names = [e.get("name") for e in events if e["type"] == "event"]
        assert names.count("cell_start") == 2
        assert names.count("cell_finish") == 2
        assert "study_start" in names and "study_finish" in names
        starts = [e for e in events if e.get("name") == "cell_start"]
        assert all("seed" in e["attrs"] for e in starts)
        study_start = next(e for e in events if e.get("name") == "study_start")
        assert study_start["attrs"]["budget"]["steps"] == 3
        # Session registry aggregated both cells' tuning steps:
        # pla runs baseline_steps, bo runs steps.
        assert merged["counters"]["tuning.steps"] == 5 + 3


# ----------------------------------------------------------------------
# Registry merge edge cases (cross-process snapshot/merge paths)
# ----------------------------------------------------------------------
class TestRegistryMergeEdgeCases:
    def test_empty_registry_merges_are_identity(self):
        empty = MetricsRegistry()
        populated = MetricsRegistry()
        populated.counter("c").inc(3)
        populated.gauge("g").set(7.0)
        populated.histogram("h").record(0.25)
        before = json.loads(json.dumps(populated.snapshot()))
        # empty <- populated carries everything over ...
        empty.merge_snapshot(populated.snapshot())
        assert json.loads(json.dumps(empty.snapshot())) == before
        # ... and populated <- empty changes nothing.
        populated.merge_snapshot(MetricsRegistry().snapshot())
        assert json.loads(json.dumps(populated.snapshot())) == before

    def test_histogram_bucket_union_disjoint_ranges(self):
        """Merging histograms whose buckets don't overlap keeps every
        bucket: counts, totals, and extreme quantiles all survive."""
        lows, highs = MetricsRegistry(), MetricsRegistry()
        for v in (1e-6, 2e-6, 5e-6):
            lows.histogram("h").record(v)
        for v in (10.0, 20.0, 50.0):
            highs.histogram("h").record(v)
        merged = MetricsRegistry()
        merged.merge_snapshot(json.loads(json.dumps(lows.snapshot())))
        merged.merge_snapshot(json.loads(json.dumps(highs.snapshot())))
        hist = merged.histogram("h")
        assert hist.count == 6
        assert hist.min == 1e-6
        assert hist.max == 50.0
        assert hist.total == pytest.approx(8e-6 + 80.0)
        assert hist.quantile(0.01) < 1e-4 < 1.0 < hist.quantile(0.99)

    def test_gauge_merge_is_last_write_wins(self):
        merged = MetricsRegistry()
        first, second = MetricsRegistry(), MetricsRegistry()
        first.gauge("pool").set(100.0)
        second.gauge("pool").set(42.0)
        merged.merge_snapshot(first.snapshot())
        merged.merge_snapshot(second.snapshot())
        assert merged.gauge("pool").value == 42.0
        # Counters, by contrast, accumulate.
        first.counter("n").inc(2)
        second.counter("n").inc(3)
        merged.merge_snapshot(first.snapshot())
        merged.merge_snapshot(second.snapshot())
        assert merged.counter("n").value == 5


# ----------------------------------------------------------------------
# JSONL coercion and tolerant reads
# ----------------------------------------------------------------------
class TestJsonlRobustness:
    def test_numpy_scalars_and_arrays_round_trip(self, tmp_path):
        """Every numpy type the loop's attrs can carry must serialize to
        plain JSON, not repr() strings."""
        path = tmp_path / "np.jsonl"
        with obs.JsonlSink(path) as sink:
            sink(
                {
                    "f64": np.float64(1.5),
                    "f32": np.float32(0.25),
                    "i64": np.int64(7),
                    "i32": np.int32(-3),
                    "bool": np.bool_(True),
                    "arr": np.arange(3),
                    "arr2d": np.ones((2, 2)),
                }
            )
        (record,) = obs.read_jsonl(path)
        assert record == {
            "f64": 1.5,
            "f32": 0.25,
            "i64": 7,
            "i32": -3,
            "bool": True,
            "arr": [0, 1, 2],
            "arr2d": [[1.0, 1.0], [1.0, 1.0]],
        }
        assert isinstance(record["i64"], int)
        assert isinstance(record["bool"], bool)

    def test_mid_file_torn_line_strict_raises_lenient_skips(self, tmp_path):
        path = tmp_path / "crashed.jsonl"
        path.write_text(
            '{"type": "event", "name": "a"}\n'
            '{"type": "ev'  # torn mid-file: writer crashed, file reopened
            "\n"
            '{"type": "event", "name": "b"}\n'
        )
        with pytest.raises(ValueError, match="line|invalid|:2"):
            obs.read_jsonl(path)
        events = obs.read_jsonl(path, strict=False)
        assert [e["name"] for e in events] == ["a", "b"]

    def test_torn_tail_tolerated_in_both_modes(self, tmp_path):
        path = tmp_path / "live.jsonl"
        path.write_text('{"type": "event", "name": "a"}\n{"type": "ev')
        assert len(obs.read_jsonl(path)) == 1
        assert len(obs.read_jsonl(path, strict=False)) == 1


# ----------------------------------------------------------------------
# OpenMetrics exposition
# ----------------------------------------------------------------------
class TestOpenMetrics:
    def _snapshot(self):
        registry = MetricsRegistry()
        registry.counter("tuning.steps").inc(12)
        registry.gauge("drift.epochs_completed").set(3.0)
        for v in (0.1, 0.2, 0.4):
            registry.histogram("tuning.suggest_seconds").record(v)
        return json.loads(json.dumps(registry.snapshot()))

    def test_exposition_format(self):
        from repro.obs.openmetrics import render_openmetrics

        text = render_openmetrics(self._snapshot())
        assert text.endswith("# EOF\n")
        assert "repro_tuning_steps_total 12" in text
        assert "# TYPE repro_tuning_steps counter" in text
        assert "repro_drift_epochs_completed 3.0" in text
        assert "# TYPE repro_tuning_suggest_seconds summary" in text
        assert 'quantile="0.95"' in text
        assert "repro_tuning_suggest_seconds_count 3" in text
        assert "repro_tuning_suggest_seconds_sum" in text
        # One metadata block per family, no duplicate TYPE lines.
        type_lines = [
            line for line in text.splitlines() if line.startswith("# TYPE")
        ]
        assert len(type_lines) == len(set(type_lines)) == 3

    def test_latest_snapshot_takes_the_newest(self):
        from repro.obs.openmetrics import latest_snapshot

        events = [
            {"type": "metrics", "snapshot": {"counters": {"a": 1}}},
            {"type": "event", "name": "x"},
            {"type": "metrics", "snapshot": {"counters": {"a": 5}}},
        ]
        assert latest_snapshot(events)["counters"]["a"] == 5
        assert latest_snapshot([{"type": "event", "name": "x"}]) is None

    def test_metric_name_sanitization(self):
        from repro.obs.openmetrics import metric_name

        assert metric_name("tuning.tell_seconds") == "repro_tuning_tell_seconds"
        assert metric_name("weird-name with spaces!") == (
            "repro_weird_name_with_spaces_"
        )
