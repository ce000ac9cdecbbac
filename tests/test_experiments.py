"""Integration tests: studies, figure builders, report rendering, CLI.

These run the full pipeline at a smoke-test budget and assert on the
structure of every exhibit plus the cheap qualitative claims.
"""

from __future__ import annotations

import pytest

from repro.experiments import figures
from repro.experiments.presets import Budget, quick_budget
from repro.experiments.report import (
    render_bars,
    render_figure,
    render_series,
    render_table,
)
from repro.experiments.runner import (
    SundogArmSpec,
    SundogStudy,
    SyntheticCellSpec,
    SyntheticStudy,
    run_cell,
)
from repro.topology_gen.suite import CONDITIONS, TopologyCondition


@pytest.fixture(scope="module")
def mini_synthetic_study():
    """One condition, two sizes, three strategies at smoke budget.

    The baselines keep their full 60-step ascent (they are cheap); the
    Bayesian runs are shortened.
    """
    budget = Budget(
        steps=8, steps_extended=12, baseline_steps=60, passes=1, repeat_best=3
    )
    study = SyntheticStudy(
        budget,
        conditions=[CONDITIONS[0], CONDITIONS[2]],
        sizes=["small", "medium"],
        strategies=["pla", "bo", "ipla"],
        seed=0,
    )
    return study.run()


@pytest.fixture(scope="module")
def mini_sundog_study():
    budget = Budget(
        steps=30, steps_extended=40, baseline_steps=60, passes=1, repeat_best=3
    )
    study = SundogStudy(
        budget,
        arms=[("pla", "h"), ("bo", "h"), ("bo", "h bs bp")],
        seed=0,
    )
    return study.run()


class TestStaticExhibits:
    def test_table1(self):
        data = figures.table1_parameters()
        assert len(data.rows) == 6
        assert {"Parameter", "Description"} <= set(data.rows[0])

    def test_table2(self):
        data = figures.table2_topologies()
        assert [r["Name"] for r in data.rows] == ["small", "medium", "large"]
        small = data.rows[0]
        assert small["V"] == 10 and small["E"] == 17 and small["L"] == 4

    def test_table3(self):
        data = figures.table3_literature()
        assert len(data.rows) == 8  # 4 literature + 3 synthetic + sundog
        assert any("Sundog" in str(r["Description"]) for r in data.rows)

    def test_figure3(self):
        data = figures.figure3_network_load()
        topologies = [r["Topology"] for r in data.rows]
        assert topologies == ["large", "medium", "small", "sundog"]
        loads = [float(r["MB/s per worker"]) for r in data.rows]
        assert all(0 < v < 125.0 for v in loads)  # never saturated
        # Sundog is the network-heaviest topology (paper Figure 3).
        assert loads[-1] == max(loads)


class TestSyntheticStudy:
    def test_all_cells_present(self, mini_synthetic_study):
        study = mini_synthetic_study
        assert len(study.results) == 2 * 2 * 3
        for results in study.results.values():
            assert len(results) == study.budget.passes
            for result in results:
                assert result.n_steps >= 1
                assert len(result.best_rerun_values) == study.budget.repeat_best

    def test_best_pass_selection(self, mini_synthetic_study):
        study = mini_synthetic_study
        cond = CONDITIONS[0]
        best = study.best_pass(cond, "small", "pla")
        values = [r.best_value for r in study.passes(cond, "small", "pla")]
        assert best.best_value == max(values)

    def test_small_homogeneous_strategies_comparable(self, mini_synthetic_study):
        """Paper F4.1: on the small balanced topology no strategy wins big."""
        cond = CONDITIONS[0]
        means = {
            s: mini_synthetic_study.best_pass(cond, "small", s).rerun_summary()[0]
            for s in ("pla", "ipla")
        }
        assert means["ipla"] < 1.6 * means["pla"]

    def test_medium_homogeneous_informed_dominates(self, mini_synthetic_study):
        """Paper F4.1: ipla dominates for medium."""
        cond = CONDITIONS[0]
        ipla = mini_synthetic_study.best_pass(cond, "medium", "ipla")
        pla = mini_synthetic_study.best_pass(cond, "medium", "pla")
        assert ipla.rerun_summary()[0] > 1.15 * pla.rerun_summary()[0]

    def test_figure4_builder(self, mini_synthetic_study):
        data = figures.figure4_throughput(mini_synthetic_study)
        assert len(data.rows) == 12
        for row in data.rows:
            assert row["min"] <= row["tuples/s"] <= row["max"]

    def test_figure5_builder(self, mini_synthetic_study):
        data = figures.figure5_convergence(mini_synthetic_study)
        for row in data.rows:
            assert 1 <= row["min"] <= row["steps(avg)"] <= row["max"]

    def test_figure6_builder(self, mini_synthetic_study):
        data = figures.figure6_loess_traces(mini_synthetic_study)
        assert len(data.series) == 4  # 2 conditions x 2 sizes
        for xs, ys in data.series.values():
            assert len(xs) == len(ys) > 0

    def test_figure7_builder(self, mini_synthetic_study):
        data = figures.figure7_step_time(mini_synthetic_study)
        by_strategy: dict[str, list[float]] = {}
        for row in data.rows:
            by_strategy.setdefault(str(row["Strategy"]), []).append(
                float(row["seconds(avg)"])
            )
        # pla steps are essentially instantaneous; bo pays for the GP.
        assert max(by_strategy["pla"]) < 0.02
        assert max(by_strategy["bo"]) > max(by_strategy["pla"])

    def test_cell_metadata(self):
        spec = SyntheticCellSpec(
            size="small",
            condition=TopologyCondition(0.0, 0.0),
            strategy="pla",
            budget=quick_budget(),
        )
        results = run_cell(spec)
        assert results[0].metadata["size"] == "small"
        assert "Contentious" in results[0].metadata["condition"]

    @pytest.mark.parametrize("strategy", ["pla", "bo"])
    def test_thread_loop_replays_the_serial_loop(self, strategy, tmp_path):
        """``loop_workers=2`` runs the cell on the thread backend and
        observes exactly what the serial loop observes."""
        from repro.core.checkpoint import canonical_history

        budget = Budget(
            steps=6, steps_extended=6, baseline_steps=6, passes=1, repeat_best=2
        )

        def run(loop_workers: int) -> list:
            spec = SyntheticCellSpec(
                size="small",
                condition=CONDITIONS[0],
                strategy=strategy,
                budget=budget,
                loop_workers=loop_workers,
                batch_size=1,
                # Both runs checkpoint, so both draw per-evaluation seeds.
                checkpoint_dir=str(tmp_path / f"workers{loop_workers}"),
            )
            return run_cell(spec)

        serial, threaded = run(1), run(2)
        assert [r.metadata["executor"] for r in serial] == ["serial"]
        assert [r.metadata["executor"] for r in threaded] == ["thread"]
        assert [canonical_history(r.observations) for r in threaded] == [
            canonical_history(r.observations) for r in serial
        ]

    def test_unknown_strategy_rejected(self):
        spec = SyntheticCellSpec(
            size="small",
            condition=TopologyCondition(0.0, 0.0),
            strategy="magic",
            budget=quick_budget(),
        )
        with pytest.raises(ValueError):
            run_cell(spec)


class TestSundogStudy:
    def test_arms_present(self, mini_sundog_study):
        assert set(mini_sundog_study.results) == {
            ("pla", "h"),
            ("bo", "h"),
            ("bo", "h bs bp"),
        }

    def test_batch_tuning_beats_hints_only(self, mini_sundog_study):
        """Paper F8: adding bs+bp beats hint-only tuning clearly."""
        hints_only = mini_sundog_study.best_pass("pla", "h").rerun_summary()[0]
        batch_tuned = mini_sundog_study.best_pass("bo", "h bs bp").rerun_summary()[0]
        assert batch_tuned > 1.3 * hints_only

    def test_figure8a_builder(self, mini_sundog_study):
        data = figures.figure8a_sundog_throughput(mini_sundog_study)
        assert len(data.rows) == 3
        for row in data.rows:
            assert row["min"] <= row["mil tuples/s"] <= row["max"]

    def test_figure8b_builder(self, mini_sundog_study):
        data = figures.figure8b_sundog_convergence(mini_sundog_study)
        assert "pla.h" in data.series
        for xs, ys in data.series.values():
            assert ys == sorted(ys)  # best-so-far is monotone

    def test_speedup_metric(self, mini_sundog_study):
        speedup = figures.speedup_over_pla(mini_sundog_study)
        assert speedup > 1.3

    def test_t_tests_reported(self, mini_sundog_study):
        notes = figures.sundog_t_tests(mini_sundog_study)
        assert any("pla.h vs bo.h" in n for n in notes)

    def test_pla_only_searches_hints(self):
        spec = SundogArmSpec(
            strategy="pla", param_set="h bs bp", budget=quick_budget()
        )
        with pytest.raises(ValueError):
            run_cell(spec)

    @pytest.mark.parametrize(
        "strategy, param_set",
        [("rs", "h"), ("ipla", "h"), ("magic", "h"), ("bo", "h bs")],
    )
    def test_unknown_strategy_or_param_set_rejected(self, strategy, param_set):
        spec = SundogArmSpec(
            strategy=strategy, param_set=param_set, budget=quick_budget()
        )
        with pytest.raises(ValueError, match="unknown sundog"):
            run_cell(spec)


class TestReportRendering:
    def test_render_table(self):
        rows = [{"a": 1, "b": "xy"}, {"a": 22, "b": "z"}]
        text = render_table(rows)
        assert "a" in text and "22" in text
        assert render_table([]) == "(no rows)"

    def test_render_bars(self):
        rows = [
            {"name": "x", "v": 10.0},
            {"name": "y", "v": 5.0},
        ]
        text = render_bars(rows, value_key="v", label_keys=["name"])
        lines = text.splitlines()
        assert lines[0].count("#") > lines[1].count("#")

    def test_render_series(self):
        text = render_series({"t": ([1.0, 2.0, 3.0], [1.0, 4.0, 9.0])})
        assert "o = t" in text

    def test_render_figure(self, mini_synthetic_study):
        data = figures.figure4_throughput(mini_synthetic_study)
        text = render_figure(data)
        assert data.exhibit in text


class TestCli:
    def test_static_exhibits(self, capsys):
        from repro.cli import main

        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "Table II" in out and "small" in out

    def test_fig3(self, capsys):
        from repro.cli import main

        assert main(["fig3"]) == 0
        assert "Figure 3" in capsys.readouterr().out


class TestBudget:
    def test_validation(self):
        with pytest.raises(ValueError):
            Budget(steps=0)
        with pytest.raises(ValueError):
            Budget(steps=10, steps_extended=5)
        with pytest.raises(ValueError):
            Budget(passes=0)
        with pytest.raises(ValueError):
            Budget(repeat_best=1)

    def test_default_budget_env_switch(self, monkeypatch):
        from repro.experiments.presets import default_budget, full_budget

        monkeypatch.setenv("REPRO_FULL", "1")
        assert default_budget() == full_budget()
        monkeypatch.setenv("REPRO_FULL", "0")
        assert default_budget() != full_budget()
