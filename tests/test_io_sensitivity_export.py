"""Topology I/O, sensitivity analysis, and study export."""

from __future__ import annotations

import pytest

from repro.experiments.export import (
    load_study,
    save_study,
    sundog_study_from_dict,
    synthetic_study_from_dict,
)
from repro.experiments.presets import Budget
from repro.experiments.runner import SundogStudy, SyntheticStudy
from repro.storm.cluster import small_test_cluster
from repro.storm.config import TopologyConfig
from repro.storm.sensitivity import (
    SensitivityAnalyzer,
    default_sweep_values,
)
from repro.storm.topology_io import (
    load_topology,
    save_topology,
    topology_from_dict,
    topology_to_dict,
)
from repro.sundog import sundog_topology
from repro.topology_gen.suite import CONDITIONS, make_topology


class TestTopologyIO:
    def test_roundtrip_generated_topology(self, tmp_path):
        topo = make_topology("small", CONDITIONS[3])
        path = tmp_path / "topo.json"
        save_topology(topo, path)
        again = load_topology(path)
        assert again.name == topo.name
        assert again.topological_order() == topo.topological_order()
        assert again.edges == topo.edges
        for name in topo:
            a, b = topo.operator(name), again.operator(name)
            assert a.cost == b.cost
            assert a.contentious == b.contentious
            assert a.selectivity == b.selectivity

    def test_roundtrip_sundog(self):
        topo = sundog_topology()
        again = topology_from_dict(topology_to_dict(topo))
        assert again.volumes() == topo.volumes()
        assert again.total_compute_units_per_tuple() == pytest.approx(
            topo.total_compute_units_per_tuple()
        )

    def test_loaded_topology_is_validated(self):
        data = topology_to_dict(sundog_topology())
        data["edges"].append({"src": "R1", "dst": "HDFS1"})  # type: ignore[union-attr]
        with pytest.raises(Exception):
            topology_from_dict(data)

    def test_defaults_applied_for_missing_fields(self):
        data = {
            "name": "tiny",
            "operators": [
                {"name": "s", "kind": "spout"},
                {"name": "b", "kind": "bolt"},
            ],
            "edges": [{"src": "s", "dst": "b"}],
        }
        topo = topology_from_dict(data)
        assert topo.operator("b").cost == 20.0
        assert topo.operator("b").selectivity == 1.0


class TestSensitivity:
    @pytest.fixture
    def analyzer(self):
        cluster = small_test_cluster()
        topo = make_topology("small")
        base = TopologyConfig(
            parallelism_hints={n: 4 for n in topo},
            batch_size=100,
            batch_parallelism=8,
            ackers=4,
            num_workers=4,
        )
        return SensitivityAnalyzer(topo, cluster, base)

    def test_sweep_records_all_points(self, analyzer):
        sweep = analyzer.sweep("batch_parallelism", [1, 2, 4, 8])
        assert [p.value for p in sweep.points] == [1, 2, 4, 8]
        assert sweep.base_value == 8
        assert all(p.throughput_tps >= 0 for p in sweep.points)

    def test_batch_parallelism_is_monotone_here(self, analyzer):
        sweep = analyzer.sweep("batch_parallelism", [1, 4, 16])
        values = [p.throughput_tps for p in sweep.points]
        assert values == sorted(values)

    def test_uniform_hint_sweep(self, analyzer):
        sweep = analyzer.sweep("uniform_hint", [1, 4])
        assert sweep.points[1].throughput_tps > sweep.points[0].throughput_tps

    def test_unknown_parameter_rejected(self, analyzer):
        with pytest.raises(ValueError):
            analyzer.sweep("warp_factor", [1, 2])

    def test_dynamic_range(self, analyzer):
        # On the 16-core test cluster the CPU cap limits the spread, but
        # bp=1 is clearly pipeline-starved relative to bp=16.
        sweep = analyzer.sweep("batch_parallelism", [1, 16])
        assert sweep.dynamic_range() > 1.1
        assert sweep.best().value == 16

    def test_interaction_detects_dependence(self):
        cluster = small_test_cluster()
        topo = sundog_topology()
        base = TopologyConfig(
            parallelism_hints={n: 4 for n in topo},
            batch_size=5_000,
            batch_parallelism=2,
            ackers=4,
            num_workers=4,
        )
        analyzer = SensitivityAnalyzer(topo, cluster, base)
        factor = analyzer.interaction(
            "batch_size", 50_000, "batch_parallelism", 8
        )
        assert factor != pytest.approx(1.0, abs=0.02)

    def test_default_sweep_values_cover_table1(self):
        values = default_sweep_values(small_test_cluster())
        assert set(values) == {
            "uniform_hint",
            "batch_size",
            "batch_parallelism",
            "worker_threads",
            "receiver_threads",
            "ackers",
        }

    def test_tornado_ranking(self, analyzer):
        ranked = analyzer.tornado(
            {"batch_parallelism": [1, 16], "receiver_threads": [1, 2]}
        )
        assert ranked[0][0] == "batch_parallelism"
        assert ranked[0][1] >= ranked[1][1]


@pytest.fixture(scope="module")
def tiny_budget():
    return Budget(
        steps=4, steps_extended=5, baseline_steps=6, passes=1, repeat_best=2
    )


class TestStudyExport:
    def test_synthetic_roundtrip(self, tmp_path, tiny_budget):
        study = SyntheticStudy(
            tiny_budget,
            conditions=[CONDITIONS[0]],
            sizes=["small"],
            strategies=["pla", "bo"],
        ).run()
        path = tmp_path / "synthetic.json"
        save_study(study, path)
        again = load_study(path)
        assert isinstance(again, SyntheticStudy)
        assert set(again.results) == set(study.results)
        for key in study.results:
            a = study.results[key][0]
            b = again.results[key][0]
            assert a.values() == b.values()
            assert a.best_rerun_values == b.best_rerun_values

    def test_sundog_roundtrip(self, tmp_path, tiny_budget):
        study = SundogStudy(tiny_budget, arms=[("pla", "h")]).run()
        path = tmp_path / "sundog.json"
        save_study(study, path)
        again = load_study(path)
        assert isinstance(again, SundogStudy)
        assert again.passes("pla", "h")[0].best_value == study.passes(
            "pla", "h"
        )[0].best_value

    def test_loaded_study_renders_figures(self, tmp_path, tiny_budget):
        from repro.experiments.figures import figure4_throughput

        study = SyntheticStudy(
            tiny_budget,
            conditions=[CONDITIONS[0]],
            sizes=["small"],
            strategies=["pla"],
        ).run()
        path = tmp_path / "s.json"
        save_study(study, path)
        again = load_study(path)
        data = figure4_throughput(again)  # type: ignore[arg-type]
        assert len(data.rows) == 1

    def test_export_carrying_fidelity_renders_with_load(
        self, tmp_path, tiny_budget, capsys
    ):
        """Exports written while studies had a fidelity option carry a
        ``fidelity`` key; ``--load`` still re-renders them."""
        import json

        from repro.cli import main

        study = SyntheticStudy(
            tiny_budget,
            conditions=[CONDITIONS[0]],
            sizes=["small"],
            strategies=["pla"],
        ).run()
        path = tmp_path / "synthetic.json"
        save_study(study, path)
        data = json.loads(path.read_text())
        assert "fidelity" not in data
        path.write_text(json.dumps({**data, "fidelity": "analytic"}, indent=1))
        assert main(["fig4", "--load", str(tmp_path), "-q"]) == 0
        assert "Figure 4" in capsys.readouterr().out

    def test_kind_mismatch_rejected(self):
        with pytest.raises(ValueError):
            synthetic_study_from_dict({"kind": "sundog"})
        with pytest.raises(ValueError):
            sundog_study_from_dict({"kind": "synthetic"})

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"kind": "mystery"}')
        with pytest.raises(ValueError):
            load_study(path)
