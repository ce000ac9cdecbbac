"""Cross-cutting coverage: package surface, misc behaviours."""

from __future__ import annotations

import pytest


class TestPackageSurface:
    def test_version(self):
        import repro

        assert repro.__version__

    def test_core_all_exports_resolve(self):
        import repro.core as core

        for name in core.__all__:
            assert getattr(core, name) is not None

    def test_storm_all_exports_resolve(self):
        import repro.storm as storm

        for name in storm.__all__:
            assert getattr(storm, name) is not None

    def test_topology_gen_all_exports_resolve(self):
        import repro.topology_gen as tg

        for name in tg.__all__:
            assert getattr(tg, name) is not None

    def test_stats_all_exports_resolve(self):
        import repro.stats as stats

        for name in stats.__all__:
            assert getattr(stats, name) is not None


class TestOptimizerVariants:
    def make_space(self):
        from repro.core.parameters import FloatParameter, ParameterSpace

        return ParameterSpace(
            [FloatParameter("x", 0, 1), FloatParameter("y", 0, 1)]
        )

    @pytest.mark.parametrize("acquisition", ["ei", "pi", "ucb"])
    def test_all_acquisitions_optimize(self, acquisition):
        from repro.core.optimizer import BayesianOptimizer

        opt = BayesianOptimizer(self.make_space(), acquisition=acquisition, seed=1)
        best = float("-inf")
        for _ in range(15):
            c = opt.ask()
            v = -((c["x"] - 0.5) ** 2 + (c["y"] - 0.5) ** 2)
            opt.tell(c, v)
            best = max(best, v)
        assert best > -0.1

    @pytest.mark.parametrize("kernel", ["rbf", "matern32", "matern52"])
    def test_all_kernels_optimize(self, kernel):
        from repro.core.optimizer import BayesianOptimizer

        opt = BayesianOptimizer(self.make_space(), kernel=kernel, seed=1)
        for _ in range(8):
            c = opt.ask()
            opt.tell(c, float(c["x"]))
        _, best = opt.best()
        assert best > 0.3

    def test_ard_auto_selection_by_dimension(self):
        from repro.core.optimizer import BayesianOptimizer
        from repro.core.parameters import IntParameter, ParameterSpace

        small_space = ParameterSpace([IntParameter(f"p{i}", 1, 4) for i in range(5)])
        big_space = ParameterSpace([IntParameter(f"p{i}", 1, 4) for i in range(40)])
        assert BayesianOptimizer(small_space).gp.kernel.ard
        assert not BayesianOptimizer(big_space).gp.kernel.ard

    def test_refit_every_controls_hyperparameter_updates(self):
        from repro.core.optimizer import BayesianOptimizer

        opt = BayesianOptimizer(self.make_space(), refit_every=5, seed=0)
        for _ in range(12):
            c = opt.ask()
            opt.tell(c, float(c["x"]) + float(c["y"]))
        assert opt.gp.is_fitted


class TestMeasuredRun:
    def test_failure_constructor(self):
        from repro.storm.metrics import MeasuredRun

        run = MeasuredRun.failure("boom", total_tasks=7)
        assert run.failed and run.throughput_tps == 0.0
        assert run.total_tasks == 7

    def test_failed_with_nonzero_throughput_rejected(self):
        from repro.storm.metrics import MeasuredRun

        with pytest.raises(ValueError):
            MeasuredRun(throughput_tps=5.0, failed=True)

    def test_with_throughput_clamps_negative(self):
        from repro.storm.metrics import MeasuredRun

        run = MeasuredRun(throughput_tps=10.0)
        assert run.with_throughput(-3.0).throughput_tps == 0.0

    def test_negative_throughput_rejected(self):
        from repro.storm.metrics import MeasuredRun

        with pytest.raises(ValueError):
            MeasuredRun(throughput_tps=-1.0)


class TestCapacityBreakdown:
    def test_limiting_picks_minimum(self):
        from repro.storm.analytic import CapacityBreakdown

        caps = CapacityBreakdown(
            pipeline_fill=100.0,
            bottleneck_stage=50.0,
            cpu_saturation=75.0,
            acker=float("inf"),
            receiver=float("inf"),
            nic=float("inf"),
        )
        name, value = caps.limiting()
        assert name == "bottleneck_stage"
        assert value == 50.0


class TestCalibrationValidation:
    def test_rejects_bad_values(self):
        from repro.storm.analytic import CalibrationParams

        with pytest.raises(ValueError):
            CalibrationParams(batch_overhead_ms=-1)
        with pytest.raises(ValueError):
            CalibrationParams(context_switch_kappa=-0.1)
        with pytest.raises(ValueError):
            CalibrationParams(receiver_tuples_per_ms=0)
        with pytest.raises(ValueError):
            CalibrationParams(usable_memory_fraction=0.0)
