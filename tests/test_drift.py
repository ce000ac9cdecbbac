"""Workload drift: schedules, detection, and continuous tuning.

Covers the drift subsystem end to end (docs/DRIFT.md): time-varying
workload schedules evaluated bit-identically by both analytic engines,
the Page-Hinkley detector over incumbent re-measurements, the
trust-region / stale-observation re-tune machinery on the optimizer,
and the epoch-structured :class:`ContinuousTuningLoop` — including
crash-and-resume determinism across a drift event.
"""

from __future__ import annotations

import contextlib
import json
import math

import numpy as np
import pytest

from repro.core.checkpoint import canonical_history
from repro.core.continuous import (
    SIDECAR_VERSION,
    STATE_NAME,
    ContinuousTuningLoop,
)
from repro.core.drift import PageHinkleyDetector
from repro.core.optimizer import BayesianOptimizer
from repro.core.parameters import (
    FloatParameter,
    IntParameter,
    ParameterSpace,
)
from repro.experiments.presets import SYNTHETIC_BASE_CONFIG, default_cluster
from repro.storm.analytic import AnalyticPerformanceModel
from repro.storm.schedule import (
    ConstantSchedule,
    DiurnalSchedule,
    FlashCrowdSchedule,
    SkewShiftSchedule,
    WorkloadPoint,
)
from repro.storm.spaces import ParallelismCodec
from repro.store import open_store
from repro.topology_gen.suite import make_topology


# ----------------------------------------------------------------------
# Schedules
# ----------------------------------------------------------------------
class TestSchedules:
    def test_point_validation(self):
        with pytest.raises(ValueError):
            WorkloadPoint(load=0.0)
        with pytest.raises(ValueError):
            WorkloadPoint(skew=1.0)
        assert WorkloadPoint().is_baseline
        assert not WorkloadPoint(load=1.5).is_baseline

    def test_constant_schedule(self):
        sched = ConstantSchedule(WorkloadPoint(load=1.3, skew=0.2))
        assert sched.at(0.0) == sched.at(9_999.0)
        assert sched.at(5.0).load == 1.3

    def test_diurnal_trough_at_zero_and_period(self):
        sched = DiurnalSchedule(period_s=1_000.0, amplitude=0.4)
        assert sched.at(0.0).load == pytest.approx(0.6)
        assert sched.at(250.0).load == pytest.approx(1.0)
        assert sched.at(500.0).load == pytest.approx(1.4)
        assert sched.at(0.0).load == pytest.approx(sched.at(1_000.0).load)

    def test_flash_step_and_decay(self):
        step = FlashCrowdSchedule(onset_s=100.0, flash_load=1.8)
        assert step.at(99.9).load == 1.0
        assert step.at(100.0).load == 1.8
        assert step.at(1e6).load == 1.8
        decay = FlashCrowdSchedule(onset_s=100.0, flash_load=1.8, decay_s=50.0)
        assert decay.at(100.0).load == pytest.approx(1.8)
        assert 1.0 < decay.at(200.0).load < 1.8
        assert decay.at(1e6).load == pytest.approx(1.0)

    def test_skew_ramp(self):
        sched = SkewShiftSchedule(
            ramp_start_s=100.0, ramp_end_s=300.0, final_skew=0.5
        )
        assert sched.at(0.0).skew == 0.0
        assert sched.at(200.0).skew == pytest.approx(0.25)
        assert sched.at(300.0).skew == 0.5
        assert sched.at(1e9).skew == 0.5

    def test_purity(self):
        """`at` must be a pure function of t (resume determinism)."""
        for sched in (
            DiurnalSchedule(period_s=4_800.0, amplitude=0.5),
            FlashCrowdSchedule(onset_s=1_500.0, flash_load=1.7),
            SkewShiftSchedule(ramp_start_s=1_200.0, ramp_end_s=1_800.0),
        ):
            for t in (0.0, 777.3, 1_500.0, 9_001.0):
                assert sched.at(t) == sched.at(t)


class TestScheduledEnginesBitExact:
    """Scalar and batch engines agree bit-for-bit under schedules."""

    @pytest.mark.parametrize(
        "schedule",
        [
            DiurnalSchedule(period_s=4_800.0, amplitude=0.5),
            FlashCrowdSchedule(onset_s=1_500.0, flash_load=1.7),
            SkewShiftSchedule(
                ramp_start_s=1_200.0, ramp_end_s=1_800.0, final_skew=0.5
            ),
        ],
        ids=["diurnal", "flash", "skew"],
    )
    def test_scalar_vs_batch(self, schedule):
        topology = make_topology("small")
        cluster = default_cluster()
        codec = ParallelismCodec(topology, cluster, SYNTHETIC_BASE_CONFIG)
        model = AnalyticPerformanceModel(topology, cluster, schedule=schedule)
        rng = np.random.default_rng(11)
        points = codec.space.latin_hypercube(12, rng)
        configs = [
            codec.decode(codec.space.decode(np.asarray(p)))
            for p in codec.space.round_trip_batch(points)
        ]
        for t in (0.0, 600.0, 1_500.0, 2_400.0):
            scalar = [
                model.evaluate_noise_free(c, workload_time_s=t)
                for c in configs
            ]
            batched = model.evaluate_noise_free_batch(
                configs, workload_time_s=t
            )
            assert scalar == batched

    def test_schedule_actually_changes_the_surface(self):
        topology = make_topology("small")
        cluster = default_cluster()
        codec = ParallelismCodec(topology, cluster, SYNTHETIC_BASE_CONFIG)
        schedule = FlashCrowdSchedule(onset_s=1_500.0, flash_load=1.7)
        model = AnalyticPerformanceModel(topology, cluster, schedule=schedule)
        rng = np.random.default_rng(3)
        config = codec.decode(
            codec.space.decode(
                np.asarray(codec.space.latin_hypercube(1, rng)[0])
            )
        )
        before = model.evaluate_noise_free(config, workload_time_s=0.0)
        after = model.evaluate_noise_free(config, workload_time_s=2_000.0)
        if not (before.failed or after.failed):
            assert before.throughput_tps != after.throughput_tps


# ----------------------------------------------------------------------
# Page-Hinkley detector
# ----------------------------------------------------------------------
class TestPageHinkley:
    def test_stable_series_never_fires(self):
        det = PageHinkleyDetector()
        assert not any(det.update(100.0) for _ in range(50))

    def test_detects_collapse(self):
        det = PageHinkleyDetector()
        det.update(100.0)
        det.update(100.0)
        assert det.update(60.0)
        assert det.n_detections == 1

    def test_two_sided_detects_surge(self):
        det = PageHinkleyDetector()
        det.update(100.0)
        det.update(100.0)
        assert det.update(150.0)

    def test_min_samples_gate(self):
        det = PageHinkleyDetector(min_samples=3)
        assert not det.update(100.0)
        assert not det.update(0.0)  # would fire, but only 2 samples
        assert det.update(0.0)

    def test_scale_free(self):
        """Relative deviations: same series ×1000 → same statistic."""
        series = [100.0, 104.0, 98.0, 101.0, 80.0, 70.0]
        a = PageHinkleyDetector()
        b = PageHinkleyDetector()
        for v in series:
            a.update(v)
            b.update(v * 1_000.0)
        assert a.statistic == pytest.approx(b.statistic, rel=1e-12)

    def test_non_finite_rejected(self):
        det = PageHinkleyDetector()
        with pytest.raises(ValueError):
            det.update(math.nan)
        with pytest.raises(ValueError):
            det.update(math.inf)

    def test_reset_rearms(self):
        det = PageHinkleyDetector()
        det.update(100.0)
        det.update(100.0)
        assert det.update(50.0)
        det.reset()
        assert det.n_samples == 0
        assert det.statistic == 0.0
        assert not det.update(50.0)  # new series, new reference

    def test_state_roundtrip_mid_stream(self):
        series = [100.0, 103.0, 97.0, 95.0, 70.0, 60.0, 55.0]
        a = PageHinkleyDetector(delta=0.03, threshold=0.3)
        for v in series[:4]:
            a.update(v)
        b = PageHinkleyDetector.from_state_dict(a.state_dict())
        for v in series[4:]:
            assert a.update(v) == b.update(v)
        assert a.statistic == b.statistic
        assert a.n_detections == b.n_detections

    def test_state_is_pure_json(self):
        det = PageHinkleyDetector()
        det.update(10.0)
        det.update(5.0)
        json.dumps(det.state_dict())  # must not raise

    def test_validation(self):
        with pytest.raises(ValueError):
            PageHinkleyDetector(delta=-0.1)
        with pytest.raises(ValueError):
            PageHinkleyDetector(threshold=0.0)
        with pytest.raises(ValueError):
            PageHinkleyDetector(min_samples=0)


# ----------------------------------------------------------------------
# Optimizer re-tune machinery
# ----------------------------------------------------------------------
def _float_space():
    return ParameterSpace(
        [FloatParameter("x", 0.0, 1.0), FloatParameter("y", 0.0, 1.0)]
    )


def _parabola(params):
    x, y = float(params["x"]), float(params["y"])
    return 10.0 - (x - 0.5) ** 2 - (y - 0.5) ** 2


class TestRetuneFromIncumbent:
    def _seeded(self, n=6, seed=0):
        opt = BayesianOptimizer(_float_space(), seed=seed, init_points=3)
        for _ in range(n):
            config = opt.ask()
            opt.tell(config, _parabola(config))
        return opt

    def test_trust_region_confines_proposals(self):
        opt = self._seeded()
        incumbent = {"x": 0.5, "y": 0.5}
        opt.retune_from_incumbent(incumbent, trust_radius=0.1)
        center = opt.space.encode(incumbent)
        for _ in range(4):
            config = opt.ask()
            encoded = opt.space.encode(config)
            assert np.all(np.abs(encoded - center) <= 0.1 + 1e-9)
            opt.tell(config, _parabola(config))

    def test_stale_inflation_marks_old_observations(self):
        opt = self._seeded(n=5)
        opt.retune_from_incumbent({"x": 0.5, "y": 0.5}, stale_inflation=4.0)
        assert all(v == 4.0 for v in opt._stale_var)
        assert opt.telemetry["stale_observations"] == 5
        config = opt.ask()
        opt.tell(config, _parabola(config))
        assert opt._stale_var[-1] == 0.0  # fresh observation, full weight

    def test_repeated_retunes_compound(self):
        opt = self._seeded(n=4)
        opt.retune_from_incumbent({"x": 0.5, "y": 0.5}, stale_inflation=2.0)
        opt.retune_from_incumbent({"x": 0.5, "y": 0.5}, stale_inflation=2.0)
        assert all(v == 4.0 for v in opt._stale_var)

    def test_none_radius_skips_the_box(self):
        opt = self._seeded()
        opt.retune_from_incumbent(
            {"x": 0.5, "y": 0.5}, trust_radius=None, stale_inflation=4.0
        )
        assert opt.acq.trust_region is None
        assert all(v == 4.0 for v in opt._stale_var)

    def test_clear_trust_region(self):
        opt = self._seeded()
        opt.retune_from_incumbent({"x": 0.5, "y": 0.5}, trust_radius=0.1)
        assert opt.acq.trust_region is not None
        opt.clear_trust_region()
        assert opt.acq.trust_region is None
        assert opt.telemetry["trust_radius"] is None

    def test_validation(self):
        opt = self._seeded(n=3)
        with pytest.raises(ValueError):
            opt.retune_from_incumbent({"x": 0.5, "y": 0.5}, trust_radius=0.0)
        with pytest.raises(ValueError):
            opt.retune_from_incumbent(
                {"x": 0.5, "y": 0.5}, stale_inflation=-1.0
            )

    def test_state_roundtrip_preserves_retune(self):
        opt = self._seeded()
        opt.retune_from_incumbent({"x": 0.5, "y": 0.5}, trust_radius=0.12)
        clone = BayesianOptimizer.from_state_dict(opt.state_dict())
        assert clone._stale_var == opt._stale_var
        assert clone.acq.trust_region is not None
        center, radius = clone.acq.trust_region
        assert radius == 0.12
        assert np.array_equal(center, opt.space.encode({"x": 0.5, "y": 0.5}))
        assert clone.ask() == opt.ask()


# ----------------------------------------------------------------------
# Continuous tuning loop
# ----------------------------------------------------------------------
class DriftingParabola:
    """Deterministic 2-D objective whose ceiling collapses at t >= drop_at.

    Plain-callable objective with the ``set_workload_time`` hook the
    loop looks for; no noise, so runs are exactly reproducible.  Lives
    on an integer grid: byte-identity claims need proposals that
    survive an optimizer state round-trip, and integer rounding absorbs
    the ~1e-14 posterior difference between incremental updates and a
    from-scratch refresh that continuous coordinates would expose.
    """

    def __init__(self, drop_at_s: float = 1_000.0):
        self.t = 0.0
        self.drop_at_s = float(drop_at_s)

    def set_workload_time(self, t_s: float) -> None:
        self.t = float(t_s)

    def __call__(self, params):
        scale = 100.0 if self.t < self.drop_at_s else 40.0
        return scale * (1.0 - _dist2(params))


def _dist2(params) -> float:
    x = float(params["x"]) / 100.0
    y = float(params["y"]) / 100.0
    return (x - 0.5) ** 2 + (y - 0.5) ** 2


def _grid_space():
    return ParameterSpace(
        [IntParameter("x", 0, 100), IntParameter("y", 0, 100)]
    )


def _make_optimizer(seed):
    return BayesianOptimizer(_grid_space(), seed=seed, init_points=3)


def _loop(objective, *, mode="continuous", epochs=4, seed=5, **kwargs):
    return ContinuousTuningLoop(
        objective,
        _make_optimizer,
        epochs=epochs,
        epoch_duration_s=600.0,
        steps_per_epoch=4,
        initial_steps=6,
        mode=mode,
        seed=seed,
        **kwargs,
    )


@pytest.fixture
def stores(tmp_path):
    """``stores(name)`` opens ``tmp_path/name/store.db``; every handle
    closes at teardown."""
    with contextlib.ExitStack() as stack:
        yield lambda name: stack.enter_context(open_store(tmp_path / name))


class TestContinuousTuningLoop:
    def test_detects_the_drop_and_retunes(self):
        result = _loop(DriftingParabola(drop_at_s=1_000.0)).run()
        # Monitors run at t=600 (pre-drop) and t=1200/1800 (post-drop):
        # exactly one detection, at epoch 2, answered by a re-tune.
        assert result.detections == [2]
        assert result.epochs[2].retuned
        assert not result.epochs[2].restarted
        assert result.metadata["n_detections"] == 1

    def test_no_detection_without_drift(self):
        result = _loop(DriftingParabola(drop_at_s=1e9)).run()
        assert result.detections == []
        assert all(not rec.drift_detected for rec in result.epochs)

    def test_cold_mode_restarts(self):
        result = _loop(DriftingParabola(drop_at_s=1_000.0), mode="cold").run()
        assert result.detections == [2]
        assert result.epochs[2].restarted
        assert not result.epochs[2].retuned

    def test_observations_renumbered_globally(self):
        result = _loop(DriftingParabola(drop_at_s=1_000.0)).run()
        assert [obs.step for obs in result.observations] == list(
            range(len(result.observations))
        )
        assert result.n_steps == 6 + 3 * 4

    def test_same_seed_is_deterministic(self):
        a = _loop(DriftingParabola()).run()
        b = _loop(DriftingParabola()).run()
        assert canonical_history(a.observations) == canonical_history(
            b.observations
        )
        assert a.detections == b.detections

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            _loop(DriftingParabola(), mode="lukewarm")

    def test_epoch_boundary_resume_is_byte_identical(self, stores):
        full = _loop(DriftingParabola(), store=stores("a")).run()
        _loop(DriftingParabola(), epochs=2, store=stores("b")).run()
        resumed = _loop(DriftingParabola(), store=stores("b")).run()
        assert resumed.metadata["resumed_epochs"] == 2
        assert canonical_history(resumed.observations) == canonical_history(
            full.observations
        )
        assert resumed.detections == full.detections

    def test_mid_epoch_crash_resume_is_byte_identical(self, stores):
        """A crash *after* the drift detection, mid-epoch, resumes
        exactly — the drift-path determinism acceptance criterion."""
        full = _loop(DriftingParabola(), store=stores("a")).run()

        class Crashing(DriftingParabola):
            def __init__(self):
                super().__init__()
                self.calls = 0

            def __call__(self, params):
                self.calls += 1
                # e0: 6 obs; boundary monitor; e1: 4 obs; monitor
                # (detects at t=1200); crash lands on the 3rd
                # observation of post-drift epoch 2.
                if self.calls > 14:
                    raise RuntimeError("injected mid-epoch crash")
                return super().__call__(params)

        with pytest.raises(RuntimeError, match="injected"):
            _loop(Crashing(), store=stores("b")).run()
        resumed = _loop(DriftingParabola(), store=stores("b")).run()
        assert canonical_history(resumed.observations) == canonical_history(
            full.observations
        )
        assert resumed.detections == full.detections

    def test_finished_campaign_saves_its_results(self, stores):
        """A finished campaign reads "done" in the store, and running it
        again measures nothing."""
        store = stores("s")
        full = _loop(DriftingParabola(), store=store).run()
        (saved,) = store.load_results("continuous", "")
        assert canonical_history(saved.observations) == canonical_history(
            full.observations
        )

        class Counting(DriftingParabola):
            calls = 0

            def __call__(self, params):
                Counting.calls += 1
                return super().__call__(params)

        again = _loop(Counting(), store=store).run()
        assert Counting.calls == 0
        assert again.metadata["resumed_epochs"] == 4
        assert store.has_results("continuous", "")

    def test_sidecar_mode_mismatch_raises(self, stores):
        store = stores("s")
        _loop(DriftingParabola(), store=store).run()
        with pytest.raises(ValueError, match="mode"):
            _loop(DriftingParabola(), mode="cold", store=store).run()

    def test_sidecar_version_mismatch_starts_fresh(self, stores):
        store = stores("s")
        _loop(DriftingParabola(), epochs=2, store=store).run()
        data = store.load_state("continuous", "", STATE_NAME)
        assert data["version"] == SIDECAR_VERSION
        data["version"] = 99
        store.save_state("continuous", "", STATE_NAME, data)
        resumed = _loop(DriftingParabola(), store=store).run()
        assert resumed.metadata["resumed_epochs"] == 0

    def test_sticky_incumbent_ignores_own_improvements(self):
        """Tuning progress (a better incumbent) must not read as drift:
        adoption restarts the monitor series."""
        result = _loop(DriftingParabola(drop_at_s=1e9), epochs=6).run()
        assert result.detections == []
        assert any(rec.adopted for rec in result.epochs)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            _loop(DriftingParabola(), epochs=0)
        with pytest.raises(ValueError):
            ContinuousTuningLoop(
                DriftingParabola(), _make_optimizer, epoch_duration_s=0.0
            )
        with pytest.raises(ValueError):
            ContinuousTuningLoop(
                DriftingParabola(), _make_optimizer, steps_per_epoch=0
            )
