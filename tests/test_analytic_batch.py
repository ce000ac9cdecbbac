"""Batch analytic engine: bit-equivalence, faults, and the memo cache.

The vectorized :class:`~repro.storm.analytic_batch.AnalyticBatchModel`
is required to be *bit-compatible* with the scalar engine — equal
:class:`MeasuredRun` dataclasses, not just close throughputs — across
every bundled topology, contention condition, and failure regime.
These tests pin that contract (hypothesis-style over random
configurations), the fault/noise identity of
:meth:`StormObjective.measure_batch`, the bounded LRU memo cache,
the screener's one-model-per-deployment reuse, and the column-wise
``ConfigCodec.decode_batch`` -> ``ConfigBatch`` path the screener runs
on (equal to the per-row decode, with ``TopologyConfig``'s domain
errors).
"""

from __future__ import annotations

import dataclasses
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.loop import TuningLoop
from repro.core.parameters import FloatParameter, ParameterSpace
from repro.experiments.presets import SYNTHETIC_BASE_CONFIG, default_cluster
from repro.experiments.runner import make_synthetic_optimizer
from repro.storm.analytic import AnalyticPerformanceModel, CalibrationParams
from repro.storm.analytic_batch import (
    AnalyticBatchModel,
    _screener_model,
    make_analytic_screener,
)
from repro.storm.cluster import ClusterSpec, paper_cluster, small_test_cluster
from repro.storm.config import ConfigBatch, TopologyConfig
from repro.storm.faults import FaultPlan, FaultSpec
from repro.storm.noise import GaussianNoise
from repro.storm.objective import StormObjective
from repro.storm.spaces import (
    InformedMultiplierCodec,
    ParallelismCodec,
    SundogParameterCodec,
    UniformHintCodec,
)
from repro.sundog import sundog_default_config, sundog_topology
from repro.topology_gen.suite import CONDITIONS, make_topology


def random_config(topology, rng, *, n_workers: int, hint_max: int = 33):
    """One rng-driven configuration spanning feasible and infeasible."""
    return TopologyConfig(
        parallelism_hints={
            name: int(rng.integers(1, hint_max)) for name in topology
        },
        max_tasks=(
            int(rng.integers(len(list(topology)), 400))
            if rng.random() < 0.3
            else None
        ),
        batch_size=int(rng.integers(10, 50_001)),
        batch_parallelism=int(rng.integers(1, 65)),
        worker_threads=int(rng.integers(1, 17)),
        receiver_threads=int(rng.integers(1, 9)),
        ackers=int(rng.integers(0, 17)),
        num_workers=n_workers,
    )


#: (label, topology, cluster, calibration) cases covering every bundled
#: topology size, the contention/imbalance condition flags, and the
#: memory-cap edge regime (a huge batch timeout so memory failures are
#: not shadowed by latency failures on the tiny cluster).
MEMORY_EDGE_CAL = CalibrationParams(
    batch_timeout_ms=1e12, per_task_memory_mb=64.0
)


def _equivalence_cases():
    cases = []
    for size in ("small", "medium", "large"):
        for condition in CONDITIONS:
            cases.append(
                (
                    f"{size}/{condition.label}",
                    make_topology(size, condition),
                    paper_cluster(),
                    None,
                )
            )
    cases.append(("sundog", sundog_topology(), paper_cluster(), None))
    cases.append(
        (
            "small/memory-edge",
            make_topology("small"),
            small_test_cluster(),
            MEMORY_EDGE_CAL,
        )
    )
    cases.append(
        (
            "medium/contended/memory-edge",
            make_topology("medium", CONDITIONS[3]),
            small_test_cluster(),
            MEMORY_EDGE_CAL,
        )
    )
    return cases


EQUIVALENCE_CASES = _equivalence_cases()


class TestBatchScalarEquivalence:
    """Satellite (c): batch == scalar, as full dataclass equality."""

    @pytest.mark.parametrize(
        "label, topology, cluster, calibration",
        EQUIVALENCE_CASES,
        ids=[case[0] for case in EQUIVALENCE_CASES],
    )
    def test_runs_are_bit_identical(self, label, topology, cluster, calibration):
        model = AnalyticPerformanceModel(topology, cluster, calibration=calibration)
        rng = np.random.default_rng(hash(label) % 2**32)
        configs = [
            random_config(topology, rng, n_workers=cluster.n_machines)
            for _ in range(40)
        ]
        scalar = [model.evaluate_noise_free(c) for c in configs]
        batched = model.evaluate_noise_free_batch(configs)
        assert scalar == batched
        # Throughputs bit-identical, not merely approximately equal.
        batch = model.batch_model.evaluate(configs)
        for i, run in enumerate(scalar):
            assert run.throughput_tps == float(batch.throughput_tps[i])
            assert run.failed == bool(batch.failed[i])

    def test_failure_regimes_actually_exercised(self):
        """The sweep must cover ok + capacity/latency/memory failures,
        or the equivalence claim is weaker than it reads."""
        reasons: set[str] = set()
        ok = 0
        for label, topology, cluster, calibration in EQUIVALENCE_CASES:
            model = AnalyticPerformanceModel(
                topology, cluster, calibration=calibration
            )
            rng = np.random.default_rng(hash(label) % 2**32)
            configs = [
                random_config(topology, rng, n_workers=cluster.n_machines)
                for _ in range(40)
            ]
            for run in model.evaluate_noise_free_batch(configs):
                if run.failed:
                    reasons.add(run.failure_reason.split(":")[0])
                else:
                    ok += 1
        assert ok > 0
        assert any("memory" in r for r in reasons), reasons
        assert len(reasons) >= 2, reasons

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=50, deadline=None)
    def test_property_random_configs_match(self, seed):
        """Hypothesis sweep on the contended medium topology."""
        topology, cluster = _PROPERTY_CASE
        model = _property_model()
        rng = np.random.default_rng(seed)
        config = random_config(topology, rng, n_workers=cluster.n_machines)
        scalar = model.evaluate_noise_free(config)
        (batched,) = model.evaluate_noise_free_batch([config])
        assert scalar == batched

    def test_memory_cap_exactly_at_the_boundary(self):
        """budget == task_mb + data_mb: the strict `>` check must agree.

        ``small_test_cluster`` machines carry 4096 MB (a power of two),
        so ``usable_memory_fraction = usage / 4096`` makes the budget
        *exactly* equal to the usage in IEEE-754 — the batch engine must
        reproduce the scalar engine's comparison bitwise on both sides.
        """
        topology = make_topology("small")
        cluster = small_test_cluster()
        config = TopologyConfig(
            parallelism_hints={name: 4 for name in topology},
            batch_size=5_000,
            batch_parallelism=2,
            worker_threads=4,
            receiver_threads=2,
            ackers=4,
            num_workers=cluster.n_machines,
        )
        probe = AnalyticBatchModel(topology, cluster, MEMORY_EDGE_CAL).evaluate(
            [config]
        )
        usage = float(probe._task_mb[0] + probe._data_mb[0])
        assert 0.0 < usage <= 4096.0

        at_boundary = CalibrationParams(
            batch_timeout_ms=1e12,
            per_task_memory_mb=64.0,
            usable_memory_fraction=usage / 4096.0,
        )
        below = CalibrationParams(
            batch_timeout_ms=1e12,
            per_task_memory_mb=64.0,
            usable_memory_fraction=float(np.nextafter(usage, 0.0)) / 4096.0,
        )
        for cal, expect_failed in ((at_boundary, False), (below, True)):
            scalar = AnalyticPerformanceModel(topology, cluster, calibration=cal)
            evaluation = AnalyticBatchModel(topology, cluster, cal).evaluate(
                [config]
            )
            assert bool(evaluation.failed_memory[0]) is expect_failed
            assert evaluation.runs() == [scalar.evaluate_noise_free(config)]

    def test_empty_batch(self):
        model = _property_model()
        assert model.evaluate_noise_free_batch([]) == []
        batch = model.batch_model.evaluate([])
        assert batch.runs() == []


_PROPERTY_CASE = (make_topology("medium", CONDITIONS[3]), paper_cluster())
_PROPERTY_MODEL: list[AnalyticPerformanceModel] = []


def _property_model() -> AnalyticPerformanceModel:
    """One shared model so hypothesis examples reuse hoisted structures."""
    if not _PROPERTY_MODEL:
        _PROPERTY_MODEL.append(
            AnalyticPerformanceModel(_PROPERTY_CASE[0], _PROPERTY_CASE[1])
        )
    return _PROPERTY_MODEL[0]


def _objective(**kwargs) -> StormObjective:
    topology = make_topology("small")
    cluster = default_cluster()
    _, codec = make_synthetic_optimizer(
        "pla", topology, cluster, SYNTHETIC_BASE_CONFIG, 8, seed=0
    )
    return StormObjective(topology, cluster, codec, fidelity="analytic", **kwargs)


class TestMeasureBatch:
    """measure_batch == a serial loop of measure, by construction."""

    def test_matches_serial_measures(self):
        params = [{"uniform_hint": h} for h in range(1, 9)]
        serial = [_objective().measure(p) for p in params]
        batched = _objective().measure_batch(params)
        assert serial == batched

    def test_noise_and_seeds_replay_identically(self):
        params = [{"uniform_hint": h} for h in (2, 3, 2, 5)]
        seeds = [11, 22, 11, 44]
        a = _objective(noise=GaussianNoise(0.1), seed=5)
        b = _objective(noise=GaussianNoise(0.1), seed=5)
        serial = [a.measure(p, seed=s) for p, s in zip(params, seeds)]
        batched = b.measure_batch(params, seeds=seeds)
        assert serial == batched

    def test_fault_plan_respects_per_evaluation_identity(self):
        """Satellite (c): batch fault decisions replay the serial ones.

        Under an active :class:`FaultPlan` each evaluation's fault
        decision is a pure function of (plan seed, config, eval seed);
        a batch must reproduce the serial decisions row for row.
        """
        faults = FaultSpec.chaos(0.6, seed=3)
        params = [{"uniform_hint": h} for h in range(1, 11)]
        seeds = list(range(100, 110))
        a = _objective(faults=FaultPlan(faults), seed=9)
        b = _objective(faults=FaultPlan(faults), seed=9)
        serial = [a.measure(p, seed=s) for p, s in zip(params, seeds)]
        batched = b.measure_batch(params, seeds=seeds)
        assert serial == batched
        labels = {r.failure_reason for r in serial if r.failed}
        assert labels, "chaos plan at 0.6 should fault at least once"

    def test_duplicates_counted_as_serial_loop_would(self):
        objective = _objective()
        params = [{"uniform_hint": 2}] * 3 + [{"uniform_hint": 4}]
        runs = objective.measure_batch(params)
        assert runs[0] == runs[1] == runs[2]
        info = objective.cache_info()
        assert info["hits"] == 2 and info["misses"] == 2
        assert objective.n_engine_evaluations == 2

    def test_seed_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="seeds"):
            _objective().measure_batch([{"uniform_hint": 2}], seeds=[1, 2])

    def test_empty_batch(self):
        assert _objective().measure_batch([]) == []


class TestBoundedMemoCache:
    """Satellite (a): the memo cache is a bounded LRU."""

    def test_size_bound_and_eviction_count(self):
        objective = _objective(cache_max_entries=4)
        for h in range(1, 9):
            objective.measure({"uniform_hint": h})
        info = objective.cache_info()
        assert info["size"] == 4
        assert info["evictions"] == 4
        assert info["max_entries"] == 4

    def test_lru_order_keeps_recently_used(self):
        objective = _objective(cache_max_entries=2)
        objective.measure({"uniform_hint": 1})
        objective.measure({"uniform_hint": 2})
        objective.measure({"uniform_hint": 1})  # refresh 1
        objective.measure({"uniform_hint": 3})  # evicts 2, not 1
        hits_before = objective.cache_info()["hits"]
        objective.measure({"uniform_hint": 1})
        assert objective.cache_info()["hits"] == hits_before + 1
        assert objective.cache_info()["size"] == 2

    def test_unbounded_when_none(self):
        objective = _objective(cache_max_entries=None)
        for h in range(1, 9):
            objective.measure({"uniform_hint": h})
        info = objective.cache_info()
        assert info["size"] == 8
        assert info["evictions"] == 0
        assert info["max_entries"] is None

    @pytest.mark.parametrize("bad", [0, -1])
    def test_validation(self, bad):
        with pytest.raises(ValueError, match="cache_max_entries"):
            _objective(cache_max_entries=bad)

    def test_batch_path_shares_the_bound(self):
        objective = _objective(cache_max_entries=3)
        objective.measure_batch([{"uniform_hint": h} for h in range(1, 7)])
        info = objective.cache_info()
        assert info["size"] == 3
        assert info["evictions"] == 3

    def test_round_trips_through_pickle(self):
        objective = _objective(cache_max_entries=7)
        objective.measure({"uniform_hint": 2})
        revived = pickle.loads(pickle.dumps(objective))
        assert revived.cache_max_entries == 7
        assert revived.cache_info()["size"] == 1


class TestAnalyticScreener:
    """The BO candidate screener built on the batch model."""

    def test_mask_matches_scalar_feasibility(self):
        topology = make_topology("small")
        cluster = default_cluster()
        _, codec = make_synthetic_optimizer(
            "bo", topology, cluster, SYNTHETIC_BASE_CONFIG, 8, seed=0
        )
        screen = make_analytic_screener(codec, topology, cluster)
        model = AnalyticPerformanceModel(topology, cluster)
        rng = np.random.default_rng(0)
        candidates = rng.random((32, codec.space.dim))
        mask = screen(candidates)
        assert mask.shape == (32,) and mask.dtype == bool
        for row, keep in zip(candidates, mask):
            config = codec.decode(codec.space.decode(row))
            assert keep == (not model.evaluate_noise_free(config).failed)

    def test_wired_into_runner_bo_strategies(self):
        topology = make_topology("small")
        cluster = default_cluster()
        for strategy in ("bo", "ibo"):
            opt, _ = make_synthetic_optimizer(
                strategy,
                topology,
                cluster,
                SYNTHETIC_BASE_CONFIG,
                8,
                seed=0,
                fidelity="analytic",
            )
            assert opt.acq.screen is not None
            opt_plain, _ = make_synthetic_optimizer(
                strategy, topology, cluster, SYNTHETIC_BASE_CONFIG, 8, seed=0
            )
            assert opt_plain.acq.screen is None


class TestBatchModelDirect:
    """Shape/label contract of the array-valued pass."""

    def test_batch_evaluation_arrays(self):
        topology = make_topology("small")
        model = AnalyticBatchModel(topology, paper_cluster())
        rng = np.random.default_rng(7)
        configs = [
            random_config(topology, rng, n_workers=80) for _ in range(16)
        ]
        batch = model.evaluate(configs)
        assert batch.throughput_tps.shape == (16,)
        assert batch.failed.shape == (16,)
        assert np.all(batch.throughput_tps[batch.failed] == 0.0)
        scalar = AnalyticPerformanceModel(topology, paper_cluster())
        for i, config in enumerate(configs):
            run = scalar.evaluate_noise_free(config)
            if not run.failed:
                assert (
                    run.details["limiting_cap"] == batch.limiting_cap[i]
                )


class TestScreenerModelReuse:
    """Satellite regression: one AnalyticBatchModel per deployment."""

    def test_screeners_share_one_model_and_its_tables(self):
        topology = make_topology("small")
        cluster = default_cluster()
        _, codec = make_synthetic_optimizer(
            "bo", topology, cluster, SYNTHETIC_BASE_CONFIG, 8, seed=0
        )
        model = _screener_model(topology, cluster, None)
        assert _screener_model(topology, cluster, None) is model

        screen_one = make_analytic_screener(codec, topology, cluster)
        rng = np.random.default_rng(0)
        candidates = rng.random((16, codec.space.dim))
        screen_one(candidates)
        constructions = model.table_constructions
        assert constructions >= 1

        # A second screener for the same deployment must not rebuild
        # the grouping tables — same shared model, same table count.
        screen_two = make_analytic_screener(codec, topology, cluster)
        screen_two(candidates)
        assert _screener_model(topology, cluster, None) is model
        assert model.table_constructions == constructions

    def test_distinct_deployments_get_distinct_models(self):
        a = _screener_model(make_topology("small"), default_cluster(), None)
        b = _screener_model(make_topology("small"), default_cluster(), None)
        assert a is not b  # different objects are different cache keys


#: The paper cluster with a tight executor cap: screened pools then mix
#: feasible and infeasible rows on every bundled topology size.
TIGHT_CLUSTER = ClusterSpec(
    n_machines=80, machine=paper_cluster().machine, max_executors_per_worker=5
)


def _synthetic_codecs(topology, cluster):
    base = SYNTHETIC_BASE_CONFIG
    return {
        "parallelism": ParallelismCodec(topology, cluster, base),
        "parallelism-no-cap": ParallelismCodec(
            topology, cluster, base, include_max_tasks=False
        ),
        "uniform": UniformHintCodec(topology, cluster, base),
        "informed": InformedMultiplierCodec(topology, cluster, base),
    }


def _codec_cases():
    cases = []
    for size in ("small", "large"):
        topology = make_topology(size)
        for label, codec in _synthetic_codecs(topology, paper_cluster()).items():
            cases.append((f"{size}/{label}", codec))
    topology = sundog_topology()
    for include in (("h",), ("h", "bs", "bp", "cc"), ("bs", "bp", "cc")):
        codec = SundogParameterCodec(
            topology,
            paper_cluster(),
            sundog_default_config(),
            include=include,
            fixed_hint=3,
        )
        cases.append((f"sundog/{'+'.join(include)}", codec))
    # A fixed base-config cap: the no-cap codec must carry it per row.
    capped = SYNTHETIC_BASE_CONFIG.replace(max_tasks=37)
    cases.append(
        (
            "small/parallelism-no-cap/base-cap",
            ParallelismCodec(
                make_topology("small"), paper_cluster(), capped,
                include_max_tasks=False,
            ),
        )
    )
    return cases


CODEC_CASES = _codec_cases()


def _unit_rows(dim: int, rng: np.random.Generator, n: int = 200) -> np.ndarray:
    """Random rows plus the corners, out-of-range rows that clip, and
    rows on and next to grid-cell edges."""
    edges = [0.0, 1.0, -0.5, 1.5, 0.5, 1 / 3, 0.25, 0.125]
    special = [np.full(dim, e) for e in edges]
    special += [np.nextafter(np.full(dim, e), -np.inf) for e in edges]
    special += [np.nextafter(np.full(dim, e), np.inf) for e in edges]
    return np.vstack([rng.random((n, dim)), *special])


def _per_row_batch(codec, X, order) -> ConfigBatch:
    configs = [codec.decode(codec.space.decode(row)) for row in X]
    defaults = [codec.topology.operator(name).default_hint for name in order]
    return ConfigBatch.from_configs(configs, order, defaults)


def _assert_batches_equal(a: ConfigBatch, b: ConfigBatch) -> None:
    assert a.order == b.order
    assert len(a) == len(b)
    for field in dataclasses.fields(ConfigBatch):
        if field.name == "order":
            continue
        left, right = getattr(a, field.name), getattr(b, field.name)
        assert left.dtype == right.dtype, field.name
        np.testing.assert_array_equal(left, right, err_msg=field.name)


class TestDecodeBatch:
    """``ConfigCodec.decode_batch`` == the per-row decode, array for array."""

    @pytest.mark.parametrize(
        "label, codec", CODEC_CASES, ids=[case[0] for case in CODEC_CASES]
    )
    def test_matches_per_row_decode(self, label, codec):
        order = tuple(codec.topology.topological_order())
        X = _unit_rows(codec.space.dim, np.random.default_rng(len(label)))
        _assert_batches_equal(codec.decode_batch(X, order), _per_row_batch(codec, X, order))

    def test_from_configs_fills_default_hints(self):
        topology = make_topology("small")
        order = tuple(topology.topological_order())
        partial = TopologyConfig(parallelism_hints={order[0]: 7}, ackers=3)
        batch = ConfigBatch.from_configs([partial], order, list(range(1, 11)))
        assert batch.hints.tolist() == [[7, *range(2, 11)]]
        assert batch.n_ackers.tolist() == [3]
        assert not batch.has_cap[0]

    def test_evaluate_accepts_a_batch_or_configs(self):
        topology = make_topology("medium", CONDITIONS[3])
        codec = ParallelismCodec(topology, TIGHT_CLUSTER, SYNTHETIC_BASE_CONFIG)
        model = AnalyticBatchModel(topology, TIGHT_CLUSTER)
        X = codec.space.latin_hypercube(64, np.random.default_rng(3))
        from_batch = model.evaluate(codec.decode_batch(X, model.order))
        configs = [codec.decode(codec.space.decode(row)) for row in X]
        assert from_batch.runs() == model.evaluate(configs).runs()
        assert 0 < int(from_batch.failed.sum()) < len(X)

    def test_evaluate_rejects_a_batch_in_another_order(self):
        topology = make_topology("small")
        codec = ParallelismCodec(topology, paper_cluster(), SYNTHETIC_BASE_CONFIG)
        model = AnalyticBatchModel(topology, paper_cluster())
        batch = codec.decode_batch(np.full((2, codec.space.dim), 0.5), model.order[::-1])
        with pytest.raises(ValueError, match="order"):
            model.evaluate(batch)

    def test_informed_codec_keeps_the_multiplier_check(self):
        topology = make_topology("small")
        codec = InformedMultiplierCodec(topology, paper_cluster(), SYNTHETIC_BASE_CONFIG)
        codec.space = ParameterSpace([FloatParameter("multiplier", -1.0, 1.0)])
        X = np.array([[0.9], [0.1]])
        with pytest.raises(ValueError, match="multiplier must be > 0"):
            codec.decode(codec.space.decode(X[1]))
        with pytest.raises(ValueError, match="multiplier must be > 0"):
            codec.decode_batch(X, tuple(topology.topological_order()))


#: Out-of-domain settings, as TopologyConfig keyword arguments.
OUT_OF_DOMAIN = (
    {"parallelism_hints": {"b": 0}},
    {"max_tasks": 0},
    {"batch_size": 0},
    {"batch_parallelism": 0},
    {"worker_threads": 0},
    {"receiver_threads": -2},
    {"ackers": -1},
)


class TestConfigBatchDomain:
    """ConfigBatch raises TopologyConfig's ValueError for the first bad row."""

    ORDER = ("a", "b", "c")

    def _batch(self, n: int, **overrides) -> ConfigBatch:
        def col(value):
            return np.full(n, value, dtype=np.int64)

        fields = {
            "order": self.ORDER,
            "hints": np.ones((n, 3), dtype=np.int64),
            "max_tasks": col(10),
            "has_cap": np.ones(n, dtype=bool),
            "batch_size": col(100),
            "batch_parallelism": col(1),
            "worker_threads": col(8),
            "receiver_threads": col(1),
            "n_ackers": col(4),
        }
        fields.update(overrides)
        return ConfigBatch(**fields)

    @staticmethod
    def _scalar_error(kwargs) -> str:
        with pytest.raises(ValueError) as info:
            TopologyConfig(**kwargs)
        return str(info.value)

    @pytest.mark.parametrize("kwargs", OUT_OF_DOMAIN, ids=lambda kw: next(iter(kw)))
    def test_same_error_as_topology_config(self, kwargs):
        expected = self._scalar_error(kwargs)
        good = self._batch(3)
        name, value = next(iter(kwargs.items()))
        if name == "parallelism_hints":
            column, array, value = "hints", good.hints.copy(), 0
            array[1, 1] = value
        else:
            column = {"ackers": "n_ackers"}.get(name, name)
            array = getattr(good, column).copy()
            array[1] = value
        with pytest.raises(ValueError, match=re.escape(expected)):
            self._batch(3, **{column: array})

    def test_first_offending_row_wins(self):
        batch_size = np.array([100, 0, 100])
        hints = np.ones((3, 3), dtype=np.int64)
        hints[2, 0] = 0
        with pytest.raises(ValueError, match="batch_size must be >= 1"):
            self._batch(3, batch_size=batch_size, hints=hints)

    def test_uncapped_rows_skip_the_cap_check(self):
        batch = self._batch(2, max_tasks=np.zeros(2, dtype=np.int64),
                            has_cap=np.zeros(2, dtype=bool))
        assert len(batch) == 2

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="columns"):
            self._batch(2, hints=np.ones((2, 2), dtype=np.int64))
        with pytest.raises(ValueError, match="batch_size"):
            self._batch(2, batch_size=np.ones(3, dtype=np.int64))

    def test_empty_batch(self):
        batch = self._batch(0, hints=np.ones((0, 3), dtype=np.int64))
        assert len(batch) == 0


def _screening_pool(codec, rng: np.random.Generator) -> np.ndarray:
    """>= 2,000 rows shaped like an acquisition pool: a Latin hypercube,
    the diagonal, and Gaussian perturbations around a few pool points."""
    space = codec.space
    lhs = space.latin_hypercube(2_000, rng)
    diag = space.round_trip_batch(
        np.linspace(0.0, 1.0, 33)[:, None] * np.ones((1, space.dim))
    )
    centres = lhs[rng.choice(len(lhs), size=4, replace=False)]
    local = np.vstack([
        space.round_trip_batch(
            np.clip(c + rng.normal(0.0, 0.05, size=(64, space.dim)), 0.0, 1.0)
        )
        for c in centres
    ])
    return np.vstack([lhs, diag, local])


class TestScreenerMatchesPerRowPath:
    """The column-wise screener keeps exactly what the per-row path keeps."""

    @pytest.mark.parametrize("size", ["small", "medium", "large"])
    def test_keep_masks_equal(self, size):
        topology = make_topology(size)
        model = AnalyticBatchModel(topology, TIGHT_CLUSTER)
        codecs = _synthetic_codecs(topology, TIGHT_CLUSTER)
        for label in ("parallelism", "parallelism-no-cap", "informed"):
            codec = codecs[label]
            X = _screening_pool(codec, np.random.default_rng(11))
            assert len(X) >= 2_000
            keep = make_analytic_screener(codec, topology, TIGHT_CLUSTER)(X)
            configs = [codec.decode(codec.space.decode(row)) for row in X]
            reference = ~model.evaluate(configs).failed
            np.testing.assert_array_equal(keep, reference, err_msg=label)
            if label != "parallelism-no-cap":  # that one fails everywhere
                assert 0 < int(keep.sum()) < len(X), label

    def test_screened_bo_run_decodes_once_per_step(self, monkeypatch):
        """Guard: the screener must not decode candidates row by row.

        ``bo``'s integer space has no gradient refinement, so its only
        per-row ``ParameterSpace.decode`` is the one ``ask`` makes for
        the proposal it returns.
        """
        decodes = 0
        decode = ParameterSpace.decode

        def counting_decode(self, x):
            nonlocal decodes
            decodes += 1
            return decode(self, x)

        monkeypatch.setattr(ParameterSpace, "decode", counting_decode)
        topology = make_topology("small")
        cluster = default_cluster()
        steps = 16
        optimizer, codec = make_synthetic_optimizer(
            "bo", topology, cluster, SYNTHETIC_BASE_CONFIG, steps, seed=0,
            fidelity="analytic",
        )
        screen = optimizer.acq.screen
        screened = 0

        def counting_screen(candidates):
            nonlocal screened
            screened += len(candidates)
            return screen(candidates)

        optimizer.acq.screen = counting_screen
        objective = StormObjective(topology, cluster, codec, seed=0)
        TuningLoop(objective, optimizer, max_steps=steps).run()
        assert screened > 5 * steps  # the screener ran on model-driven steps
        assert decodes == steps
