"""Campaign specs, worker-budget splitting, and the runner facade."""

from __future__ import annotations

import pytest

from repro.experiments.presets import Budget
from repro.core.resilience import RetryPolicy
from repro.experiments.runner import SundogArmSpec, SyntheticCellSpec, SyntheticStudy
from repro.service.campaign import (
    CampaignRunner,
    CampaignSpec,
    split_worker_budget,
)
from repro.topology_gen.suite import CONDITIONS


class TestSplitWorkerBudget:
    def test_workers_zero_raises(self):
        with pytest.raises(ValueError, match="workers"):
            split_worker_budget(0, 4)

    def test_workers_negative_raises(self):
        with pytest.raises(ValueError, match="workers"):
            split_worker_budget(-3, 4)

    def test_workers_one_is_fully_serial(self):
        assert split_worker_budget(1, 24) == (1, 1)
        assert split_worker_budget(1, 1) == (1, 1)

    def test_more_cells_than_workers_spends_budget_on_processes(self):
        assert split_worker_budget(8, 24) == (8, 1)

    def test_fewer_cells_than_workers_spends_remainder_in_loop(self):
        assert split_worker_budget(8, 2) == (2, 4)

    def test_zero_cells_still_yields_one_job(self):
        n_jobs, loop_workers = split_worker_budget(4, 0)
        assert n_jobs == 1
        assert loop_workers == 4


class TestCampaignSpec:
    def test_unknown_study_kind_is_rejected(self):
        with pytest.raises(ValueError, match="study"):
            CampaignSpec(study="mystery")

    def test_synthetic_defaults_cover_the_paper_grid(self):
        spec = CampaignSpec.synthetic()
        assert spec.conditions == CONDITIONS
        assert spec.n_cells == (
            len(spec.conditions) * len(spec.sizes) * len(spec.strategies)
        )

    def test_sundog_defaults_cover_figure8_arms(self):
        spec = CampaignSpec.sundog()
        assert spec.n_cells == len(spec.arms) > 0

    def test_round_trip_through_dict(self):
        spec = CampaignSpec.synthetic(
            budget=Budget(steps=4, steps_extended=6, baseline_steps=8, passes=1, repeat_best=2),
            seed=3,
            workers=4,
            store="ckpts",
            resilience=RetryPolicy(max_retries=1, breaker_threshold=2),
        )
        clone = CampaignSpec.from_dict(spec.as_dict())
        assert clone == spec
        assert clone.resilience == spec.resilience
        assert clone.conditions == spec.conditions

    def test_dict_form_is_json_plain(self):
        import json

        spec = CampaignSpec.sundog(resilience=RetryPolicy())
        encoded = json.dumps(spec.as_dict(), sort_keys=True)
        assert CampaignSpec.from_dict(json.loads(encoded)) == spec

    def test_worker_split_prefers_explicit_workers(self):
        spec = CampaignSpec.synthetic(workers=2)
        assert spec.worker_split() == split_worker_budget(2, spec.n_cells)
        spec = CampaignSpec.synthetic(n_jobs=3)
        assert spec.worker_split() == (3, 1)


class TestCampaignRunner:
    def _tiny_spec(self, **kwargs):
        return CampaignSpec.synthetic(
            budget=Budget(steps=4, steps_extended=6, baseline_steps=8, passes=1, repeat_best=2),
            conditions=CONDITIONS[:1],
            sizes=("small",),
            strategies=("pla",),
            **kwargs,
        )

    def test_cell_specs_match_the_grid(self):
        runner = CampaignRunner(self._tiny_spec())
        (spec,) = runner.cell_specs()
        assert spec.label == spec.cell == f"{CONDITIONS[0].label}/small/pla"

    def test_run_matches_study_facade(self, tmp_path):
        spec = self._tiny_spec(seed=5)
        direct = CampaignRunner(spec).run()
        study = SyntheticStudy(
            budget=Budget(steps=4, steps_extended=6, baseline_steps=8, passes=1, repeat_best=2),
            conditions=CONDITIONS[:1],
            sizes=("small",),
            strategies=("pla",),
            seed=5,
        )
        via_study = study.run().results
        (key,) = via_study.keys()
        label = f"{key[0].label}/{key[1]}/{key[2]}"
        assert [r.best_value for r in direct[label]] == [
            r.best_value for r in via_study[key]
        ]

    def test_store_backed_campaign_skips_finished_cells(self, tmp_path):
        spec = self._tiny_spec(store=str(tmp_path / "ckpts"))
        first = CampaignRunner(spec).run()
        again = CampaignRunner(spec).run()
        (label,) = first.keys()
        assert [r.best_value for r in first[label]] == [
            r.best_value for r in again[label]
        ]


class TestFleetMode:
    def _tiny(self, **kwargs):
        return CampaignSpec.synthetic(
            budget=Budget(
                steps=4, steps_extended=6, baseline_steps=8, passes=1,
                repeat_best=2,
            ),
            conditions=CONDITIONS[:1],
            sizes=("small",),
            strategies=("pla", "bo"),
            **kwargs,
        )

    def test_fleet_requires_a_store(self):
        with pytest.raises(ValueError, match="store"):
            CampaignSpec.synthetic(mode="fleet")

    def test_unknown_mode_is_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            CampaignSpec.synthetic(mode="swarm")

    @pytest.mark.parametrize(
        "kwargs",
        [{"lease_ttl_seconds": 0.0}, {"max_claim_attempts": 0}],
    )
    def test_lease_knobs_are_validated(self, kwargs):
        with pytest.raises(ValueError):
            CampaignSpec.synthetic(mode="fleet", store="ckpts", **kwargs)

    def test_fleet_fields_round_trip_through_dict(self):
        spec = self._tiny(
            store="ckpts", mode="fleet", workers=3,
            lease_ttl_seconds=7.5, max_claim_attempts=9,
        )
        clone = CampaignSpec.from_dict(spec.as_dict())
        assert clone == spec
        assert (clone.mode, clone.lease_ttl_seconds) == ("fleet", 7.5)
        assert clone.max_claim_attempts == 9

    def test_published_thread_loop_executor_is_accepted(self):
        spec = self._tiny()
        data = {**spec.as_dict(), "loop_executor": "thread"}
        assert CampaignSpec.from_dict(data) == spec

    def test_other_loop_executors_are_rejected(self):
        data = {**self._tiny().as_dict(), "loop_executor": "process"}
        with pytest.raises(ValueError, match="loop_executor"):
            CampaignSpec.from_dict(data)

    def test_dicts_without_fleet_fields_default_to_pool(self):
        data = self._tiny().as_dict()
        for key in ("mode", "lease_ttl_seconds", "max_claim_attempts"):
            data.pop(key)
        assert CampaignSpec.from_dict(data).mode == "pool"

    def test_fleet_workers_run_serial_loops(self):
        spec = self._tiny(store="ckpts", mode="fleet", workers=4)
        assert spec.worker_split() == (4, 1)

    def test_store_cell_label_maps_sundog(self):
        budget = Budget()
        synthetic = SyntheticCellSpec(
            size="small", condition=CONDITIONS[0], strategy="bo", budget=budget
        )
        assert synthetic.cell == synthetic.label
        sundog = SundogArmSpec(strategy="bo", param_set="h", budget=budget)
        assert (sundog.label, sundog.cell) == ("bo.h", "sundog_bo.h")

    def test_fleet_run_matches_a_serial_pool_run(self, tmp_path):
        from repro.core.checkpoint import canonical_history

        fleet_spec = self._tiny(
            seed=2, store=str(tmp_path / "fleet"), mode="fleet", workers=2,
            lease_ttl_seconds=15.0,
        )
        pool_spec = self._tiny(
            seed=2, store=str(tmp_path / "pool"), mode="pool", n_jobs=1
        )
        fleet = CampaignRunner(fleet_spec).run()
        pool = CampaignRunner(pool_spec).run()
        assert fleet.keys() == pool.keys()
        for label in pool:
            assert [
                canonical_history(r.observations) for r in fleet[label]
            ] == [canonical_history(r.observations) for r in pool[label]]
        from repro.store import open_store

        with open_store(fleet_spec.store) as store:
            statuses = {
                lease.cell: lease.status
                for lease in store.leases("synthetic")
            }
        assert set(statuses.values()) == {"committed"}

    def test_sundog_fleet_matches_a_serial_pool_run(self, tmp_path):
        from repro.core.checkpoint import canonical_history
        from repro.store import open_store

        common = dict(
            budget=Budget(
                steps=4, steps_extended=5, baseline_steps=6, passes=1,
                repeat_best=2,
            ),
            arms=(("pla", "h"), ("bo", "h")),
            seed=3,
        )
        fleet_spec = CampaignSpec.sundog(
            store=str(tmp_path / "fleet.db"), mode="fleet", workers=2,
            lease_ttl_seconds=15.0, **common,
        )
        pool_spec = CampaignSpec.sundog(
            store=str(tmp_path / "pool.db"), mode="pool", n_jobs=1, **common
        )
        fleet = CampaignRunner(fleet_spec).run()
        pool = CampaignRunner(pool_spec).run()
        assert sorted(fleet) == sorted(pool) == ["bo.h", "pla.h"]
        for label in pool:
            assert [
                canonical_history(r.observations) for r in fleet[label]
            ] == [canonical_history(r.observations) for r in pool[label]]
        with open_store(fleet_spec.store) as store:
            # The published campaign spec sits at cell "".
            assert store.cells("sundog") == ["", "sundog_bo.h", "sundog_pla.h"]
            assert store.has_results("sundog", "sundog_bo.h")
            assert store.has_results("sundog", "sundog_pla.h")
            assert {
                lease.cell: lease.status for lease in store.leases("sundog")
            } == {"sundog_bo.h": "committed", "sundog_pla.h": "committed"}
