"""Protocol-conformance suite: every optimizer through one harness.

The ask/tell contract (:class:`repro.core.baselines.Optimizer`) is what
the tuning loop, the evaluation executors, and the studies all build
on, so every strategy — bo, pla, ipla, ibo, random — must honor it the
same way: proposals stay inside the parameter space, ``done`` is
sticky, ``best()`` tracks the running max of told values, and the
batch extensions degrade gracefully for single-point strategies.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np
import pytest

from repro.core.baselines import Optimizer
from repro.core.optimizer import BayesianOptimizer
from repro.experiments.presets import SYNTHETIC_BASE_CONFIG, default_cluster
from repro.experiments.runner import make_synthetic_optimizer
from repro.topology_gen.suite import make_topology

N_STEPS = 8

STRATEGIES = ("bo", "pla", "ipla", "ibo", "rs")


def _make(strategy: str):
    """One (optimizer, space) pair per paper strategy."""
    topology = make_topology("small")
    cluster = default_cluster()
    optimizer, codec = make_synthetic_optimizer(
        strategy, topology, cluster, SYNTHETIC_BASE_CONFIG, N_STEPS, seed=7
    )
    return optimizer, codec.space


def _value(space, config: Mapping[str, object]) -> float:
    """Deterministic smooth stand-in objective on the unit cube."""
    x = space.encode(config)
    return 100.0 * float(np.exp(-np.mean((x - 0.4) ** 2)))


def _drive(optimizer: Optimizer, space, steps: int = N_STEPS):
    """Classic serial ask/tell for ``steps`` steps; returns told values."""
    told: list[float] = []
    for _ in range(steps):
        if optimizer.done:
            break
        config = optimizer.ask()
        space.validate(config)
        value = _value(space, config)
        optimizer.tell(config, value)
        told.append(value)
    return told


@pytest.mark.parametrize("strategy", STRATEGIES)
class TestConformance:
    def test_proposals_stay_in_space(self, strategy):
        optimizer, space = _make(strategy)
        told = _drive(optimizer, space)
        assert told, f"{strategy} produced no proposals"

    def test_best_matches_running_max(self, strategy):
        optimizer, space = _make(strategy)
        told = _drive(optimizer, space)
        best_config, best_value = optimizer.best()
        assert best_value == max(told)
        space.validate(best_config)

    def test_best_raises_before_any_tell(self, strategy):
        optimizer, _ = _make(strategy)
        with pytest.raises(RuntimeError):
            optimizer.best()

    def test_done_is_sticky(self, strategy):
        optimizer, space = _make(strategy)
        # Exhaust the strategy (grid schedules finish; bo/random never
        # do within a bounded budget — drive a few steps either way).
        for _ in range(N_STEPS + 2):
            if optimizer.done:
                break
            config = optimizer.ask()
            optimizer.tell(config, _value(space, config))
        snapshots = [optimizer.done for _ in range(3)]
        assert len(set(snapshots)) == 1, "done flapped between reads"
        if optimizer.done:
            # More tells must not resurrect an exhausted strategy.
            optimizer.tell(config, 0.0)
            assert optimizer.done

    def test_ask_batch_members_stay_in_space(self, strategy):
        optimizer, space = _make(strategy)
        batch = optimizer.ask_batch(3)
        assert 0 < len(batch) <= 3
        for config in batch:
            space.validate(config)
        for config in batch:
            optimizer.tell(config, _value(space, config))
        _, best_value = optimizer.best()
        assert best_value == max(
            _value(space, config) for config in batch
        )

    def test_ask_batch_rejects_nonpositive(self, strategy):
        optimizer, _ = _make(strategy)
        with pytest.raises(ValueError):
            optimizer.ask_batch(0)


class _SinglePointOptimizer(Optimizer):
    """Minimal strategy using only the base-class batch shims."""

    def __init__(self) -> None:
        self.counter = 0
        self.history: list[tuple[dict[str, object], float]] = []

    def ask(self) -> dict[str, object]:
        # Idempotent until the matching tell, per the core contract.
        return {"knob": self.counter}

    def tell(self, config: Mapping[str, object], value: float) -> None:
        self.history.append((dict(config), float(value)))
        self.counter += 1

    @property
    def done(self) -> bool:
        return False

    def best(self) -> tuple[dict[str, object], float]:
        if not self.history:
            raise RuntimeError("no observations yet")
        return max(self.history, key=lambda item: item[1])


class TestDefaultShims:
    def test_ask_batch_shim_equals_n_asks(self):
        """The default shim returns n copies of the idempotent ask()."""
        optimizer = _SinglePointOptimizer()
        batch = optimizer.ask_batch(4)
        assert batch == [optimizer.ask()] * 4

    def test_tell_pending_default_is_noop(self):
        optimizer = _SinglePointOptimizer()
        config = optimizer.ask()
        optimizer.tell_pending(config)
        assert optimizer.ask() == config


class TestGridBatching:
    def test_grid_batch_walks_the_schedule(self):
        optimizer, space = _make("pla")
        batch = optimizer.ask_batch(3)
        values = [config["uniform_hint"] for config in batch]
        assert values == sorted(set(values)), "batch must ascend the grid"
        # Tells resolve the in-flight probes; the next batch continues
        # where the schedule left off.
        for config in batch:
            optimizer.tell(config, _value(space, config))
        nxt = optimizer.ask_batch(1)
        assert nxt[0]["uniform_hint"] not in values

    def test_random_batch_is_fresh_draws(self):
        optimizer, space = _make("rs")
        batch = optimizer.ask_batch(4)
        assert len(batch) == 4
        encoded = {space.encode(config).tobytes() for config in batch}
        assert len(encoded) > 1, "random batch collapsed to one draw"


class TestBayesianFantasies:
    def _warmed(self) -> tuple[BayesianOptimizer, object]:
        optimizer, space = _make("bo")
        for _ in range(6):
            config = optimizer.ask()
            optimizer.tell(config, _value(space, config))
        return optimizer, space

    def test_batch_proposals_are_distinct(self):
        """q=4 constant-liar suggestions per batch are all different."""
        optimizer, space = self._warmed()
        batch = optimizer.ask_batch(4)
        assert len(batch) == 4
        encoded = {space.encode(config).tobytes() for config in batch}
        assert len(encoded) == 4, "fantasies failed to diversify the batch"
        for config in batch:
            space.validate(config)

    def test_pending_resolved_by_tell(self):
        optimizer, space = self._warmed()
        batch = optimizer.ask_batch(3)
        assert optimizer.telemetry["fantasies_active"] == 3
        for config in batch:
            optimizer.tell(config, _value(space, config))
        assert optimizer.telemetry["fantasies_active"] == 0

    def test_unknown_liar_rejected(self):
        """Only the constant liar exists: the option is gone and a state
        saved with another liar is refused."""
        optimizer, space = _make("bo")
        with pytest.raises(TypeError):
            BayesianOptimizer(space, liar="optimist")
        for liar in ("mean", "optimist"):
            with pytest.raises(ValueError, match="liar"):
                BayesianOptimizer.from_state_dict(
                    {**optimizer.state_dict(), "liar": liar}
                )
