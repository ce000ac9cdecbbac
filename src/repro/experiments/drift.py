"""The drift experiment: continuous tuning vs. cold restart.

Everything the paper measures assumes a stationary workload.  This
harness asks the deployment question instead: the workload drifts
(:mod:`repro.storm.schedule`), the incumbent degrades, a
:class:`~repro.core.drift.PageHinkleyDetector` notices — how fast does
each recovery policy get back to a good configuration?

Three canned drift profiles over the small synthetic topology:

* ``diurnal`` — sinusoidal load cycle (compressed to experiment scale),
* ``flash``   — step load increase partway through the campaign,
* ``skew``    — hot-key concentration ramping in over several epochs.

For each profile the same seed runs twice — ``continuous`` (trust-
region re-tune from the incumbent, stale observations down-weighted)
and ``cold`` (fresh optimizer after each detection) — and the headline
metric is **recovery**: post-detection tuning observations spent before
one lands within 5% of the post-drift reference optimum.  The reference
is the max of a fixed Latin-hypercube pool evaluated *noise-free* at
each epoch's workload time; observed configurations are re-scored
noise-free the same way, so measurement noise cannot fake (or hide) a
recovery.  ``benchmarks/bench_drift.py`` wraps this module as an
acceptance bench; ``repro-experiments drift`` is the CLI face
(docs/DRIFT.md).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.core.continuous import ContinuousTuningLoop, ContinuousTuningResult
from repro.core.drift import PageHinkleyDetector
from repro.core.optimizer import BayesianOptimizer
from repro.core.seeding import derive_seed
from repro.experiments.presets import (
    MEASUREMENT_NOISE_SIGMA,
    SYNTHETIC_BASE_CONFIG,
    default_cluster,
)
from repro.storm.analytic import AnalyticPerformanceModel
from repro.storm.noise import GaussianNoise
from repro.storm.objective import StormObjective
from repro.storm.schedule import (
    DiurnalSchedule,
    FlashCrowdSchedule,
    SkewShiftSchedule,
    WorkloadSchedule,
)
from repro.storm.spaces import ParallelismCodec
from repro.topology_gen.suite import make_topology

#: Fraction of the post-drift reference optimum that counts as
#: "recovered" (the acceptance criterion's within-5% bar).
RECOVERY_FRACTION = 0.95


#: Latin-hypercube pool size for the per-epoch reference optimum.
REFERENCE_POOL = 256


@dataclass(frozen=True)
class DriftScenario:
    """One drift profile plus the continuous-tuning budget that runs it."""

    name: str
    schedule: WorkloadSchedule
    epochs: int = 6
    epoch_duration_s: float = 600.0
    steps_per_epoch: int = 8
    #: Warm-up matters: the continuous mode's whole advantage is
    #: re-tuning *from a good incumbent*, so the first epoch gets a
    #: budget large enough to actually converge under the base
    #: workload before the drift hits.
    initial_steps: int = 20
    init_points: int = 4
    noise_sigma: float = MEASUREMENT_NOISE_SIGMA
    detector_delta: float = 0.02
    detector_threshold: float = 0.25
    trust_radius: float = 0.2
    mild_trust_radius: float | None = None
    stale_inflation: float = 4.0
    severe_deviation: float = 0.35

    def scaled(self, *, epochs: int, steps_per_epoch: int, initial_steps: int
               ) -> "DriftScenario":
        return replace(
            self,
            epochs=epochs,
            steps_per_epoch=steps_per_epoch,
            initial_steps=initial_steps,
        )


def drift_scenarios() -> dict[str, DriftScenario]:
    """The three canned profiles, timed so drift lands mid-campaign.

    Onsets/ramps sit after the warm-up epochs so every run first
    converges under the base workload, then faces the change — the
    shape of the recovery question.
    """
    return {
        "diurnal": DriftScenario(
            name="diurnal",
            schedule=DiurnalSchedule(period_s=4_800.0, amplitude=0.5),
            # Slow continuous drift needs a less sensitive detector: at
            # the common 0.25 threshold the test fires at almost every
            # epoch boundary (chattering), spending the re-tune budget
            # on shifts too small to matter.  0.4 lets the sinusoid
            # accumulate into one clear detection per swing.
            detector_threshold=0.4,
        ),
        "flash": DriftScenario(
            name="flash",
            schedule=FlashCrowdSchedule(onset_s=1_500.0, flash_load=1.7),
        ),
        "skew": DriftScenario(
            name="skew",
            schedule=SkewShiftSchedule(
                ramp_start_s=1_200.0, ramp_end_s=1_800.0, final_skew=0.5
            ),
        ),
    }


# ----------------------------------------------------------------------
# Running one scenario
# ----------------------------------------------------------------------
def _substrate(scenario: DriftScenario, seed: int):
    topology = make_topology("small")
    cluster = default_cluster()
    codec = ParallelismCodec(topology, cluster, SYNTHETIC_BASE_CONFIG)
    objective = StormObjective(
        topology,
        cluster,
        codec,
        fidelity="analytic",
        noise=GaussianNoise(scenario.noise_sigma),
        seed=derive_seed(seed, "objective", 0),
        schedule=scenario.schedule,
    )
    return topology, cluster, codec, objective


def build_drift_loop(
    scenario: DriftScenario,
    mode: str,
    seed: int,
    *,
    checkpoint_dir: str | Path | None = None,
    wrap_objective: Callable[[StormObjective], object] | None = None,
) -> ContinuousTuningLoop:
    """Assemble the continuous-tuning loop for one scenario campaign.

    ``wrap_objective`` lets harnesses (benchmarks/bench_drift.py)
    decorate the objective — e.g. slow it down so a SIGKILL lands
    mid-epoch — without perturbing any of the seeds or loop structure
    that determinism depends on.
    """
    _, _, codec, objective = _substrate(scenario, seed)
    if wrap_objective is not None:
        objective = wrap_objective(objective)

    def make_optimizer(opt_seed: int | None) -> BayesianOptimizer:
        return BayesianOptimizer(
            codec.space, seed=opt_seed, init_points=scenario.init_points
        )

    # One study store for the whole comparison (a *.db file, or
    # DIR/store.db), campaigns keyed by (scenario, mode) cell labels.
    store_kwargs: dict[str, object] = {}
    if checkpoint_dir is not None:
        from repro.store import open_store

        store_kwargs = {
            "store": open_store(checkpoint_dir),
            "study": "drift",
            "cell": f"{scenario.name}/{mode}",
        }
    loop = ContinuousTuningLoop(
        objective,
        make_optimizer,
        epochs=scenario.epochs,
        epoch_duration_s=scenario.epoch_duration_s,
        steps_per_epoch=scenario.steps_per_epoch,
        initial_steps=scenario.initial_steps,
        mode=mode,
        detector=PageHinkleyDetector(
            delta=scenario.detector_delta,
            threshold=scenario.detector_threshold,
        ),
        seed=seed,
        **store_kwargs,  # type: ignore[arg-type]
        strategy_name=f"drift-{scenario.name}-{mode}",
        trust_radius=scenario.trust_radius,
        mild_trust_radius=scenario.mild_trust_radius,
        stale_inflation=scenario.stale_inflation,
        severe_deviation=scenario.severe_deviation,
    )
    return loop


def run_drift_scenario(
    scenario: DriftScenario,
    mode: str,
    seed: int,
    *,
    checkpoint_dir: str | Path | None = None,
) -> ContinuousTuningResult:
    """One continuous-tuning campaign over ``scenario`` in ``mode``."""
    loop = build_drift_loop(
        scenario, mode, seed, checkpoint_dir=checkpoint_dir
    )
    return loop.run()


# ----------------------------------------------------------------------
# Recovery analysis
# ----------------------------------------------------------------------
def reference_optima(
    scenario: DriftScenario, seed: int
) -> list[float]:
    """Noise-free per-epoch reference optimum.

    One fixed Latin-hypercube pool (seeded independently of any tuning
    run), scored by the vectorized analytic engine at every epoch's
    workload time.  Both modes of a comparison are judged against the
    same references.
    """
    topology, cluster, codec, _ = _substrate(scenario, seed)
    model = AnalyticPerformanceModel(
        topology, cluster, schedule=scenario.schedule
    )
    rng = np.random.default_rng(derive_seed(seed, "refpool", 0))
    points = codec.space.latin_hypercube(REFERENCE_POOL, rng)
    configs = [
        codec.decode(codec.space.decode(np.asarray(point)))
        for point in codec.space.round_trip_batch(points)
    ]
    optima = []
    for epoch in range(scenario.epochs):
        t_epoch = epoch * scenario.epoch_duration_s
        runs = model.evaluate_noise_free_batch(
            configs, workload_time_s=t_epoch
        )
        values = [run.throughput_tps for run in runs if not run.failed]
        optima.append(max(values) if values else 0.0)
    return optima


def recovery_observations(
    result: ContinuousTuningResult,
    scenario: DriftScenario,
    references: Sequence[float],
    seed: int,
    *,
    fraction: float = RECOVERY_FRACTION,
) -> dict[str, object]:
    """Observations from first detection until within-``fraction`` of
    the post-drift reference optimum.

    Observed configurations are re-scored noise-free at their epoch's
    workload time, so a lucky noise draw cannot count as recovered.
    Returns the count (censored at the end of the run when recovery
    never happens) plus bookkeeping for the report.
    """
    if not result.detections:
        return {
            "detected": False,
            "detection_epoch": None,
            "recovery_observations": None,
            "recovered": False,
        }
    detection_epoch = result.detections[0]
    topology, cluster, codec, _ = _substrate(scenario, seed)
    model = AnalyticPerformanceModel(
        topology, cluster, schedule=scenario.schedule
    )
    count = 0
    for record in result.epochs:
        if record.index < detection_epoch:
            continue
        t_epoch = record.workload_time_s
        configs = [
            codec.decode(obs.config) for obs in record.observations
        ]
        runs = (
            model.evaluate_noise_free_batch(configs, workload_time_s=t_epoch)
            if configs
            else []
        )
        target = fraction * references[record.index]
        for obs, run in zip(record.observations, runs):
            count += 1
            if not run.failed and run.throughput_tps >= target:
                return {
                    "detected": True,
                    "detection_epoch": detection_epoch,
                    "recovery_observations": count,
                    "recovered": True,
                }
    return {
        "detected": True,
        "detection_epoch": detection_epoch,
        "recovery_observations": count,
        "recovered": False,
    }


def compare_modes(
    scenario: DriftScenario,
    seed: int,
    *,
    checkpoint_dir: str | Path | None = None,
) -> dict[str, object]:
    """Continuous vs. cold on one scenario, judged on shared references."""
    references = reference_optima(scenario, seed)
    summary: dict[str, object] = {
        "profile": scenario.name,
        "seed": seed,
        "epochs": scenario.epochs,
        "references": references,
    }
    for mode in ("continuous", "cold"):
        result = run_drift_scenario(
            scenario, mode, seed, checkpoint_dir=checkpoint_dir
        )
        recovery = recovery_observations(result, scenario, references, seed)
        summary[mode] = {
            "observations": result.n_steps,
            "detections": list(result.detections),
            "best_value": result.best_value,
            **recovery,
        }
    cont = summary["continuous"]
    cold = summary["cold"]
    if (
        cont["recovery_observations"] is not None  # type: ignore[index]
        and cold["recovery_observations"] is not None  # type: ignore[index]
        and cold["recovery_observations"]  # type: ignore[index]
    ):
        summary["recovery_ratio"] = (
            cont["recovery_observations"] / cold["recovery_observations"]  # type: ignore[index, operator]
        )
    else:
        summary["recovery_ratio"] = None
    return summary


# ----------------------------------------------------------------------
# CLI (`repro-experiments drift ...`)
# ----------------------------------------------------------------------
def drift_main(argv: list[str]) -> int:
    """``repro-experiments drift`` — run the drift comparison."""
    import argparse

    from repro import obs
    from repro.experiments.report import render_table

    parser = argparse.ArgumentParser(
        prog="repro-experiments drift",
        description="Continuous tuning vs. cold restart under workload "
        "drift (docs/DRIFT.md).",
    )
    parser.add_argument(
        "--profile",
        choices=["diurnal", "flash", "skew", "all"],
        default="all",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny budgets: sanity-check wiring, not recovery quality",
    )
    parser.add_argument(
        "--json", default=None, metavar="PATH", help="write results as JSON"
    )
    parser.add_argument(
        "--resume",
        default=None,
        metavar="DIR|DB",
        help="checkpoint each campaign into a study store (a *.db file, "
        "or DIR/store.db) and resume partial runs",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="RUN.jsonl",
        help="record an observability trace (drift.* spans and events)",
    )
    parser.add_argument("-q", "--quiet", action="store_true")
    args = parser.parse_args(argv)

    from repro.obs.sinks import NORMAL, QUIET

    progress = obs.ProgressSink(QUIET if args.quiet else NORMAL)
    scenarios = drift_scenarios()
    names = list(scenarios) if args.profile == "all" else [args.profile]
    summaries = []
    with obs.session(
        jsonl_path=args.trace,
        progress=progress,
        manifest={"command": "drift", "argv": list(argv)},
    ):
        for name in names:
            scenario = scenarios[name]
            if args.smoke:
                scenario = scenario.scaled(
                    epochs=4, steps_per_epoch=4, initial_steps=6
                )
            progress.info(f"(drift profile {name}: running both modes)")
            summaries.append(
                compare_modes(scenario, args.seed, checkpoint_dir=args.resume)
            )
    rows = []
    for summary in summaries:
        cont = summary["continuous"]
        cold = summary["cold"]
        ratio = summary["recovery_ratio"]
        rows.append(
            {
                "profile": summary["profile"],
                "detected (cont/cold)": (
                    f"{cont['detected']}/{cold['detected']}"
                ),
                "recovery obs (cont)": _fmt_recovery(cont),
                "recovery obs (cold)": _fmt_recovery(cold),
                "ratio": "-" if ratio is None else f"{ratio:.2f}",
            }
        )
    progress.result("== drift: continuous re-tune vs. cold restart ==")
    progress.result(render_table(rows))
    progress.result(
        f"(recovery = observations after first detection until a "
        f"configuration scores within "
        f"{100 * (1 - RECOVERY_FRACTION):.0f}% of the post-drift "
        f"reference optimum, noise-free)"
    )
    if args.json:
        payload = {
            "command": "drift",
            "seed": args.seed,
            "smoke": bool(args.smoke),
            "profiles": summaries,
        }
        Path(args.json).write_text(json.dumps(payload, indent=2))
        progress.info(f"(wrote {args.json})")
    return 0


def _fmt_recovery(entry: Mapping[str, object]) -> str:
    if not entry.get("detected"):
        return "no detection"
    count = entry.get("recovery_observations")
    if not entry.get("recovered"):
        return f">{count} (censored)"
    return str(count)
