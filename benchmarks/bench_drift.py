"""Acceptance bench for continuous tuning under workload drift.

Two claims are checked (docs/DRIFT.md):

* **Recovery speed** — for every drift profile (diurnal load cycle,
  flash crowd, skew migration), the continuous mode — conservative
  re-tune from the incumbent with down-weighted stale observations —
  gets back within 5% of the post-drift reference optimum in at most
  half the observations a cold restart needs
  (:func:`repro.experiments.drift.compare_modes`).
* **Crash-safe resume across drift** — a continuous campaign killed
  with ``SIGKILL`` mid-epoch *after* a drift detection and resumed
  from its checkpoints reproduces the uninterrupted run's observation
  history byte-identically
  (:func:`repro.core.checkpoint.canonical_history`), detections
  included.

Run as a script for the CI drift-smoke check (``--smoke`` scales the
epoch budgets down and skips the recovery-ratio criterion), or under
pytest for the full acceptance numbers:

    PYTHONPATH=src python benchmarks/bench_drift.py --smoke
    PYTHONPATH=src python -m pytest benchmarks/bench_drift.py -v
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.core.checkpoint import canonical_history
from repro.core.continuous import STATE_NAME
from repro.experiments.drift import (
    build_drift_loop,
    compare_modes,
    drift_scenarios,
    run_drift_scenario,
)
from repro.store import STORE_FILENAME, open_store

#: Full-bench knobs (the acceptance configuration).
BENCH_SEED = 1
RECOVERY_RATIO_MAX = 0.5

#: Kill-resume campaign: flash profile scaled so the drift detection
#: (epoch 3 of 5) leaves a post-detection epoch for the kill to land in.
KILL_PROFILE = "flash"
KILL_EPOCHS = 5
KILL_STEPS = 4
KILL_INITIAL = 6
#: Per-measurement sleep in the child process so the SIGKILL reliably
#: lands mid-epoch rather than after completion.
CHILD_WINDOW_SECONDS = 0.25
KILL_DEADLINE_SECONDS = 180.0

_REPO_ROOT = Path(__file__).resolve().parent.parent


# ----------------------------------------------------------------------
# Claim 1: recovery speed, continuous vs. cold restart
# ----------------------------------------------------------------------
def run_recovery(*, smoke: bool = False, seed: int = BENCH_SEED) -> list[dict]:
    """Compare both modes on every profile; one summary dict each."""
    rows = []
    for name, scenario in drift_scenarios().items():
        if smoke:
            scenario = scenario.scaled(
                epochs=4, steps_per_epoch=4, initial_steps=6
            )
        summary = compare_modes(scenario, seed)
        rows.append(summary)
        cont = summary["continuous"]
        cold = summary["cold"]
        ratio = summary["recovery_ratio"]
        print(
            f"  {name}: continuous {_fmt(cont)} | cold {_fmt(cold)} | "
            f"ratio {'n/a' if ratio is None else f'{ratio:.3f}'}"
        )
    return rows


def _fmt(entry: dict) -> str:
    if not entry["detected"]:
        return "no detection"
    count = entry["recovery_observations"]
    return f"{count} obs" if entry["recovered"] else f">{count} obs (censored)"


def recovery_passes(rows: list[dict]) -> bool:
    """Both modes detect and continuous needs <= half the observations."""
    for row in rows:
        if not (row["continuous"]["detected"] and row["cold"]["detected"]):
            return False
        ratio = row["recovery_ratio"]
        if ratio is None or ratio > RECOVERY_RATIO_MAX:
            return False
    return True


# ----------------------------------------------------------------------
# Claim 2: SIGKILL mid-epoch across a drift boundary
# ----------------------------------------------------------------------
class _SlowObjective:
    """Delegating wrapper that stretches each measurement so the parent
    process has a comfortable window to SIGKILL the campaign mid-epoch.
    The sleep changes wall-clock only — seeds and values are untouched,
    so the killed-and-resumed history must match the uninterrupted one.
    """

    def __init__(self, inner, window_seconds: float) -> None:
        self._inner = inner
        self._window = float(window_seconds)

    def __getattr__(self, name: str):
        return getattr(self._inner, name)

    def measure(self, config, *, seed=None):
        time.sleep(self._window)
        return self._inner.measure(config, seed=seed)


def _kill_scenario():
    return drift_scenarios()[KILL_PROFILE].scaled(
        epochs=KILL_EPOCHS,
        steps_per_epoch=KILL_STEPS,
        initial_steps=KILL_INITIAL,
    )


def _run_child(checkpoint_dir: str) -> int:
    """Child entry: the to-be-killed campaign, slowed per measurement."""
    with open_store(checkpoint_dir) as store:
        build_drift_loop(
            _kill_scenario(),
            "continuous",
            BENCH_SEED,
            store=store,
            wrap_objective=lambda obj: _SlowObjective(obj, CHILD_WINDOW_SECONDS),
        ).run()
    return 0


def _ready_to_kill(checkpoint_dir: Path) -> bool:
    """True once a drift epoch completed and the next epoch is underway:
    the SIGKILL then lands mid-epoch on the far side of the detection."""
    if not (checkpoint_dir / STORE_FILENAME).is_file():
        return False
    # build_drift_loop keys the campaign by (scenario, mode).
    cell = f"{_kill_scenario().name}/continuous"
    with open_store(checkpoint_dir) as store:
        data = store.load_state("drift", cell, STATE_NAME)
        if data is None or not data.get("detections"):
            return False
        completed = int(data.get("epochs_completed", 0))
        if completed >= KILL_EPOCHS:
            return False
        partial = store.load_checkpoint(
            "drift", cell, f"epoch-{completed:04d}"
        )
    return partial is not None and partial.completed >= 1


def run_kill_resume(workdir: str | None = None) -> dict:
    """SIGKILL a continuous campaign mid-epoch after its drift
    detection, resume it, and compare against an uninterrupted run."""
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        checkpoint_dir = Path(tmp) / "kill"
        proc = subprocess.Popen(
            [
                sys.executable,
                str(Path(__file__).resolve()),
                "--child",
                str(checkpoint_dir),
            ],
            cwd=_REPO_ROOT,
            env={"PYTHONPATH": "src", "PATH": os.environ.get("PATH", "/usr/bin:/bin")},
        )
        killed_mid_run = False
        try:
            deadline = time.time() + KILL_DEADLINE_SECONDS
            while time.time() < deadline:
                if _ready_to_kill(checkpoint_dir):
                    killed_mid_run = True
                    break
                if proc.poll() is not None:
                    raise RuntimeError(
                        "child campaign finished before the kill point; "
                        "raise CHILD_WINDOW_SECONDS"
                    )
                time.sleep(0.05)
        finally:
            proc.kill()
            proc.wait()
        if not killed_mid_run:
            raise RuntimeError("timed out waiting for the kill point")

        scenario = _kill_scenario()
        with open_store(checkpoint_dir) as store:
            resumed = run_drift_scenario(
                scenario, "continuous", BENCH_SEED, store=store
            )
        reference = run_drift_scenario(scenario, "continuous", BENCH_SEED)
        identical = canonical_history(resumed.observations) == canonical_history(
            reference.observations
        )
        return {
            "identical": identical,
            "detections_resumed": list(resumed.detections),
            "detections_reference": list(reference.detections),
            "resumed_epochs": resumed.metadata.get("resumed_epochs"),
            "observations": len(reference.observations),
        }


# ----------------------------------------------------------------------
# Pytest entries (full acceptance numbers)
# ----------------------------------------------------------------------
def test_continuous_recovery_beats_cold_restart():
    rows = run_recovery()
    assert recovery_passes(rows), [
        (r["profile"], r["recovery_ratio"]) for r in rows
    ]


def test_drift_sigkill_resume_is_byte_identical():
    outcome = run_kill_resume()
    assert outcome["detections_resumed"] == outcome["detections_reference"]
    assert outcome["identical"]


# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="scaled-down budgets")
    parser.add_argument("--json", metavar="PATH", help="write a JSON report")
    parser.add_argument("--child", metavar="CKPT_DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return _run_child(args.child)

    print(f"== drift recovery ({'smoke' if args.smoke else 'full'} scale) ==")
    rows = run_recovery(smoke=args.smoke)
    ok = True
    if args.smoke:
        print("(smoke scale: recovery-ratio criterion not evaluated)")
    else:
        ok = recovery_passes(rows)
        print(
            f"recovery criterion (ratio <= {RECOVERY_RATIO_MAX}): "
            f"{'PASS' if ok else 'FAIL'}"
        )

    print("== SIGKILL mid-epoch across a drift boundary ==")
    outcome = run_kill_resume()
    print(
        f"  resumed epochs: {outcome['resumed_epochs']}, "
        f"detections: {outcome['detections_resumed']}, "
        f"byte-identical: {outcome['identical']}"
    )
    ok = ok and outcome["identical"]

    from _harness import emit, make_metric

    ratios = [
        row["recovery_ratio"] for row in rows if row["recovery_ratio"] is not None
    ]
    metrics = {
        "recovery_ratio_worst": make_metric(
            max(ratios) if ratios else RECOVERY_RATIO_MAX,
            higher_is_better=False,
        ),
        "profiles_recovered": make_metric(
            sum(
                1
                for row in rows
                if row["continuous"]["detected"] and row["continuous"]["recovered"]
            ),
            higher_is_better=True,
        ),
        "kill_resume_identical": make_metric(
            1.0 if outcome["identical"] else 0.0, higher_is_better=True
        ),
        "passed": make_metric(1.0 if ok else 0.0, higher_is_better=True),
    }
    emit(
        "bench_drift",
        smoke=args.smoke,
        metrics=metrics,
        meta={
            "seed": BENCH_SEED,
            "recovery_ratio_max": RECOVERY_RATIO_MAX,
            "profiles": rows,
            "kill_resume": outcome,
        },
        json_path=args.json,
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
