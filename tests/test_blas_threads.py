"""``import repro`` pins OpenBLAS to one thread, and the pin changes no result.

numpy and scipy wheels each bundle their own OpenBLAS.  ``repro/__init__``
sets ``OPENBLAS_NUM_THREADS=1`` unless the user already set it, which
OpenBLAS reads when each library loads.  Every case runs in a fresh
interpreter, because the test process itself has long since loaded both
libraries.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# Prints the variable and, per wheel-bundled OpenBLAS that exposes its
# thread getter, the size of that library's pool.  Builds that link some
# other BLAS report no pools.
_REPORT = """
import ctypes, glob, json, os
pools = {}
for pkg in ("numpy", "scipy"):
    base = os.path.dirname(os.path.dirname(__import__(pkg).__file__))
    for path in glob.glob(os.path.join(base, pkg + ".libs", "libscipy_openblas*.so")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                pools[pkg] = getter()
                break
print(json.dumps({"env": os.environ.get("OPENBLAS_NUM_THREADS"), "pools": pools}))
"""

# A short seeded BO run on the small topology with the feasibility
# screener: 20 steps take both ML-II refits and rank-1 updates.
_HISTORY = """
import json
import repro
from repro.core.checkpoint import canonical_history
from repro.core.loop import TuningLoop
from repro.experiments.presets import SYNTHETIC_BASE_CONFIG, default_cluster
from repro.experiments.runner import make_synthetic_optimizer
from repro.storm.objective import StormObjective
from repro.topology_gen.suite import make_topology

topology = make_topology("small")
cluster = default_cluster()
optimizer, codec = make_synthetic_optimizer(
    "bo", topology, cluster, SYNTHETIC_BASE_CONFIG, 20, 0, fidelity="analytic"
)
result = TuningLoop(
    StormObjective(topology, cluster, codec, seed=0), optimizer, max_steps=20
).run()
telemetry = optimizer.telemetry
print(json.dumps({
    "history": canonical_history(result.observations).decode(),
    "refits": telemetry["gp_full_refits"],
    "updates": telemetry["gp_incremental_updates"],
}))
"""


def _child(code: str, threads: str | None = None) -> dict:
    """Run ``code`` in a fresh interpreter; ``threads`` sets the variable."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _require_pools(report: dict, *names: str) -> None:
    missing = [name for name in names if name not in report["pools"]]
    if missing:
        pytest.skip(f"no bundled OpenBLAS thread getter for {missing}")


def test_import_repro_pins_one_thread():
    report = _child("import repro\nimport numpy\nimport scipy.linalg\n" + _REPORT)
    assert report["env"] == "1"
    _require_pools(report, "numpy", "scipy")
    assert report["pools"] == {"numpy": 1, "scipy": 1}


def test_user_setting_is_left_untouched():
    report = _child(
        "import repro\nimport numpy\nimport scipy.linalg\n" + _REPORT, threads="2"
    )
    assert report["env"] == "2"


def test_numpy_first_still_pins_the_scipy_pool():
    # scipy's OpenBLAS loads lazily, with scipy.linalg, after repro set the
    # variable; numpy's loaded before it and keeps its default pool.
    report = _child("import numpy\nimport repro\nimport scipy.linalg\n" + _REPORT)
    assert report["env"] == "1"
    _require_pools(report, "scipy")
    assert report["pools"]["scipy"] == 1


def test_thread_count_does_not_change_the_history():
    one = _child(_HISTORY, threads="1")
    two = _child(_HISTORY, threads="2")
    assert one["refits"] >= 2 and one["updates"] >= 1, one
    assert (one["refits"], one["updates"]) == (two["refits"], two["updates"])
    assert one["history"].encode() == two["history"].encode()


def _top_level_imports(path: Path) -> list[str]:
    """Top-level package of every module-level import, in source order."""
    tops = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Import):
            tops.extend(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            tops.append(node.module.split(".")[0])
    return tops


@pytest.mark.parametrize(
    "path",
    sorted((ROOT / "benchmarks").glob("*.py")),
    ids=lambda p: p.name,
)
def test_benchmark_scripts_import_repro_before_numpy(path):
    # Run as scripts, benchmarks load numpy's OpenBLAS when they first
    # import numpy or scipy: repro must come first to pin its pool.
    tops = _top_level_imports(path)
    first_repro = tops.index("repro") if "repro" in tops else len(tops)
    early = [top for top in tops[:first_repro] if top in ("numpy", "scipy")]
    assert not early, f"{path.name} imports {early} before repro"
