"""Tier-1 pin of the solver engine's output.

``perfbench/run.py`` and ``perfbench/selftest.py`` catch solver drift,
but neither runs in this suite.  This runs the benchmark's own
``SolverSedov`` workload at its tiny size, loading ``perfbench/worker.py``
by path without changing anything there, and checks its outputs against
``perfbench/reference.json`` and its final state against a recorded
hash.
"""

import hashlib
import importlib.util
import json
import types
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# sha256 of the tiny run's final conserved state (ghost frame included)
TINY_FINAL_U_SHA256 = "5e10c8b6dd4a0bbbb8c386d370f352803307fd610c4b642fedcd1144167c3f41"


def load_worker():
    # perfbench/ is a script directory, not a package: load worker.py by path.
    spec = importlib.util.spec_from_file_location("perfbench_worker", PERFBENCH / "worker.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tiny_solver_run():
    workload = load_worker().SolverSedov(types.SimpleNamespace(tiny=True))
    workload.run()
    ref = json.loads((PERFBENCH / "reference.json").read_text())["tiny"]["solver_sedov"]
    return workload, workload.check(ref)


def test_every_perfbench_check_passes(tiny_solver_run):
    _, out = tiny_solver_run
    failed = [name for name, ok in out["checks"].items() if not ok]
    assert out["checks"] and not failed, (failed, out["info"], out["digest"])


def test_final_state_hash(tiny_solver_run):
    workload, _ = tiny_solver_run
    assert hashlib.sha256(workload.sim._U.tobytes()).hexdigest() == TINY_FINAL_U_SHA256
