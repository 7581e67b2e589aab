"""Tier-1 pin of the solver engine's output.

``perfbench/run.py`` and ``perfbench/selftest.py`` catch solver drift,
but neither runs in this suite.  This runs the benchmark's own
``SolverSedov`` workload at its tiny and its full size, loading
``perfbench/worker.py`` by path without changing anything there, and
checks its outputs against ``perfbench/reference.json`` and its final
state against a recorded hash.  The full run also counts the cells the
kernel advanced, at the call site a traced run wraps.
"""

import hashlib
import importlib.util
import json
import types
from pathlib import Path

import pytest

import repro.sim.castro as castro
from repro.hydro.state import UEDEN

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# sha256 of the tiny run's final conserved state (ghost frame included)
TINY_FINAL_U_SHA256 = "5e10c8b6dd4a0bbbb8c386d370f352803307fd610c4b642fedcd1144167c3f41"
# the same for the full run, recorded with the dense full-mesh step
FULL_FINAL_U_SHA256 = "6f382f419ffd4618ce15227b73e4e4dc0460e55be579de6fefe1865990fc7fa4"
# the dense step's cell updates in the full run: 96 fine steps of 256^2
FULL_DENSE_CELLS = 96 * 256 * 256


def load_worker():
    # perfbench/ is a script directory, not a package: load worker.py by path.
    spec = importlib.util.spec_from_file_location("perfbench_worker", PERFBENCH / "worker.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def total_energy(sim):
    """Sum of the total energy density over the valid fine cells."""
    g = sim._g
    return float(sim._U[UEDEN, g:-g, g:-g].sum())


def run_solver(size):
    """The workload after its run, its checks, and its total energy
    before the run."""
    workload = load_worker().SolverSedov(types.SimpleNamespace(tiny=size == "tiny"))
    energy_before = total_energy(workload.sim)
    workload.run()
    ref = json.loads((PERFBENCH / "reference.json").read_text())[size]["solver_sedov"]
    return workload, workload.check(ref), energy_before


@pytest.fixture(scope="module")
def tiny_solver_run():
    return run_solver("tiny")


@pytest.fixture(scope="module")
def full_solver_run():
    """The full run, plus the cells each ``advance_patch`` call returned
    and the total energy before the run."""
    advance = castro.advance_patch
    cells = []

    def counted(*args, **kwargs):
        out = advance(*args, **kwargs)
        cells.append(out.shape[-2] * out.shape[-1])
        return out

    with pytest.MonkeyPatch.context() as mp:
        # the sanitizer's dense cross-check runs the kernel at that call
        # site too; the count is of the run's own work
        mp.delenv("REPRO_SANITIZE", raising=False)
        mp.setattr(castro, "advance_patch", counted)
        workload, out, energy_before = run_solver("full")
    return workload, out, cells, energy_before


def assert_checks_pass(out):
    failed = [name for name, ok in out["checks"].items() if not ok]
    assert out["checks"] and not failed, (failed, out["info"], out["digest"])


def test_every_perfbench_check_passes(tiny_solver_run):
    assert_checks_pass(tiny_solver_run[1])


def test_final_state_hash(tiny_solver_run):
    workload = tiny_solver_run[0]
    assert hashlib.sha256(workload.sim._U.tobytes()).hexdigest() == TINY_FINAL_U_SHA256


def test_full_size_checks_pass(full_solver_run):
    assert_checks_pass(full_solver_run[1])


def test_full_size_conserves_total_energy(full_solver_run):
    # outflow walls with the blast far inside: no energy leaves the
    # domain, so the drift is rounding only (it reads exactly 0.0)
    workload, energy_before = full_solver_run[0], full_solver_run[3]
    drift = abs(total_energy(workload.sim) - energy_before) / energy_before
    assert drift <= 1e-12, (energy_before.hex(), drift)


def test_full_size_final_state_hash(full_solver_run):
    workload = full_solver_run[0]
    assert hashlib.sha256(workload.sim._U.tobytes()).hexdigest() == FULL_FINAL_U_SHA256


def test_full_size_advances_under_a_tenth_of_the_mesh(full_solver_run):
    cells = full_solver_run[2]
    assert len(cells) == 96
    assert sum(cells) < FULL_DENSE_CELLS // 10, sum(cells)
