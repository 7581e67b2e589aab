"""The solver's box step against the dense full-mesh step.

``CastroSim`` advances only the box of cells whose update can be
non-zero (``repro.hydro.flux.active_box``), and scans for that box only
in a window around the previous one.  ``DenseCastroSim`` below keeps the
dense step verbatim — full-mesh ``cons_to_prim``, CFL and
``advance_patch`` — as the frozen oracle.  Every comparison is of raw
bits: the final state (ghost frame included), the mass history as float
hex and the trace's bytes per (step, level, rank).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.castro as castro
from repro.hydro.boundary import BC, apply_boundary
from repro.hydro.flux import active_box, advance_patch
from repro.hydro.sedov import SedovProblem
from repro.hydro.state import NCOMP, QP, QRHO, QU, QV, UMX, cons_to_prim, prim_to_cons
from repro.hydro.timestep import cfl_timestep
from repro.sanitize import SanitizeError
from repro.sim.castro import CastroSim
from repro.sim.inputs import CastroInputs

OUT, WALL = BC.OUTFLOW, BC.SYMMETRY


class DenseCastroSim(CastroSim):
    """``CastroSim`` with the dense fine step, as it stood before the box
    step (its ``_fine_advance_once`` body verbatim)."""

    def _fine_advance_once(self) -> float:
        g = self._g
        inp = self.inputs
        apply_boundary(self._U, g, inp.lo_bc, inp.hi_bc)
        W = cons_to_prim(self._U, self.eos, ws=self._ws)
        dx, dy = self._fine_geom.cell_size
        dt = self._tc.next_dt(cfl_timestep(W[:, g:-g, g:-g], dx, dy, inp.cfl, self.eos))
        self._U[:, g:-g, g:-g] = advance_patch(
            self._U, dt, dx, dy, self.eos, nghost=g, W=W, ws=self._ws
        )
        return dt


class UniformFlow:
    """One moving state everywhere: no pair differs until a wall
    reflects the flow."""

    def __init__(self, u: float, v: float) -> None:
        self.u, self.v = u, v

    def initialize(self, X, Y, eos, cell_volume):
        W = np.empty((NCOMP,) + X.shape)
        W[QRHO], W[QU], W[QV], W[QP] = 1.0, self.u, self.v, 1.0
        return prim_to_cons(W, eos)


def inputs(n=32, max_level=1, max_step=8, lo_bc=(OUT, OUT), hi_bc=(OUT, OUT), **kw):
    return CastroInputs(
        n_cell=(n, n), max_level=max_level, max_step=max_step, plot_int=2,
        regrid_int=2, cfl=0.5, stop_time=1e9, max_grid_size=32,
        blocking_factor=8, lo_bc=lo_bc, hi_bc=hi_bc, **kw,
    )


# name: (inputs, problem, nprocs, where the kernel runs)
CASES = {
    # the perfbench solver_sedov workload at its tiny size
    "perfbench_tiny": (
        CastroInputs(n_cell=(16, 16), max_level=1, max_step=4, plot_int=2,
                     regrid_int=2, cfl=0.5, stop_time=1e9, max_grid_size=32,
                     blocking_factor=8),
        SedovProblem(r_init=0.06), 4, "box"),
    # off-centre, so the shock reaches the walls at different times; a
    # wall's -0.0 ghost momentum differs from the +0.0 it mirrors, so
    # four walls put the whole mesh in the box
    "reflecting_off_centre": (
        inputs(max_step=24, lo_bc=(WALL, WALL), hi_bc=(WALL, WALL)),
        SedovProblem(r_init=0.08, center=(0.3, 0.62)), 2, "whole mesh"),
    # the shock leaves through the lo-x edge: the box is clipped there
    "outflow_edge": (
        inputs(max_step=24),
        SedovProblem(r_init=0.08, center=(0.08, 0.55)), 2, "box"),
    # one reflecting wall: the box spans that wall and the blast
    "mixed_walls": (
        inputs(max_step=24, lo_bc=(WALL, OUT), hi_bc=(OUT, OUT)),
        SedovProblem(r_init=0.08, center=(0.15, 0.6)), 2, "box"),
    # no pair ever differs
    "uniform_flow_outflow": (
        inputs(n=16, max_step=6), UniformFlow(0.3, -0.2), 1, "skipped"),
    "uniform_flow_reflecting": (
        inputs(n=16, max_step=6, lo_bc=(WALL, WALL), hi_bc=(WALL, WALL)),
        UniformFlow(0.3, -0.2), 1, "whole mesh"),
}


def observed(sim, result):
    return (
        sim._U.tobytes(),
        [float(m).hex() for m in result.mass_history],
        sorted(result.trace.bytes_step_level_rank().items()),
    )


@pytest.fixture
def advanced_cells(monkeypatch):
    """Cells of every box step, counted at the kernel's call site."""
    # the sanitizer's dense cross-check calls the kernel there too
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    cells = []

    def counted(U, *args, **kwargs):
        out = advance_patch(U, *args, **kwargs)
        cells.append(out.shape[-2] * out.shape[-1])
        return out

    monkeypatch.setattr(castro, "advance_patch", counted)
    return cells


@pytest.mark.parametrize("name", sorted(CASES))
def test_box_run_matches_dense_run(name, advanced_cells):
    case_inputs, problem, nprocs, kernel = CASES[name]
    runs = []
    for cls in (CastroSim, DenseCastroSim):
        sim = cls(case_inputs, nprocs=nprocs, problem=problem)
        runs.append(observed(sim, sim.run()))
    assert runs[0] == runs[1]
    if kernel == "skipped":
        assert advanced_cells == []
    else:
        steps = case_inputs.max_step * sim._fine_factor
        assert len(advanced_cells) == steps
        whole = steps * sim._fine_shape[0] * sim._fine_shape[1]
        assert (sum(advanced_cells) == whole) == (kernel == "whole mesh")


def test_nan_cell_still_raises():
    """``TestNonFiniteState``'s NaN cell: the box holds it, so the CFL
    step sees it."""
    for cls in (CastroSim, DenseCastroSim):
        sim = cls(inputs(n=16, max_step=6), nprocs=1, problem=SedovProblem(r_init=0.1))
        g = sim._g
        sim._U[UMX, g + 3, g + 5] = np.nan
        with pytest.raises(ValueError, match="smax"):
            sim.run()


def test_window_never_misses_a_pair(monkeypatch):
    """Over a whole run with a reflecting wall, each windowed scan finds
    the box a scan of the whole array finds."""
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    scans = []

    def checked(U, nghost, within=None):
        box = active_box(U, nghost, within)
        if within is not None:
            assert box == active_box(U, nghost), (within, box)
            scans.append(within)
        return box

    monkeypatch.setattr(castro, "active_box", checked)
    case_inputs, problem, nprocs, _ = CASES["mixed_walls"]
    sim = CastroSim(case_inputs, nprocs=nprocs, problem=problem)
    sim.run()
    X, Y = sim._U.shape[-2:]
    assert len(scans) == case_inputs.max_step * sim._fine_factor - 1
    # the window was narrower than the array on some steps
    assert any((r1 - r0) * (c1 - c0) < X * Y for r0, r1, c0, c1 in scans)


def test_sanitizer_catches_a_window_that_misses(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    sim = CastroSim(inputs(n=16, max_step=4), nprocs=1, problem=SedovProblem(r_init=0.1))
    sim.regrid()
    sim.advance_coarse_step()
    sim._scan = (0, 1, 0, 1)  # holds no pair at all
    with pytest.raises(SanitizeError, match="scan window"):
        sim.advance_coarse_step()


# ----------------------------------------------------------------------
# One step of random piecewise-constant states on random walls.
# ----------------------------------------------------------------------
N = 16
G = 2
PRIMS = st.tuples(
    st.floats(0.1, 10.0),
    st.sampled_from([0.0, -0.0, 0.7, -1.3]) | st.floats(-3.0, 3.0),
    st.sampled_from([0.0, -0.0, 0.4, -2.1]) | st.floats(-3.0, 3.0),
    st.floats(0.01, 100.0),
)
BLOCKS = st.lists(
    st.tuples(st.integers(0, N - 1), st.integers(1, N), st.integers(0, N - 1),
              st.integers(1, N), PRIMS),
    max_size=3,
)
WALLS = st.tuples(*[st.sampled_from([OUT, WALL])] * 4)


def piecewise_state(background, blocks):
    W = np.empty((NCOMP, N, N))
    W[:] = np.asarray(background)[:, None, None]
    for i0, di, j0, dj, prim in blocks:
        W[:, i0 : i0 + di, j0 : j0 + dj] = np.asarray(prim)[:, None, None]
    return W


@settings(max_examples=60, deadline=None)
@given(background=PRIMS, blocks=BLOCKS, walls=WALLS)
def test_box_step_matches_dense_step(background, blocks, walls):
    case_inputs = inputs(n=N, max_level=0, lo_bc=walls[:2], hi_bc=walls[2:])
    sims = [cls(case_inputs, nprocs=1) for cls in (CastroSim, DenseCastroSim)]
    W = piecewise_state(background, blocks)
    for sim in sims:
        sim._U[:, G:-G, G:-G] = prim_to_cons(W, sim.eos)
    # the first step scans the whole array, the second its window
    for _ in range(2):
        dts = [sim._fine_advance_once() for sim in sims]
        assert dts[0].hex() == dts[1].hex()
        assert sims[0]._U.tobytes() == sims[1]._U.tobytes()
