"""Castro-like Sedov simulation driver.

Puts the pieces together the way Castro does on Summit: initialize the
blast, advance with CFL-controlled steps, regrid every ``regrid_int``
coarse steps from density-gradient tags, and write an N-to-N plotfile
every ``plot_int`` coarse steps (plus step 0), recording every file into
an I/O trace.

Solver strategy (docs/ARCHITECTURE.md, "The engine duality"): the flow
field lives on one uniform grid at the *finest* resolution
(``n_cell * ref_ratio^max_level``) and advances with proper fine-CFL
substeps — ``ref_ratio^max_level`` fine steps per coarse step, Castro's
effective subcycling cadence.  Each step runs the kernel only on the box
where the mesh is not uniform, which is where the blast is; every other
cell would get an update of exactly zero.  The AMR hierarchy (tagging ->
clustering -> grids -> distribution) is built from that solution and
fully determines the quantity the paper measures:
bytes per (timestep, level, task).  This keeps the physics honest where
it matters for I/O (where the refined boxes are) at tractable cost; the
paper-scale meshes use :mod:`repro.workload` instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .. import sanitize
from ..amr.boxarray import BoxArray
from ..amr.hierarchy import AmrHierarchy, AmrParams
from ..amr.interp import restrict_average
from ..amr.tagging import TagCriteria, tag_gradient
from ..hydro.boundary import BC, apply_boundary
from ..hydro.eos import GammaLawEOS
from ..hydro.flux import NGHOST_REQUIRED, active_box, advance_patch
from ..hydro.sedov import SedovProblem
from ..hydro.state import NCOMP, QP, URHO, cons_to_prim
from ..hydro.timestep import TimestepController, cfl_timestep
from ..hydro.workspace import Workspace
from ..iosim.darshan import IOTrace
from ..iosim.filesystem import FileSystem, VirtualFileSystem
from ..platform import get_platform
from ..plotfile.writer import PlotfileSpec, write_plotfile
from .inputs import CastroInputs

__all__ = ["CastroSim", "SimResult", "OutputEvent"]


@dataclass(frozen=True)
class OutputEvent:
    """One plotfile dump: identity plus per-level layout snapshot."""

    step: int
    time: float
    cells_per_level: Tuple[int, ...]
    grids_per_level: Tuple[int, ...]


@dataclass
class SimResult:
    """Everything a campaign collects from one run."""

    inputs: CastroInputs
    nprocs: int
    trace: IOTrace
    outputs: List[OutputEvent] = field(default_factory=list)
    final_time: float = 0.0
    steps_taken: int = 0
    mass_history: List[float] = field(default_factory=list)
    machine: str = "summit"  # repro.platform registry name the run targets

    @property
    def n_outputs(self) -> int:
        return len(self.outputs)


class CastroSim:
    """End-to-end Sedov run with AMR-layout-faithful I/O accounting."""

    def __init__(
        self,
        inputs: CastroInputs,
        nprocs: int = 1,
        problem: Optional[SedovProblem] = None,
        eos: Optional[GammaLawEOS] = None,
        fs: Optional[FileSystem] = None,
        tag_criteria: TagCriteria = TagCriteria(rel_gradient=0.25),
        distribution_strategy: str = "sfc",
        nnodes: int = 1,
        machine: str = "summit",
    ) -> None:
        self.inputs = inputs
        self.nprocs = int(nprocs)
        self.problem = problem or SedovProblem()
        self.eos = eos or GammaLawEOS()
        self.fs = fs if fs is not None else VirtualFileSystem()
        self.tag_criteria = tag_criteria
        self.trace = IOTrace()
        self.nnodes = nnodes
        platform = get_platform(machine)
        platform.check_nodes(self.nnodes)  # the job fits on the machine
        self.machine = platform.name

        inp = inputs
        self._fine_factor = inp.ref_ratio**inp.max_level
        self._fine_shape = (
            inp.n_cell[0] * self._fine_factor,
            inp.n_cell[1] * self._fine_factor,
        )
        self.hierarchy = AmrHierarchy(
            AmrParams(
                n_cell=inp.n_cell,
                max_level=inp.max_level,
                ref_ratio=inp.ref_ratio,
                regrid_int=inp.regrid_int,
                blocking_factor=inp.blocking_factor,
                max_grid_size=inp.max_grid_size,
            ),
            nprocs=self.nprocs,
            prob_lo=inp.prob_lo,
            prob_hi=inp.prob_hi,
            distribution_strategy=distribution_strategy,
        )
        self._g = NGHOST_REQUIRED
        self._fine_geom = self.hierarchy.geom(0)
        for _ in range(inp.max_level):
            self._fine_geom = self._fine_geom.refine(inp.ref_ratio)
        self._U = self._initialize_state()
        # Scratch for the fine steps: sized by the first, reused by all.
        self._ws = Workspace()
        # Rows and columns (r0, r1, c0, c1) of _U that hold every
        # neighbour pair whose bits differ; None until the first fine
        # step scans the whole array.  Only _fine_advance_once writes
        # _U, and it narrows this window after each step (_scan_after).
        self._scan: Optional[Tuple[int, int, int, int]] = None
        self._tc = TimestepController(
            cfl=inp.cfl, init_shrink=inp.init_shrink, change_max=inp.change_max
        )
        # Dump configuration is immutable for the run's lifetime: build
        # the spec once so every write_plot replays it (and, with it,
        # the writer's cached per-level size plans between regrids).
        self._plot_spec = PlotfileSpec(
            prefix=inp.plot_file,
            derive_all=inp.derive_plot_vars.upper() == "ALL",
            nprocs=self.nprocs,
            nnodes=self.nnodes,
        )
        self.time = 0.0
        self.step = 0

    # ------------------------------------------------------------------
    def _initialize_state(self) -> np.ndarray:
        g = self._g
        nx, ny = self._fine_shape
        geom = self._fine_geom
        X, Y = geom.cell_centers(geom.domain)
        U0 = self.problem.initialize(X, Y, self.eos, geom.cell_volume())
        U = np.zeros((NCOMP, nx + 2 * g, ny + 2 * g))
        U[:, g : g + nx, g : g + ny] = U0
        return U

    # ------------------------------------------------------------------
    def _field_at_level(self, field: np.ndarray, level: int) -> np.ndarray:
        """Restrict a fine-resolution field to a level's resolution."""
        factor = self.inputs.ref_ratio ** (self.inputs.max_level - level)
        if factor == 1:
            return field
        return restrict_average(field, factor)

    def regrid(self) -> None:
        """Regrid from density *or* pressure gradient tags.

        This is Castro's Sedov tagging.  At t=0 the blast is a pure pressure discontinuity (density is
        uniform), so pressure tagging is what seeds the initial refined
        levels around the energy source.  The fine-resolution density
        and pressure fields are computed once per regrid — one
        ``cons_to_prim`` pass over the mesh — and only *restricted* per
        level inside the tag callback.
        """
        g = self._g
        interior = self._U[:, g:-g, g:-g]
        rho = interior[URHO]
        pressure = cons_to_prim(interior, self.eos)[QP]

        def tag_fn(level: int, geom) -> np.ndarray:
            return tag_gradient(
                self._field_at_level(rho, level), self.tag_criteria
            ) | tag_gradient(
                self._field_at_level(pressure, level), self.tag_criteria
            )

        self.hierarchy.regrid(tag_fn)

    # ------------------------------------------------------------------
    def _fine_advance_once(self) -> float:
        """One fine step; returns the dt taken.

        The kernel runs only on the box :func:`active_box` finds once
        the ghosts are filled; every cell outside it would get an update
        of exactly zero.  The primitives are computed once, over the box
        and its ghost layers, and feed both the CFL step and the kernel.
        The CFL max over the box's valid cells is the max over the mesh:
        each uniform region outside the box also covers part of the
        box's margin, and a max is exact in any order.  A mesh with no
        differing pair skips the kernel and takes the step from one cell.
        """
        g = self._g
        inp = self.inputs
        U = self._U
        apply_boundary(U, g, inp.lo_bc, inp.hi_bc)
        box = active_box(U, g, within=self._scan)
        i0, i1, j0, j1 = (g, g + 1, g, g + 1) if box is None else box
        patch = U[:, i0 - g : i1 + g, j0 - g : j1 + g]
        W = cons_to_prim(patch, self.eos, ws=self._ws)
        dx, dy = self._fine_geom.cell_size
        dt_cfl = cfl_timestep(W[:, g:-g, g:-g], dx, dy, inp.cfl, self.eos)
        dt = self._tc.next_dt(dt_cfl)
        dense = self._dense_step(box, dt_cfl, dt) if sanitize.enabled() else None
        if box is not None:
            U[:, i0:i1, j0:j1] = advance_patch(
                patch, dt, dx, dy, self.eos, nghost=g, W=W, ws=self._ws
            )
        if dense is not None:
            sanitize.check(
                np.array_equal(U[:, g:-g, g:-g].view(np.uint64), dense.view(np.uint64)),
                f"coarse step {self.step}: box {box} step differs from the dense step",
            )
        self._scan = self._scan_after(box)
        return dt

    def _scan_after(self, box: Optional[Tuple[int, int, int, int]]) -> Tuple[int, int, int, int]:
        """The window the next fine step scans, after one that wrote ``box``.

        A pair that differs at the next scan either differed at this one
        (it lies within ``g`` of the box, which is this scan's touched
        cells grown by ``g``), touches a cell the kernel wrote, or
        touches a ghost that ``apply_boundary`` refilled from a written
        cell.  Those sources lie within ``g`` of a wall, so a box that
        close has its window reach that edge.  The box grown by
        ``2g + 1``, taken out to any edge it comes within ``3g`` of,
        holds them all.  No box: nothing was written and nothing differs.
        """
        if box is None:
            return (0, 0, 0, 0)
        g = self._g
        X, Y = self._U.shape[-2:]
        grow = 2 * g + 1
        r0, r1, c0, c1 = box[0] - grow, box[1] + grow, box[2] - grow, box[3] + grow
        return (
            0 if r0 <= 3 * g else r0,
            X if r1 >= X - 3 * g else r1,
            0 if c0 <= 3 * g else c0,
            Y if c1 >= Y - 3 * g else c1,
        )

    def _dense_step(
        self, box: Optional[Tuple[int, int, int, int]], dt_cfl: float, dt: float
    ) -> np.ndarray:
        """The sanitizer's cross-check of one fine step, before it writes.

        Rescans the whole ghosted array and checks that ``box`` contains
        the box that scan finds, checks ``dt_cfl`` against the full-mesh
        CFL value bit for bit, and returns the dense full-mesh kernel's
        result for the valid cells.  It uses a workspace of its own: the
        step's primitives and result live in ``self._ws``.
        """
        g = self._g
        U = self._U
        full = active_box(U, g)
        sanitize.check(
            full is None
            or (box is not None and box[0] <= full[0] and full[1] <= box[1]
                and box[2] <= full[2] and full[3] <= box[3]),
            f"coarse step {self.step}: the scan window found box {box}, a full scan {full}",
        )
        ws = Workspace()
        W = cons_to_prim(U, self.eos, ws=ws)
        dx, dy = self._fine_geom.cell_size
        full_cfl = cfl_timestep(W[:, g:-g, g:-g], dx, dy, self.inputs.cfl, self.eos)
        sanitize.check(
            full_cfl.hex() == dt_cfl.hex(),
            f"coarse step {self.step}: box CFL step {dt_cfl!r}, full-mesh {full_cfl!r}",
        )
        return advance_patch(U, dt, dx, dy, self.eos, nghost=g, W=W, ws=ws)

    def advance_coarse_step(self) -> float:
        """One coarse step = ref_ratio^max_level fine substeps."""
        dt_total = 0.0
        for _ in range(self._fine_factor):
            dt_total += self._fine_advance_once()
        self.time += dt_total
        self.step += 1
        return dt_total

    # ------------------------------------------------------------------
    def write_plot(self) -> OutputEvent:
        levels = self.hierarchy.levels
        write_plotfile(
            self.fs,
            self._plot_spec,
            self.step,
            self.time,
            [lv.geom for lv in levels],
            [lv.boxarray for lv in levels],
            [lv.distribution for lv in levels],
            ref_ratio=self.inputs.ref_ratio,
            trace=self.trace,
        )
        return OutputEvent(
            step=self.step,
            time=self.time,
            cells_per_level=tuple(lv.ncells for lv in levels),
            grids_per_level=tuple(len(lv.boxarray) for lv in levels),
        )

    def total_mass(self) -> float:
        g = self._g
        rho = self._U[URHO, g:-g, g:-g]
        return float(rho.sum()) * self._fine_geom.cell_volume()

    # ------------------------------------------------------------------
    def run(self) -> SimResult:
        """Full run: init -> (advance, regrid, dump) loop -> result."""
        inp = self.inputs
        result = SimResult(
            inputs=inp, nprocs=self.nprocs, trace=self.trace, machine=self.machine
        )
        self.regrid()
        result.outputs.append(self.write_plot())
        result.mass_history.append(self.total_mass())
        while self.step < inp.max_step and self.time < inp.stop_time:
            self.advance_coarse_step()
            if self.step % inp.regrid_int == 0:
                self.regrid()
            if self.step % inp.plot_int == 0:
                result.outputs.append(self.write_plot())
                result.mass_history.append(self.total_mass())
        result.final_time = self.time
        result.steps_taken = self.step
        return result
