"""Castro-like Sedov simulation driver.

Puts the pieces together the way Castro does on Summit: initialize the
blast, advance with CFL-controlled steps, regrid every ``regrid_int``
coarse steps from density-gradient tags, and write an N-to-N plotfile
every ``plot_int`` coarse steps (plus step 0), recording every file into
an I/O trace.

Solver strategy (docs/ARCHITECTURE.md, "The engine duality"): the flow
field is advanced on a dense uniform grid at the *finest* resolution
(``n_cell * ref_ratio^max_level``) with proper fine-CFL substeps —
``ref_ratio^max_level`` fine steps per coarse step, Castro's effective
subcycling cadence.  The
AMR hierarchy (tagging -> clustering -> grids -> distribution) is built
from that solution and fully determines the quantity the paper measures:
bytes per (timestep, level, task).  This keeps the physics honest where
it matters for I/O (where the refined boxes are) at tractable cost; the
paper-scale meshes use :mod:`repro.workload` instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..amr.boxarray import BoxArray
from ..amr.hierarchy import AmrHierarchy, AmrParams
from ..amr.interp import restrict_average
from ..amr.tagging import TagCriteria, tag_gradient
from ..hydro.boundary import BC, apply_boundary
from ..hydro.eos import GammaLawEOS
from ..hydro.flux import NGHOST_REQUIRED, advance_patch
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

        The primitives are computed once, over the ghosted patch, and
        feed both the CFL step and the kernel.  Filling the ghosts
        first leaves the valid cells' primitives what they were.
        """
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
