"""Analytic Sedov AMR I/O workload generator.

Produces the same artifact a :class:`~repro.sim.castro.CastroSim` run
produces — an :class:`~repro.iosim.darshan.IOTrace` of plotfile writes
per (timestep, level, task) — but from the Sedov–Taylor solution rather
than a PDE solve, so it covers the paper's full Table III envelope
(meshes to 131072^2, 1024 ranks) in seconds.

Pipeline per dump: analytic time (:mod:`.timebase`) -> shock radius ->
per-level tag bands (:mod:`.annulus`) -> Berger–Rigoutsos + grid chop ->
distribution mapping -> N-to-N plotfile size accounting
(:mod:`repro.plotfile.writer`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ..amr.boxarray import BoxArray
from ..amr.box import Box
from ..amr.distribution import make_distribution
from ..amr.geometry import Geometry
from ..amr.grid import GridParams, clip_boxarray, make_level_grids
from ..hydro.eos import GammaLawEOS
from ..hydro.sedov import SedovProblem
from ..iosim.darshan import IOTrace
from ..iosim.filesystem import FileSystem, VirtualFileSystem
from ..platform import get_platform
from ..plotfile.writer import PlotfileSpec, write_plotfile
from ..sim.castro import OutputEvent, SimResult
from ..sim.inputs import CastroInputs
from .annulus import AnnulusCoefficients, annulus_boxarray
from .timebase import SedovTimebase

__all__ = ["SedovWorkloadGenerator"]


class SedovWorkloadGenerator:
    """Generates AMR plotfile workloads analytically.

    Parameters mirror :class:`~repro.sim.castro.CastroSim` so campaign
    code can choose either engine per case.
    """

    def __init__(
        self,
        inputs: CastroInputs,
        nprocs: int = 1,
        problem: Optional[SedovProblem] = None,
        eos: Optional[GammaLawEOS] = None,
        fs: Optional[FileSystem] = None,
        coefficients: AnnulusCoefficients = AnnulusCoefficients(),
        distribution_strategy: str = "sfc",
        nnodes: int = 1,
        machine: str = "summit",
    ) -> None:
        self.inputs = inputs
        self.nprocs = int(nprocs)
        self.problem = problem or SedovProblem()
        self.eos = eos or GammaLawEOS()
        self.fs = fs if fs is not None else VirtualFileSystem()
        self.coefficients = coefficients
        self.distribution_strategy = distribution_strategy
        self.nnodes = nnodes
        platform = get_platform(machine)
        platform.check_nodes(self.nnodes)  # the job fits on the machine
        self.machine = platform.name
        self.trace = IOTrace()
        base_domain = Box.cell_centered(*inputs.n_cell)
        self._geoms: List[Geometry] = [
            Geometry(base_domain, inputs.prob_lo, inputs.prob_hi)
        ]
        for _ in range(inputs.max_level):
            self._geoms.append(self._geoms[-1].refine(inputs.ref_ratio))
        self._grid_params = GridParams(inputs.blocking_factor, inputs.max_grid_size)
        # The base level never depends on time: chop it once, not per dump.
        self._base_ba = make_level_grids(
            [self._geoms[0].domain],
            self._geoms[0].domain,
            self._grid_params,
            min_grids=self.nprocs,
        )
        # Per-level (BoxArray, DistributionMapping) memo of the previous
        # dump: mapping construction is deterministic in the layout, so
        # an unchanged layout (saturated annulus, static base) replays
        # the previous mapping instead of re-running the SFC packer.
        self._dm_memo: dict = {}
        self.timebase = SedovTimebase(
            self.problem,
            self.eos,
            self._geoms[0].dx,
            inputs.cfl,
            inputs.init_shrink,
            inputs.change_max,
        )

    # ------------------------------------------------------------------
    def level_layout(self, t: float) -> List[BoxArray]:
        """Per-level BoxArrays at time ``t`` (coarsest first)."""
        inp = self.inputs
        co = self.coefficients
        radius = self.problem.shock_radius(t) if t > 0 else 0.0
        effective_r = max(radius, self.problem.r_init)
        out: List[BoxArray] = [self._base_ba]
        prev: Optional[BoxArray] = None
        for lev in range(1, inp.max_level + 1):
            geom = self._geoms[lev]
            dx_coarse = self._geoms[lev - 1].dx
            w = co.band_half_width(lev, effective_r, dx_coarse)
            core = co.core_radius(effective_r, self.problem.r_init)
            ba = annulus_boxarray(
                geom,
                effective_r,
                w,
                core,
                self._grid_params,
                center=self.problem.center,
            )
            if len(ba) == 0:
                break
            if prev is not None:
                # Proper nesting: clip into the parent's refined image.
                ba = clip_boxarray(
                    ba, prev.refine(inp.ref_ratio), self._grid_params.max_grid_size
                )
                if len(ba) == 0:
                    break
            out.append(ba)
            prev = ba
        return out

    # ------------------------------------------------------------------
    def _layout_for(self, lev: int, ba: BoxArray):
        """Canonical ``(BoxArray, DistributionMapping)`` for a level.

        When the layout is unchanged from the previous dump the memoized
        *pair* is returned — the mapping (``make_distribution`` is
        deterministic, so replay is bit-identical to recomputation) and
        the previous BoxArray object itself, whose ``memo`` carries the
        plotfile writer's level plan and Header block across dumps
        instead of re-deriving identical accounting."""
        memo = self._dm_memo.get(lev)
        if memo is not None and memo[0].same_boxes(ba):
            return memo
        dm = make_distribution(ba, self.nprocs, self.distribution_strategy)
        memo = (ba, dm)
        self._dm_memo[lev] = memo
        return memo

    # ------------------------------------------------------------------
    def run(self) -> SimResult:
        """Generate all dumps of the configured run."""
        inp = self.inputs
        result = SimResult(
            inputs=inp, nprocs=self.nprocs, trace=self.trace, machine=self.machine
        )
        spec = PlotfileSpec(
            prefix=inp.plot_file,
            derive_all=inp.derive_plot_vars.upper() == "ALL",
            nprocs=self.nprocs,
            nnodes=self.nnodes,
        )
        events = self.timebase.output_times(inp.max_step, inp.plot_int, inp.stop_time)
        final_t = 0.0
        for step, t in events:
            pairs = [
                self._layout_for(lev, ba)
                for lev, ba in enumerate(self.level_layout(t))
            ]
            bas = [ba for ba, _ in pairs]
            geoms = self._geoms[: len(bas)]
            dms = [dm for _, dm in pairs]
            write_plotfile(
                self.fs, spec, step, t, geoms, bas, dms,
                ref_ratio=inp.ref_ratio, trace=self.trace,
            )
            result.outputs.append(
                OutputEvent(
                    step=step,
                    time=t,
                    cells_per_level=tuple(ba.numpts for ba in bas),
                    grids_per_level=tuple(len(ba) for ba in bas),
                )
            )
            final_t = t
        result.final_time = final_t
        result.steps_taken = events[-1][0] if events else 0
        return result


