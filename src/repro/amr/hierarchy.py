"""The AMR level hierarchy (AMReX ``Amr``/``AmrCore`` analogue).

Holds per-level geometry, box arrays, distribution mappings, and data,
plus the regrid driver that re-clusters tagged cells every
``regrid_int`` steps — the machinery whose *output* (the evolving box
layout) drives all the I/O sizes the paper measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .box import Box
from .boxarray import BoxArray
from .cluster import ClusterParams, berger_rigoutsos
from .distribution import DistributionMapping, make_distribution
from .geometry import Geometry
from .grid import GridParams, make_level_grids
from .tagging import buffer_tags

__all__ = ["AmrParams", "AmrHierarchy", "LevelState"]


@dataclass(frozen=True)
class AmrParams:
    """The ``amr.*`` input-file knobs used in the paper (Table I + Listing 2)."""

    n_cell: Tuple[int, int] = (32, 32)
    max_level: int = 3
    ref_ratio: int = 2
    regrid_int: int = 2
    blocking_factor: int = 8
    max_grid_size: int = 256
    n_error_buf: int = 2
    grid_eff: float = 0.7

    def __post_init__(self) -> None:
        if self.max_level < 0:
            raise ValueError("max_level must be >= 0")
        if self.ref_ratio < 2:
            raise ValueError("ref_ratio must be >= 2")
        if self.blocking_factor < 1:
            raise ValueError(
                f"blocking_factor must be >= 1, got {self.blocking_factor}")
        if self.n_cell[0] % self.blocking_factor or self.n_cell[1] % self.blocking_factor:
            raise ValueError(
                f"n_cell {self.n_cell} must be divisible by "
                f"blocking_factor {self.blocking_factor}"
            )

    @property
    def nlevels(self) -> int:
        """Number of levels including the base (max_level + 1)."""
        return self.max_level + 1

    def grid_params(self) -> GridParams:
        return GridParams(self.blocking_factor, self.max_grid_size)


@dataclass
class LevelState:
    """One level of the hierarchy: geometry + box layout + ownership."""

    level: int
    geom: Geometry
    boxarray: BoxArray
    distribution: DistributionMapping

    @property
    def ncells(self) -> int:
        return self.boxarray.numpts


class AmrHierarchy:
    """Mesh hierarchy with regridding.

    Parameters
    ----------
    params:
        ``amr.*`` configuration.
    nprocs:
        Number of (simulated) MPI ranks.
    prob_lo / prob_hi:
        Physical domain bounds.
    distribution_strategy:
        Box-to-rank strategy; see :mod:`repro.amr.distribution`.
    """

    def __init__(
        self,
        params: AmrParams,
        nprocs: int = 1,
        prob_lo: Tuple[float, float] = (0.0, 0.0),
        prob_hi: Tuple[float, float] = (1.0, 1.0),
        distribution_strategy: str = "sfc",
    ) -> None:
        self.params = params
        self.nprocs = int(nprocs)
        self.distribution_strategy = distribution_strategy
        base_domain = Box.cell_centered(*params.n_cell)
        base_geom = Geometry(base_domain, prob_lo, prob_hi)
        self.levels: List[LevelState] = []
        # Amortization counters: how often regrid could keep a level's
        # existing LevelState (box layout unchanged) vs. rebuild it.
        self.regrid_stats: Dict[str, int] = {
            "regrids": 0,
            "levels_reused": 0,
            "levels_rebuilt": 0,
        }
        self._init_base_level(base_geom)

    # ------------------------------------------------------------------
    def _init_base_level(self, geom: Geometry) -> None:
        gp = self.params.grid_params()
        ba = make_level_grids([geom.domain], geom.domain, gp, min_grids=self.nprocs)
        dm = make_distribution(ba, self.nprocs, self.distribution_strategy)
        self.levels = [LevelState(0, geom, ba, dm)]

    # ------------------------------------------------------------------
    @property
    def finest_level(self) -> int:
        return len(self.levels) - 1

    def geom(self, level: int) -> Geometry:
        return self.levels[level].geom

    def domain(self, level: int) -> Box:
        return self.levels[level].geom.domain

    def total_cells(self) -> int:
        return sum(lev.ncells for lev in self.levels)

    # ------------------------------------------------------------------
    def regrid(self, tag_fn: Callable[[int, Geometry], np.ndarray]) -> None:
        """Rebuild levels 1..max_level from tags.

        ``tag_fn(level, geom)`` must return a boolean array over the
        *entire index domain* of ``level`` (whose geometry is passed in)
        marking cells that need refinement.  Levels are rebuilt from the
        base upward, with proper nesting enforced by construction (fine
        tags are clipped into the coarser level's own covered region).

        Rebuilds are *amortized*: when the clustered fine BoxArray is
        unchanged from the current layout of that level, the existing
        :class:`LevelState` (including its distribution mapping) is kept
        instead of being re-chopped and re-distributed — between nearby
        regrids of a slowly moving shock most levels are identical.
        ``regrid_stats`` counts reuse vs. rebuild.
        """
        p = self.params
        new_levels: List[LevelState] = [self.levels[0]]
        self.regrid_stats["regrids"] += 1
        for lev in range(p.max_level):
            coarse = new_levels[lev]
            tags = np.asarray(tag_fn(lev, coarse.geom), dtype=bool)
            expect = coarse.geom.domain.shape
            if tags.shape != expect:
                raise ValueError(
                    f"tag array for level {lev} has shape {tags.shape}, "
                    f"expected domain shape {expect}"
                )
            tags = buffer_tags(tags, p.n_error_buf)
            # Proper nesting: tags must lie inside the current level's
            # own box array (levels > 0 only cover part of the domain).
            if lev > 0:
                mask = np.zeros(expect, dtype=bool)
                for b in coarse.boxarray:
                    mask[b.slices()] = True
                tags &= mask
            if not tags.any():
                break
            clustered = berger_rigoutsos(
                tags, origin=(0, 0), params=ClusterParams(grid_eff=p.grid_eff)
            )
            fine_boxes = [b.refine(p.ref_ratio) for b in clustered]
            fine_domain = coarse.geom.domain.refine(p.ref_ratio)
            fine_geom = coarse.geom.refine(p.ref_ratio)
            ba = make_level_grids(
                fine_boxes, fine_domain, p.grid_params(), min_grids=self.nprocs
            )
            if lev > 0:
                # Proper nesting: clip into the parent's refined image
                # (blocking-factor alignment may have grown past it).
                from .grid import clip_boxarray

                ba = clip_boxarray(
                    ba, coarse.boxarray.refine(p.ref_ratio), p.max_grid_size
                )
            if len(ba) == 0:
                break
            old = self.levels[lev + 1] if lev + 1 < len(self.levels) else None
            if old is not None and old.boxarray.same_boxes(ba):
                # Layout unchanged: keep the level (and its distribution)
                # — the same BoxArray object carries the plotfile
                # writer's level plan for this level in its memo.
                new_levels.append(old)
                self.regrid_stats["levels_reused"] += 1
                continue
            dm = make_distribution(ba, self.nprocs, self.distribution_strategy)
            new_levels.append(LevelState(lev + 1, fine_geom, ba, dm))
            self.regrid_stats["levels_rebuilt"] += 1
        self.levels = new_levels

    # ------------------------------------------------------------------
    def summary(self) -> str:
        """Human-readable layout summary (one line per level)."""
        lines = []
        for lev in self.levels:
            lines.append(
                f"Level {lev.level}: {len(lev.boxarray)} grids, "
                f"{lev.ncells} cells, dx={lev.geom.dx:.6g}"
            )
        return "\n".join(lines)
