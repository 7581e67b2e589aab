"""Analytic refined-region model: shock annulus + hot core.

In a Sedov blast, refinement tracks the shock front — an annulus of
radius R(t) — plus the steep-gradient core around the energy source
(Fig. 4a: "the fine-grained refined levels are generated near the source
terms").  This module turns that geometry into tag masks at *tile*
granularity so the real clustering/grid machinery can run at any mesh
size: a 131072^2 level examined at 256-cell tiles is only a 512^2
boolean array.

The band widths are the model's physical coefficients
(:class:`AnnulusCoefficients`); the validation suite fits them against
the real solver at small scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..amr.box import Box
from ..amr.boxarray import BoxArray
from ..amr.cluster import ClusterParams, berger_rigoutsos
from ..amr.geometry import Geometry
from ..amr.grid import GridParams, chop_to_max_size

__all__ = ["AnnulusCoefficients", "refined_region_mask", "annulus_boxarray"]

# Largest tile mask annulus_boxarray builds, in entries: the 131072^2
# sweep mesh's level 3 at tile 256 (~180 MB at ~11 bytes per tile).
_MAX_MASK_ENTRIES = 4096 * 4096


@dataclass(frozen=True)
class AnnulusCoefficients:
    """Geometry of the tagged region per refinement level.

    The tag band for building level ``l`` (tags live on level ``l-1``)
    is ``|r - R| <= w_l`` with
    ``w_l = max(rel_width * R / narrow^(l-1), min_cells * dx_{l-1})``,
    plus a core disk of radius ``max(core_rel * R, core_min * r_init)``.
    Finer levels get narrower bands (``narrow > 1``), reproducing the
    nested-annulus layouts of Fig. 4a.
    """

    rel_width: float = 0.08
    narrow: float = 2.0
    min_cells: float = 2.0
    core_rel: float = 0.15
    core_min: float = 1.2

    def band_half_width(self, level: int, radius: float, dx_coarse: float) -> float:
        """Half-width of the tag band for building ``level`` (>= 1)."""
        if level < 1:
            raise ValueError("bands exist for levels >= 1")
        w_phys = self.rel_width * radius / self.narrow ** (level - 1)
        w_mesh = self.min_cells * dx_coarse
        return max(w_phys, w_mesh)

    def core_radius(self, radius: float, r_init: float) -> float:
        return max(self.core_rel * radius, self.core_min * r_init)


def refined_region_mask(
    geom: Geometry,
    tile: int,
    radius: float,
    half_width: float,
    core_radius: float,
    center: Tuple[float, float] = (0.0, 0.0),
) -> np.ndarray:
    """Boolean tile mask of the tagged region on a level.

    A tile is tagged when it *geometrically intersects* the band
    ``|r - R| <= half_width`` or the core disk.  The test is exact for
    axis-aligned tiles: the nearest point of a tile to the blast center
    is the clamped projection, the farthest is the opposite corner, and
    the tile meets the band iff ``[r_min, r_max]`` overlaps
    ``[R - w, R + w]``.  (Partial tiles still count fully — the same
    whole-grid rounding a real regrid performs at blocking-factor
    granularity.)

    Cost: the per-axis distances are computed once per tile column and
    row and only their squared sum is broadcast, so a level costs one
    float64 buffer (reused for ``r_min`` and then ``r_max``) plus a few
    bool masks: ~11 bytes per tile at peak.
    """
    nx, ny = geom.domain.shape
    if nx % tile or ny % tile:
        raise ValueError(f"domain {geom.domain.shape} not divisible by tile {tile}")
    tnx, tny = nx // tile, ny // tile
    dx, dy = geom.cell_size
    # Tile bounds in physical coordinates: x as a column, y as a row.
    x_lo = (geom.prob_lo[0] + np.arange(tnx) * tile * dx)[:, None]
    x_hi = x_lo + tile * dx
    y_lo = (geom.prob_lo[1] + np.arange(tny) * tile * dy)[None, :]
    y_hi = y_lo + tile * dy
    cx, cy = center
    # Nearest point of each tile to the center (clamped projection).
    nearest_dx = np.maximum(np.maximum(x_lo - cx, cx - x_hi), 0.0)
    nearest_dy = np.maximum(np.maximum(y_lo - cy, cy - y_hi), 0.0)
    # Farthest corner of each tile from the center.
    far_dx = np.maximum(np.abs(x_lo - cx), np.abs(x_hi - cx))
    far_dy = np.maximum(np.abs(y_lo - cy), np.abs(y_hi - cy))
    r = nearest_dx**2 + nearest_dy**2
    np.sqrt(r, out=r)  # r_min
    in_core = r <= core_radius
    mask = r <= radius + half_width
    np.add(far_dx**2, far_dy**2, out=r)
    np.sqrt(r, out=r)  # r_max
    mask &= r >= radius - half_width
    mask |= in_core
    return mask


def annulus_boxarray(
    geom: Geometry,
    radius: float,
    half_width: float,
    core_radius: float,
    grid_params: GridParams,
    tile: Optional[int] = None,
    center: Tuple[float, float] = (0.0, 0.0),
    grid_eff: float = 0.7,
) -> BoxArray:
    """BoxArray covering the tagged region of one level.

    Clusters the tile mask with Berger–Rigoutsos, scales tile boxes back
    to cells, and chops to ``max_grid_size`` — the same pipeline a real
    regrid runs, at tile granularity.

    ``tile`` defaults to the blocking factor, doubled while the mask
    has more than 2048^2 entries, the doubled tile is at most
    ``max_grid_size`` and it still divides the domain.  A domain with
    few factors of two keeps a small tile and a large mask (131064 =
    8·16383 cells a side keeps tile 8 and a 16383^2 mask, ~2.9 GB at the
    ~11 bytes per tile of :func:`refined_region_mask`), so a mask over
    4096^2 entries is refused with a ``ValueError`` before it is built.
    """
    nx, ny = geom.domain.shape
    if tile is None:
        tile = grid_params.blocking_factor
        # Shrink the tile mask towards ~2048^2 entries, doubling only
        # while the doubled tile still divides the domain.
        while ((nx // tile) * (ny // tile) > 2048 * 2048
               and tile * 2 <= grid_params.max_grid_size
               and nx % (2 * tile) == 0 and ny % (2 * tile) == 0):
            tile *= 2
    if tile % grid_params.blocking_factor:
        raise ValueError("tile must be a multiple of blocking_factor")
    if (nx // tile) * (ny // tile) > _MAX_MASK_ENTRIES:
        raise ValueError(
            f"tile mask of domain {geom.domain.shape} at tile {tile} has "
            f"{nx // tile}x{ny // tile} entries, over the limit of 4096^2"
        )
    mask = refined_region_mask(geom, tile, radius, half_width, core_radius, center)
    if not mask.any():
        return BoxArray()
    clustered = berger_rigoutsos(mask, params=ClusterParams(grid_eff=grid_eff))
    boxes: List[Box] = []
    for b in clustered:
        cell_box = Box(
            (b.lo[0] * tile, b.lo[1] * tile),
            ((b.hi[0] + 1) * tile - 1, (b.hi[1] + 1) * tile - 1),
        )
        clipped = cell_box.intersection(geom.domain)
        if clipped is None:
            continue
        boxes.extend(chop_to_max_size(clipped, grid_params.max_grid_size))
    boxes.sort()
    return BoxArray(boxes)
