"""Berger–Rigoutsos clustering of tagged cells into boxes.

This is the algorithm AMReX uses (``MakeBoxes``/``ClusterList``) to turn a
scattered set of tagged cells into a small set of rectangular grids with a
minimum *grid efficiency* (fraction of cells inside a returned box that
are actually tagged).  The recursive split rules follow the published
algorithm:

1. Compute tag *signatures* (per-row and per-column tag counts) over the
   bounding box of the tags.
2. If efficiency is already acceptable, accept the bounding box.
3. Otherwise try to split at a *hole* (zero signature), else at the
   strongest *inflection point* of the signature's second difference,
   else bisect, and recurse on both halves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .box import Box

__all__ = ["berger_rigoutsos", "ClusterParams", "grid_efficiency"]


@dataclass(frozen=True)
class ClusterParams:
    """Knobs of the clustering pass.

    ``grid_eff`` matches ``amr.grid_eff`` (AMReX default 0.7); boxes stop
    splitting once at least this fraction of their cells is tagged.
    ``max_boxes`` is a safety valve for adversarial inputs.
    """

    grid_eff: float = 0.7
    min_side: int = 1
    max_boxes: int = 100_000


def grid_efficiency(tags: np.ndarray, box: Box, origin: Tuple[int, int]) -> float:
    """Fraction of cells of ``box`` (in tag-array coords) that are tagged."""
    sl = box.slices(origin)
    sub = tags[sl]
    if sub.size == 0:
        return 0.0
    return float(np.count_nonzero(sub)) / float(sub.size)


def _tag_bounding_box(tags: np.ndarray, box: Box, origin: Tuple[int, int]) -> Optional[Box]:
    """Smallest sub-box of ``box`` containing all its tags, or None."""
    sub = tags[box.slices(origin)]
    # Tagged rows and columns from two reductions, not an index per tag.
    rows = np.flatnonzero(sub.any(axis=1))
    if rows.size == 0:
        return None
    cols = np.flatnonzero(sub.any(axis=0))
    return Box(
        (box.lo[0] + int(rows[0]), box.lo[1] + int(cols[0])),
        (box.lo[0] + int(rows[-1]), box.lo[1] + int(cols[-1])),
    )


def _signatures(tags: np.ndarray, box: Box, origin: Tuple[int, int]) -> Tuple[np.ndarray, np.ndarray]:
    sub = tags[box.slices(origin)]
    return sub.sum(axis=1, dtype=np.int64), sub.sum(axis=0, dtype=np.int64)


def _find_hole(sig: np.ndarray) -> Optional[int]:
    """Index (1..n-1) of a zero-signature split plane, preferring central."""
    zeros = np.nonzero(sig == 0)[0]
    # Interior zeros only: a zero at the edge can't split.
    zeros = zeros[(zeros > 0) & (zeros < len(sig) - 1)]
    if zeros.size == 0:
        return None
    center = (len(sig) - 1) / 2.0
    best = int(zeros[np.argmin(np.abs(zeros - center))])
    return best


def _find_inflection(sig: np.ndarray) -> Optional[Tuple[int, int]]:
    """Strongest sign change of the Laplacian of the signature.

    Returns ``(index, strength)`` where the split is between ``index-1``
    and ``index``; None when no inflection exists.
    """
    if len(sig) < 4:
        return None
    lap = sig[2:] - 2 * sig[1:-1] + sig[:-2]  # second difference, len n-2
    best_idx: Optional[int] = None
    best_strength = 0
    for k in range(len(lap) - 1):
        if lap[k] * lap[k + 1] < 0:
            strength = abs(int(lap[k]) - int(lap[k + 1]))
            if strength > best_strength:
                best_strength = strength
                best_idx = k + 2  # split plane between cells k+1 and k+2
    if best_idx is None:
        return None
    return best_idx, best_strength


def berger_rigoutsos(
    tags: np.ndarray,
    origin: Tuple[int, int] = (0, 0),
    params: ClusterParams = ClusterParams(),
) -> List[Box]:
    """Cluster a boolean tag array into boxes with minimum efficiency.

    Parameters
    ----------
    tags:
        2-D boolean array; ``tags[i, j]`` refers to cell
        ``(origin[0] + i, origin[1] + j)``.
    origin:
        Index-space coordinates of ``tags[0, 0]``.
    params:
        Efficiency target and limits.

    Returns
    -------
    list of Box
        Disjoint boxes covering every tagged cell, each with grid
        efficiency >= ``params.grid_eff`` (or unsplittable).
    """
    if tags.ndim != 2:
        raise ValueError("tags must be 2-D")
    if not tags.any():
        return []
    full = Box.from_size(origin, tags.shape)
    first = _tag_bounding_box(tags, full, origin)
    assert first is not None
    stack: List[Box] = [first]
    accepted: List[Box] = []
    while stack:
        if len(accepted) + len(stack) > params.max_boxes:
            # Give up splitting: accept everything left as-is.
            accepted.extend(stack)
            break
        box = stack.pop()
        eff = grid_efficiency(tags, box, origin)
        if eff >= params.grid_eff or box.numpts == 1:
            accepted.append(box)
            continue
        split = _choose_split(tags, box, origin, params)
        if split is None:
            accepted.append(box)
            continue
        axis, at = split
        left, right = box.chop(axis, at)
        for part in (left, right):
            shrunk = _tag_bounding_box(tags, part, origin)
            if shrunk is not None:
                stack.append(shrunk)
    accepted.sort()
    return accepted


def _choose_split(
    tags: np.ndarray, box: Box, origin: Tuple[int, int], params: ClusterParams
) -> Optional[Tuple[int, int]]:
    """Pick (axis, chop index) per the BR hole/inflection/bisect rules."""
    sig_i, sig_j = _signatures(tags, box, origin)
    nx, ny = box.shape
    # 1. Holes (prefer the longer axis's hole).
    candidates: List[Tuple[int, int, int]] = []  # (axis, at, priority)
    for axis, sig, n in ((0, sig_i, nx), (1, sig_j, ny)):
        if n < 2 * params.min_side:
            continue
        hole = _find_hole(sig)
        if hole is not None and params.min_side <= hole <= n - params.min_side:
            candidates.append((axis, box.lo[axis] + hole, n))
    if candidates:
        axis, at, _ = max(candidates, key=lambda c: c[2])
        return axis, at
    # 2. Inflection points: pick the strongest across both axes.
    best: Optional[Tuple[int, int, int]] = None  # (axis, at, strength)
    for axis, sig, n in ((0, sig_i, nx), (1, sig_j, ny)):
        if n < 2 * params.min_side:
            continue
        infl = _find_inflection(sig)
        if infl is not None:
            idx, strength = infl
            if params.min_side <= idx <= n - params.min_side:
                if best is None or strength > best[2]:
                    best = (axis, box.lo[axis] + idx, strength)
    if best is not None:
        return best[0], best[1]
    # 3. Bisect the long axis.
    axis = 0 if nx >= ny else 1
    n = box.shape[axis]
    if n < 2 * params.min_side or n < 2:
        return None
    return axis, box.lo[axis] + n // 2
