"""CFL / level interpolation of ``dataset_growth``.

Appendix A step 4 gives the practitioner's rule: "Apply the proposed
model in Eq. (3) for an initial part_size ... and data_growth ~ 1.0-1.02.
The greater the cfl and number of levels, the greater the data_growth."

:func:`interpolate_growth` formalizes that as bilinear interpolation
over a small table of calibrated (cfl, max_level) -> growth anchors,
clamped to the paper's recommended range.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .growth import GROWTH_RANGE_PAPER

__all__ = ["GrowthTable", "interpolate_growth", "paper_guidance_growth"]


def paper_guidance_growth(cfl: float, max_level: int) -> float:
    """The Appendix-A rule of thumb as a closed form.

    Maps (cfl in [0.3, 0.6], max_level in [2, 4]) linearly onto the
    recommended growth band [1.0, 1.02], monotone in both inputs.
    """
    cfl_t = np.clip((cfl - 0.3) / (0.6 - 0.3), 0.0, 1.0)
    lev_t = np.clip((max_level - 2) / (4 - 2), 0.0, 1.0)
    lo, hi = GROWTH_RANGE_PAPER
    # Equal weight to both drivers; levels dominate slightly per Fig. 6.
    blend = 0.4 * cfl_t + 0.6 * lev_t
    return float(lo + blend * (hi - lo))


@dataclass
class GrowthTable:
    """Calibrated anchors: (cfl, max_level) -> dataset_growth."""

    anchors: Dict[Tuple[float, int], float] = field(default_factory=dict)

    def add(self, cfl: float, max_level: int, growth: float) -> None:
        if growth <= 0:
            raise ValueError("growth must be positive")
        self.anchors[(float(cfl), int(max_level))] = float(growth)

    def __len__(self) -> int:
        return len(self.anchors)

    def levels(self) -> List[int]:
        return sorted({l for _, l in self.anchors})


def _interp_1d(x: float, xs: Sequence[float], ys: Sequence[float]) -> float:
    """Piecewise-linear with edge clamping."""
    return float(np.interp(x, xs, ys))


def interpolate_growth(
    table: GrowthTable, cfl: float, max_level: int, clamp: bool = True
) -> float:
    """Bilinear interpolation of growth from calibrated anchors.

    Interpolates along CFL within each anchored level, then along level.
    Falls back to :func:`paper_guidance_growth` when the table is empty.
    """
    if len(table) == 0:
        return paper_guidance_growth(cfl, max_level)
    levels = table.levels()
    per_level: Dict[int, float] = {}
    for lev in levels:
        pts = sorted(
            (c, g) for (c, l), g in table.anchors.items() if l == lev
        )
        cs = [c for c, _ in pts]
        gs = [g for _, g in pts]
        per_level[lev] = _interp_1d(cfl, cs, gs)
    if len(levels) == 1:
        growth = per_level[levels[0]]
    else:
        growth = _interp_1d(
            float(max_level), [float(l) for l in levels], [per_level[l] for l in levels]
        )
    if clamp:
        lo, hi = GROWTH_RANGE_PAPER
        # Clamp softly: allow up to 1% beyond the paper band (it is a
        # guidance range, not a hard constraint).
        growth = float(np.clip(growth, lo * 0.99, hi * 1.01))
    return growth
