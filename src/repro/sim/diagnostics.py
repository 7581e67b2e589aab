"""Run diagnostics (Castro's ``sum_interval`` summaries).

Shock-tracking and radial-profile diagnostics the examples and
validation tests use to confirm the solver behaves like a Sedov blast
before its I/O pattern is trusted.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..amr.geometry import Geometry
from ..hydro.eos import GammaLawEOS
from ..hydro.state import QP, cons_to_prim

__all__ = ["shock_radius_estimate", "radial_profile"]


def shock_radius_estimate(
    U: np.ndarray, geom: Geometry, eos: Optional[GammaLawEOS] = None,
    center: Tuple[float, float] = (0.0, 0.0),
) -> float:
    """Radius of the pressure front: outermost cell with p >> ambient.

    Uses the 50th-percentile-of-max threshold on pressure, robust to the
    post-shock profile shape.
    """
    eos = eos or GammaLawEOS()
    W = cons_to_prim(U, eos)
    p = W[QP]
    X, Y = geom.cell_centers(geom.domain)
    r = np.sqrt((X - center[0]) ** 2 + (Y - center[1]) ** 2)
    p_amb = float(np.median(p))
    p_max = float(p.max())
    threshold = p_amb + 0.05 * (p_max - p_amb)
    hot = p > threshold
    if not hot.any():
        return 0.0
    return float(r[hot].max())


def radial_profile(
    field: np.ndarray, geom: Geometry, nbins: int = 64,
    center: Tuple[float, float] = (0.0, 0.0),
) -> Tuple[np.ndarray, np.ndarray]:
    """Azimuthally averaged radial profile (bin centers, means)."""
    X, Y = geom.cell_centers(geom.domain)
    r = np.sqrt((X - center[0]) ** 2 + (Y - center[1]) ** 2).ravel()
    v = np.asarray(field, dtype=np.float64).ravel()
    r_max = float(r.max())
    edges = np.linspace(0.0, r_max, nbins + 1)
    idx = np.clip(np.digitize(r, edges) - 1, 0, nbins - 1)
    sums = np.bincount(idx, weights=v, minlength=nbins)
    counts = np.bincount(idx, minlength=nbins)
    means = np.divide(sums, counts, out=np.zeros(nbins), where=counts > 0)
    centers = 0.5 * (edges[:-1] + edges[1:])
    return centers, means
