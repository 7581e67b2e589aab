"""Equation (3): the ``part_size`` model and its correction factor ``f``.

    part_size = f * 8 * Nx * Ny / nprocs   [bytes],   f ~ 23 - 25

``8`` is the double-precision width; ``f`` absorbs the number of output
fields (``derive_plot_vars=ALL`` carries ~24 of them) plus format
overheads.  The paper reports the empirical range 23–25 for the Sedov
cases and pins ``1550000 ~ 23.65 * 512^2 * 8 / 32`` for case4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

__all__ = ["part_size_model", "fit_correction_factor", "F_RANGE_PAPER", "CASE4_PART_SIZE"]

# The paper's reported range for f and its pinned case4 value.
F_RANGE_PAPER: Tuple[float, float] = (23.0, 25.0)
CASE4_PART_SIZE = 1_550_000  # ~ 23.65 * 512^2 * 8 / 32


def part_size_model(f: float, nx: int, ny: int, nprocs: int) -> float:
    """Eq. (3): per-task part size in bytes."""
    if nprocs < 1:
        raise ValueError("nprocs must be >= 1")
    if nx < 1 or ny < 1:
        raise ValueError(f"mesh dimensions must be positive (nx={nx}, ny={ny})")
    if not (math.isfinite(f) and f > 0):
        raise ValueError(
            f"correction factor f must be positive and finite (got {f})"
        )
    return f * 8.0 * nx * ny / nprocs


def fit_correction_factor(
    observed_step_bytes: Sequence[float],
    nx: int,
    ny: int,
    nprocs: int,
) -> float:
    """Invert Eq. (3) from observed per-dump totals.

    ``part_size * nprocs`` should match a per-dump total; the paper
    anchors the initial data size on the early (pre-growth) dumps, so
    the fit reads dump 0.
    """
    obs = np.asarray(observed_step_bytes, dtype=np.float64)
    if obs.size == 0:
        raise ValueError("no observed dump sizes")
    if (obs < 0).any():
        raise ValueError("dump sizes cannot be negative")
    per_task = float(obs[0]) / nprocs
    return per_task / (8.0 * nx * ny / nprocs)
