"""Inter-level restriction: conservative averaging of fine data onto the
coarse level, as in AMReX's ``average_down``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["restrict_average"]


def restrict_average(fine: np.ndarray, ratio: int) -> np.ndarray:
    """Conservative average-down: mean over each ratio x ratio block."""
    if fine.ndim != 2:
        raise ValueError("restrict_average expects 2-D input")
    nfx, nfy = fine.shape
    if nfx % ratio or nfy % ratio:
        raise ValueError(f"fine shape {fine.shape} not divisible by ratio {ratio}")
    ncx, ncy = nfx // ratio, nfy // ratio
    return fine.reshape(ncx, ratio, ncy, ratio).mean(axis=(1, 3))
