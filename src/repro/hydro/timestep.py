"""CFL-based time-step control (Castro's ``estTimeStep`` logic).

Implements the three knobs of the paper's input file that shape the step
sequence — ``castro.cfl``, ``castro.init_shrink`` and
``castro.change_max`` — which in turn determine how much physical time
(and hence shock travel, refined area, and output bytes) elapses between
plotfile dumps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .eos import GammaLawEOS
from .state import QP, QRHO, QU, QV

__all__ = ["TimestepController", "cfl_timestep", "max_signal_speed"]


def max_signal_speed(W: np.ndarray, dx: float, dy: float, eos: GammaLawEOS) -> float:
    """``max((|u|+c)/dx + (|v|+c)/dy)`` over the cells of ``W``.

    The reduction underlying :func:`cfl_timestep`, exposed separately so
    a level solver can take the max over many fabs in one pass and do a
    single division — ``min_f(cfl / s_f) == cfl / max_f(s_f)`` exactly
    (IEEE division is monotone), so batching is bit-identical to the
    per-fab ``min`` of dts.
    """
    c = eos.sound_speed(W[QRHO], W[QP])
    sx = (np.abs(W[QU]) + c) / dx
    sy = (np.abs(W[QV]) + c) / dy
    return float(np.max(sx + sy))


def cfl_timestep(W: np.ndarray, dx: float, dy: float, cfl: float, eos: GammaLawEOS) -> float:
    """Largest stable dt for primitive state ``W`` on spacing (dx, dy).

    ``dt = cfl / max((|u|+c)/dx, (|v|+c)/dy)``, the standard explicit
    hydrodynamics criterion (dimensionally split form Castro uses).

    A non-finite state (``smax`` NaN or infinite) is refused rather than
    turned into a NaN or zero step that would end a run silently.
    """
    smax = max_signal_speed(W, dx, dy, eos)
    if not 0.0 < smax < math.inf:
        raise ValueError(f"signal speed smax={smax}; cannot compute a CFL step")
    return cfl / smax


@dataclass
class TimestepController:
    """Stateful dt selection with init_shrink and change_max ramping.

    Parameters mirror Listing 2: ``cfl=0.5``, ``init_shrink=0.01``,
    ``change_max=1.1``.
    """

    cfl: float = 0.5
    init_shrink: float = 0.01
    change_max: float = 1.1
    dt_prev: Optional[float] = None

    def first_dt(self, dt_cfl: float) -> float:
        """Initial step: CFL estimate scaled back by ``init_shrink``."""
        dt = dt_cfl * self.init_shrink
        self.dt_prev = dt
        return dt

    def next_dt(self, dt_cfl: float) -> float:
        """Subsequent steps: grow at most ``change_max`` per step."""
        if self.dt_prev is None:
            return self.first_dt(dt_cfl)
        dt = min(dt_cfl, self.dt_prev * self.change_max)
        self.dt_prev = dt
        return dt

    def reset(self) -> None:
        self.dt_prev = None
