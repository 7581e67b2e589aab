"""Godunov update kernel (dimensionally unsplit, MUSCL–Hancock).

Given conserved state with ghost cells, computes one conservative
finite-volume update ``U += dt * (div F)`` using limited reconstruction
and an approximate Riemann solver.  This is the compute kernel of the
Castro-like solver; everything is vectorized over the patch.

y-fluxes are computed directly by passing the transposed component pair
``(QV, QU)`` to the Riemann solver (see :mod:`repro.hydro.riemann`)
instead of rotating copies of the interface states.
"""

from __future__ import annotations

import numpy as np

from .eos import GammaLawEOS
from .reconstruction import interface_states
from .riemann import RIEMANN_SOLVERS
from .state import QU, QV, cons_to_prim

__all__ = ["advance_patch", "NGHOST_REQUIRED"]

# One layer for slopes + one for the interface states feeding the first
# interior face.
NGHOST_REQUIRED = 2


def advance_patch(
    U: np.ndarray,
    dt: float,
    dx: float,
    dy: float,
    eos: GammaLawEOS,
    nghost: int = NGHOST_REQUIRED,
    riemann: str = "hllc",
    limiter: str = "minmod",
) -> np.ndarray:
    """One forward-Euler Godunov step on a ghosted patch.

    Parameters
    ----------
    U:
        Conserved state, shape (4, nx + 2g, ny + 2g); ghosts prefilled.
    dt, dx, dy:
        Step and cell sizes.
    nghost:
        Ghost layers present (>= 2 needed).
    riemann / limiter:
        Kernel choices; see :mod:`repro.hydro.riemann` and
        :mod:`repro.hydro.reconstruction`.

    Returns
    -------
    ndarray
        Updated conserved state on the *valid* region only,
        shape (4, nx, ny).
    """
    if U.ndim != 3:
        raise ValueError(f"advance_patch expects a (4, X, Y) patch, got shape {U.shape}")
    if nghost < NGHOST_REQUIRED:
        raise ValueError(f"advance needs >= {NGHOST_REQUIRED} ghosts, got {nghost}")
    try:
        solver = RIEMANN_SOLVERS[riemann]
    except KeyError:
        raise ValueError(
            f"unknown riemann solver {riemann!r}; choose from {sorted(RIEMANN_SOLVERS)}"
        ) from None
    g = nghost
    X, Y = U.shape[-2], U.shape[-1]
    nx = X - 2 * g
    ny = Y - 2 * g
    W = cons_to_prim(U, eos)

    # --- x-fluxes ------------------------------------------------------
    # Work on rows [g-1, -g+1) so slopes see one extra cell each side.
    Wx = W[..., g - 2 : X - (g - 2), g : Y - g]
    WLx, WRx = interface_states(Wx, axis=-2, limiter=limiter)
    Fx = solver(WLx, WRx, eos)
    # Interface k of Wx separates its cells k,k+1; the valid faces are
    # those bounding valid cells: indices 1 .. nx+1 of Fx.
    Fx_valid = Fx[..., 1 : nx + 2, :]  # nx+1 faces

    # --- y-fluxes (solver reads the normal velocity from QV directly) --
    Wy = W[..., g : X - g, g - 2 : Y - (g - 2)]
    WLy, WRy = interface_states(Wy, axis=-1, limiter=limiter)
    Gy = solver(WLy, WRy, eos, iu=QV, iv=QU)
    Gy_valid = Gy[..., 1 : ny + 2]  # ny+1 faces

    Uv = U[..., g : g + nx, g : g + ny]
    Unew = Uv - dt / dx * (Fx_valid[..., 1:, :] - Fx_valid[..., :-1, :]) \
              - dt / dy * (Gy_valid[..., 1:] - Gy_valid[..., :-1])
    return Unew
