"""Godunov update kernel (dimensionally unsplit, forward Euler).

Given conserved state with ghost cells, computes one conservative
finite-volume update ``U += dt * (div F)``: piecewise-linear limited
reconstruction of the primitives at the old time level (minmod slopes,
no Hancock half-step predictor), an HLLC flux at every face of both
directions from the same old state, and one forward-Euler update.  This
is the compute kernel of the Castro-like solver; everything is
vectorized over the patch.  :func:`active_box` bounds the cells whose
update can be non-zero, so a caller can run the kernel on that box only.

y-fluxes are computed directly by passing the transposed component pair
``(QV, QU)`` to the Riemann solver (see :mod:`repro.hydro.riemann`)
instead of rotating copies of the interface states.

Every temporary lives in a :class:`~repro.hydro.workspace.Workspace`;
the x and y sweeps take the same buffer names at their two face shapes.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .eos import GammaLawEOS
from .reconstruction import interface_states
from .riemann import RIEMANN_SOLVERS
from .state import QU, QV, cons_to_prim
from .workspace import Workspace

__all__ = ["advance_patch", "active_box", "NGHOST_REQUIRED"]

# One layer for slopes + one for the interface states feeding the first
# interior face.  It is also the kernel's reach: a cell's update reads
# only the cells within this many of it along x and along y.
NGHOST_REQUIRED = 2


def active_box(
    U: np.ndarray,
    nghost: int = NGHOST_REQUIRED,
    within: Optional[Tuple[int, int, int, int]] = None,
) -> Optional[Tuple[int, int, int, int]]:
    """The box of valid cells whose update by :func:`advance_patch` can
    change their bits.

    Where every cell within ``NGHOST_REQUIRED`` of a cell along x and
    along y holds the same bits, both face fluxes of each direction come
    from identical inputs; while they are finite, their difference is
    ``+0.0`` and the cell keeps its bits, ``U - 0 - 0 = U``.  So the box
    is every row and column of ``U`` that touches a neighbour pair whose
    bits differ (in any component), grown by ``NGHOST_REQUIRED`` and
    clipped to the valid cells.  Bits, not floats: ``-0.0`` and ``+0.0``
    differ (a reflecting wall's ghost momentum), and a NaN equals its own
    bits.

    Parameters
    ----------
    U:
        Conserved state, shape (4, nx + 2g, ny + 2g), ghosts filled.
    nghost:
        Ghost layers present.
    within:
        ``(r0, r1, c0, c1)``: the half-open rows and columns of ``U`` to
        scan, for a caller that knows every differing pair lies there;
        the whole array when omitted.

    Returns
    -------
    tuple or None
        ``(i0, i1, j0, j1)``, half-open rows and columns of ``U``; None
        when no pair within reach of a valid cell differs, so that no
        valid cell changes and all of them hold the same state.
    """
    X, Y = U.shape[-2:]
    r0, r1, c0, c1 = (0, X, 0, Y) if within is None else within
    bits = U[:, r0:r1, c0:c1].view(np.uint64)
    # the cells of every pair that differs, along x and along y
    pairs_x = (bits[:, 1:, :] != bits[:, :-1, :]).any(axis=0)
    pairs_y = (bits[:, :, 1:] != bits[:, :, :-1]).any(axis=0)
    touched = np.zeros(bits.shape[1:], dtype=bool)
    touched[1:, :] |= pairs_x
    touched[:-1, :] |= pairs_x
    touched[:, 1:] |= pairs_y
    touched[:, :-1] |= pairs_y
    rows = np.flatnonzero(touched.any(axis=1))
    if not rows.size:
        return None
    cols = np.flatnonzero(touched.any(axis=0))
    reach = NGHOST_REQUIRED
    i0 = max(r0 + int(rows[0]) - reach, nghost)
    i1 = min(r0 + int(rows[-1]) + 1 + reach, X - nghost)
    j0 = max(c0 + int(cols[0]) - reach, nghost)
    j1 = min(c0 + int(cols[-1]) + 1 + reach, Y - nghost)
    if i0 >= i1 or j0 >= j1:
        return None
    return i0, i1, j0, j1


def advance_patch(
    U: np.ndarray,
    dt: float,
    dx: float,
    dy: float,
    eos: GammaLawEOS,
    nghost: int = NGHOST_REQUIRED,
    *,
    W: Optional[np.ndarray] = None,
    ws: Optional[Workspace] = None,
) -> np.ndarray:
    """One forward-Euler Godunov step on a ghosted patch.

    Parameters
    ----------
    U:
        Conserved state, shape (4, nx + 2g, ny + 2g); ghosts prefilled.
        It is not modified.
    dt, dx, dy:
        Step and cell sizes.
    nghost:
        Ghost layers present (>= 2 needed).
    W:
        ``cons_to_prim(U, eos)`` when the caller already holds it.
    ws:
        Workspace for every temporary and the result; a throwaway one
        when omitted.

    Returns
    -------
    ndarray
        Updated conserved state on the *valid* region only,
        shape (4, nx, ny): ``ws``'s ``"Unew"`` buffer, valid until the
        next call on the same workspace.
    """
    if U.ndim != 3:
        raise ValueError(f"advance_patch expects a (4, X, Y) patch, got shape {U.shape}")
    if nghost < NGHOST_REQUIRED:
        raise ValueError(f"advance needs >= {NGHOST_REQUIRED} ghosts, got {nghost}")
    solver = RIEMANN_SOLVERS["hllc"]
    ws = Workspace() if ws is None else ws
    g = nghost
    X, Y = U.shape[-2], U.shape[-1]
    nx = X - 2 * g
    ny = Y - 2 * g
    if W is None:
        W = cons_to_prim(U, eos, ws=ws)
    elif W.shape != U.shape:
        raise ValueError(f"W has shape {W.shape}, U has {U.shape}; W must be cons_to_prim(U)")
    Uv = U[..., g : g + nx, g : g + ny]
    Unew = ws.take("Unew", Uv.shape)

    # --- x-fluxes ------------------------------------------------------
    # Work on rows [g-1, -g+1) so slopes see one extra cell each side.
    Wx = W[..., g - 2 : X - (g - 2), g : Y - g]
    WLx, WRx = interface_states(Wx, axis=-2, ws=ws)
    Fx = solver(WLx, WRx, eos, ws=ws)
    # Interface k of Wx separates its cells k,k+1; the valid faces are
    # those bounding valid cells: indices 1 .. nx+1 of Fx.
    Fx_valid = Fx[..., 1 : nx + 2, :]  # nx+1 faces
    # Unew = Uv - dt/dx * (Fx[k+1] - Fx[k]), before the y-sweep reuses Fx
    np.subtract(Fx_valid[..., 1:, :], Fx_valid[..., :-1, :], out=Unew)
    np.multiply(dt / dx, Unew, out=Unew)
    np.subtract(Uv, Unew, out=Unew)

    # --- y-fluxes (solver reads the normal velocity from QV directly) --
    Wy = W[..., g : X - g, g - 2 : Y - (g - 2)]
    WLy, WRy = interface_states(Wy, axis=-1, ws=ws)
    Gy = solver(WLy, WRy, eos, iu=QV, iv=QU, ws=ws)
    Gy_valid = Gy[..., 1 : ny + 2]  # ny+1 faces
    dG = ws.take("advance.dG", Unew.shape)
    np.subtract(Gy_valid[..., 1:], Gy_valid[..., :-1], out=dG)
    np.multiply(dt / dy, dG, out=dG)
    np.subtract(Unew, dG, out=Unew)
    return Unew
