"""Conserved/primitive state layout and conversions.

The 2-D compressible Euler system evolves the conserved vector
``U = (rho, rho u, rho v, rho E)``; the solver reconstructs in the
primitive variables ``W = (rho, u, v, p)``.  Components are the leading
axis of shape-(4, nx, ny) arrays throughout the solver, matching the
component-leading layout of Castro's per-box state data (FABs).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .eos import GammaLawEOS
from .workspace import Workspace

__all__ = [
    "NCOMP",
    "URHO",
    "UMX",
    "UMY",
    "UEDEN",
    "QRHO",
    "QU",
    "QV",
    "QP",
    "cons_to_prim",
    "prim_to_cons",
    "mach_number",
]

NCOMP = 4

# Conserved component indices (Castro naming).
URHO, UMX, UMY, UEDEN = 0, 1, 2, 3
# Primitive component indices.
QRHO, QU, QV, QP = 0, 1, 2, 3


def cons_to_prim(U: np.ndarray, eos: GammaLawEOS, *, ws: Optional[Workspace] = None) -> np.ndarray:
    """Convert conserved state (4, ...) to primitive (4, ...).

    Applies the EOS density/pressure floors for robustness near vacuum,
    as Castro does after each hydro update.  The result is ``ws``'s
    ``"W"`` buffer, valid until the next conversion on ``ws``; without
    a workspace it is a fresh array.
    """
    ws = Workspace() if ws is None else ws
    W = ws.take("W", U.shape)
    rho, u, v, p = W[QRHO], W[QU], W[QV], W[QP]
    np.maximum(U[URHO], eos.small_density, out=rho)
    np.divide(U[UMX], rho, out=u)
    np.divide(U[UMY], rho, out=v)
    # e_int = U[UEDEN] / rho - 0.5 * (u * u + v * v), kinetic part in p
    e_int = ws.take("c2p.e_int", rho.shape)
    np.multiply(u, u, out=p)
    np.multiply(v, v, out=e_int)
    np.add(p, e_int, out=p)
    np.multiply(0.5, p, out=p)
    np.divide(U[UEDEN], rho, out=e_int)
    np.subtract(e_int, p, out=e_int)
    np.maximum(e_int, 0.0, out=e_int)
    eos.pressure(rho, e_int, out=p)
    return W


def prim_to_cons(W: np.ndarray, eos: GammaLawEOS) -> np.ndarray:
    """Convert primitive state (4, ...) to conserved (4, ...)."""
    rho = W[QRHO]
    u = W[QU]
    v = W[QV]
    p = W[QP]
    U = np.empty_like(W)
    U[URHO] = rho
    U[UMX] = rho * u
    U[UMY] = rho * v
    U[UEDEN] = eos.total_energy_density(rho, u, v, p)
    return U


def mach_number(W: np.ndarray, eos: GammaLawEOS) -> np.ndarray:
    """Local Mach number ``|V| / c`` from a primitive state."""
    speed = np.sqrt(W[QU] ** 2 + W[QV] ** 2)
    c = eos.sound_speed(W[QRHO], W[QP])
    return speed / c
