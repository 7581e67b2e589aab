"""Conserved/primitive state layout and conversions.

The 2-D compressible Euler system evolves the conserved vector
``U = (rho, rho u, rho v, rho E)``; the solver reconstructs in the
primitive variables ``W = (rho, u, v, p)``.  Components are the leading
axis of shape-(4, nx, ny) arrays throughout the solver, matching the
component-leading layout of Castro's per-box state data (FABs).
"""

from __future__ import annotations

import numpy as np

from .eos import GammaLawEOS

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


def cons_to_prim(U: np.ndarray, eos: GammaLawEOS) -> np.ndarray:
    """Convert conserved state (4, ...) to primitive (4, ...).

    Applies the EOS density/pressure floors for robustness near vacuum,
    as Castro does after each hydro update.
    """
    rho = np.maximum(U[URHO], eos.small_density)
    u = U[UMX] / rho
    v = U[UMY] / rho
    e_int = U[UEDEN] / rho - 0.5 * (u * u + v * v)
    p = eos.pressure(rho, np.maximum(e_int, 0.0))
    W = np.empty_like(U)
    W[QRHO] = rho
    W[QU] = u
    W[QV] = v
    W[QP] = p
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
