"""Sedov blast-wave problem: initial conditions and self-similar solution.

The paper's pivot workload is Castro's ``Sedov/inputs.2d.cyl_in_cartcoords``
case: a cylindrical (2-D) blast in Cartesian coordinates.  This module
provides

- the standard initialization (energy deposited in a small region at the
  corner/center of the domain), and
- the Sedov–Taylor dimensional-analysis solution for the shock radius,
  ``R(t) = xi0 * (E t^2 / rho0)^(1/(nu+2))`` with ``nu = 2`` for a
  cylindrical blast, which is what makes the *analytic workload
  generator* (repro.workload) possible at paper scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .eos import GammaLawEOS
from .state import NCOMP, UEDEN, UMX, UMY, URHO

__all__ = ["SedovProblem", "sedov_taylor_radius", "sedov_taylor_shock_speed", "SEDOV_XI0_2D"]

# Dimensionless constant xi0 for a gamma=1.4 cylindrical (nu=2) blast.
# The exact Sedov integral gives ~1.0 for gamma=1.4 in 2-D; standard
# tabulations put the energy integral J such that xi0 = (1/J)^{1/4}
# ~= 1.004.  We carry it explicitly so the model can calibrate it.
SEDOV_XI0_2D = 1.004


def sedov_taylor_radius(
    t: float | np.ndarray, E: float, rho0: float, nu: int = 2, xi0: float = SEDOV_XI0_2D
) -> float | np.ndarray:
    """Self-similar shock radius ``xi0 (E t^2 / rho0)^{1/(nu+2)}``.

    ``nu`` is the geometry dimension: 1 planar, 2 cylindrical, 3
    spherical.  The paper's case is cylindrical (nu=2) so R ~ t^{1/2}.
    """
    t = np.asarray(t, dtype=np.float64)
    r = xi0 * (E * t * t / rho0) ** (1.0 / (nu + 2.0))
    return float(r) if r.ndim == 0 else r


def sedov_taylor_shock_speed(
    t: float, E: float, rho0: float, nu: int = 2, xi0: float = SEDOV_XI0_2D
) -> float:
    """dR/dt of the self-similar solution (2/(nu+2) * R/t)."""
    if t <= 0.0:
        raise ValueError("shock speed undefined at t <= 0")
    R = sedov_taylor_radius(t, E, rho0, nu, xi0)
    return 2.0 / (nu + 2.0) * float(R) / t


@dataclass(frozen=True)
class SedovProblem:
    """Parameters of the blast initialization (Castro probin defaults).

    ``r_init`` is the radius of the energy deposition region; ``exp_energy``
    the total deposited energy; the ambient gas is at rest with density
    ``rho0`` and (small) pressure ``p0``.  The cyl_in_cartcoords case the
    paper runs puts the blast at the domain center (0.5, 0.5) of the unit
    square with outflow on all sides — the full circular shock of Fig. 4.
    """

    exp_energy: float = 1.0
    r_init: float = 0.01
    rho0: float = 1.0
    p0: float = 1e-5
    center: Tuple[float, float] = (0.5, 0.5)
    nu: int = 2

    def initialize(
        self,
        X: np.ndarray,
        Y: np.ndarray,
        eos: GammaLawEOS,
        cell_volume: float,
    ) -> np.ndarray:
        """Conserved state array (4, nx, ny) at cell centers (X, Y).

        Energy is spread uniformly over the cells whose centers fall in
        the init circle; if the mesh is so coarse that no center falls
        inside, the nearest cell receives everything (Castro's fallback).
        In quarter-plane symmetry only 1/4 of the cylinder's energy is in
        the domain, handled by the volume accounting automatically: the
        deposited energy density is E / V_init with V_init the in-domain
        volume of the init region.
        """
        r2 = (X - self.center[0]) ** 2 + (Y - self.center[1]) ** 2
        inside = r2 <= self.r_init**2
        U = np.zeros((NCOMP,) + X.shape, dtype=np.float64)
        U[URHO] = self.rho0
        U[UMX] = 0.0
        U[UMY] = 0.0
        e_amb = eos.internal_energy(np.asarray(self.rho0), np.asarray(self.p0))
        U[UEDEN] = self.rho0 * float(e_amb)
        n_inside = int(np.count_nonzero(inside))
        if n_inside == 0:
            k = int(np.argmin(r2))
            idx = np.unravel_index(k, r2.shape)
            U[UEDEN][idx] += self.exp_energy / cell_volume
        else:
            v_init = n_inside * cell_volume
            U[UEDEN][inside] += self.exp_energy / v_init
        return U

    def shock_radius(self, t: float, xi0: float = SEDOV_XI0_2D) -> float:
        """Analytic shock radius at time ``t``."""
        return float(sedov_taylor_radius(t, self.exp_energy, self.rho0, self.nu, xi0))
