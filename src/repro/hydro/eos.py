"""Gamma-law equation of state (Castro's ``eos_gamma_law``).

Castro's Sedov setup uses an ideal-gas gamma-law EOS; everything the
solver needs (pressure, sound speed, internal energy conversions) lives
here, vectorized over numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["GammaLawEOS"]


@dataclass(frozen=True)
class GammaLawEOS:
    """Ideal-gas EOS ``p = (gamma - 1) rho e``.

    Parameters
    ----------
    gamma:
        Ratio of specific heats (Castro Sedov default 1.4).
    small_pressure / small_density:
        Floors applied in recoveries, mirroring Castro's ``small_pres``
        and ``small_dens`` robustness parameters.
    """

    gamma: float = 1.4
    small_pressure: float = 1e-12
    small_density: float = 1e-12

    def pressure(self, rho: np.ndarray, e_int: np.ndarray, *, out=None) -> np.ndarray:
        """Pressure from density and specific internal energy.

        ``out`` receives the result when given (it must not alias
        ``e_int``); without it the result is a fresh array, or a NumPy
        scalar for 0-d inputs.
        """
        p = np.multiply(self.gamma - 1.0, rho, out=out)
        p = np.multiply(p, e_int, out=out)
        return np.maximum(p, self.small_pressure, out=out)

    def internal_energy(self, rho: np.ndarray, p: np.ndarray) -> np.ndarray:
        """Specific internal energy from density and pressure."""
        return p / ((self.gamma - 1.0) * np.maximum(rho, self.small_density))

    def sound_speed(self, rho: np.ndarray, p: np.ndarray, *, out=None, ws=None) -> np.ndarray:
        """Adiabatic sound speed ``sqrt(gamma p / rho)``.

        ``out`` as for :meth:`pressure` (it must not alias ``rho``);
        with it, ``ws``'s ``"eos.tmp"`` buffer holds the temporary.
        """
        tmp = None if out is None or ws is None else ws.take("eos.tmp", out.shape)
        c = np.maximum(p, self.small_pressure, out=out)
        c = np.multiply(self.gamma, c, out=out)
        d = np.maximum(rho, self.small_density, out=tmp)
        c = np.divide(c, d, out=out)
        return np.sqrt(c, out=out)

    def total_energy_density(
        self, rho: np.ndarray, u: np.ndarray, v: np.ndarray, p: np.ndarray,
        *, out=None, ws=None,
    ) -> np.ndarray:
        """Total energy per unit volume ``rho e + rho (u^2+v^2)/2``.

        ``out`` and ``ws`` as for :meth:`sound_speed` (``out`` must not
        alias any input).
        """
        tmp = None if out is None or ws is None else ws.take("eos.tmp", out.shape)
        ke = np.multiply(u, u, out=out)
        t = np.multiply(v, v, out=tmp)
        ke = np.add(ke, t, out=out)
        t = np.multiply(0.5, rho, out=tmp)
        ke = np.multiply(t, ke, out=out)
        t = np.divide(p, self.gamma - 1.0, out=tmp)
        return np.add(t, ke, out=out)
