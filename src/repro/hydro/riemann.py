"""The HLLC approximate Riemann solver.

Castro defaults to a full two-shock solver; HLLC captures the same wave
families (two acoustic waves + contact) and is standard for Sedov-type
blast problems.  It is the kernel's solver.  It operates on primitive
left/right states of shape (4, ...).

The *normal*/*transverse* velocity components are parameters
``(iu, iv)`` rather than hardwired to ``(QU, QV)``: the flux driver
passes ``(QV, QU)`` for the y-direction, so y-fluxes are computed
directly in place of the old rotate → solve → un-rotate sequence and
its two full-array copies per call.  The conserved momentum indices
coincide (``UMX == QU``, ``UMY == QV``), so the same pair indexes the
flux vector.  Relabeling components this way reorders only commutative
multiplications, so the direct y-flux is bit-identical to the rotated
one.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .eos import GammaLawEOS
from .state import QP, QRHO, QU, QV, UEDEN, URHO
from .workspace import Workspace

__all__ = ["euler_flux", "hllc_flux", "wave_speed_estimates", "RIEMANN_SOLVERS"]


def euler_flux(
    W: np.ndarray, eos: GammaLawEOS, iu: int = QU, iv: int = QV, *,
    ws: Optional[Workspace] = None, out: Optional[np.ndarray] = None,
    E: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Physical Euler flux in the normal (``iu``) direction from primitives.

    The result goes to ``out`` when given, else to ``ws``'s ``"flux"``
    buffer.  ``E`` is the total energy density of ``W`` when the caller
    already holds it.  ``F[URHO]`` is the normal momentum ``rho u``.
    """
    ws = Workspace() if ws is None else ws
    rho, u, v, p = W[QRHO], W[iu], W[iv], W[QP]
    if E is None:
        E = eos.total_energy_density(rho, u, v, p, out=ws.take("euler.E", rho.shape), ws=ws)
    F = ws.take("flux", W.shape) if out is None else out
    np.multiply(rho, u, out=F[URHO])
    np.multiply(F[URHO], u, out=F[iu])
    np.add(F[iu], p, out=F[iu])
    np.multiply(F[URHO], v, out=F[iv])
    np.add(E, p, out=F[UEDEN])
    np.multiply(u, F[UEDEN], out=F[UEDEN])
    return F


def wave_speed_estimates(WL: np.ndarray, WR: np.ndarray, eos: GammaLawEOS, iu: int = QU, *,
                         ws: Optional[Workspace] = None):
    """Davis-type signal speed estimates ``(SL, SR)``, in ``ws``'s
    ``"SL"`` and ``"SR"`` buffers."""
    ws = Workspace() if ws is None else ws
    shape = WL.shape[1:]
    cL = eos.sound_speed(WL[QRHO], WL[QP], out=ws.take("waves.cL", shape), ws=ws)
    cR = eos.sound_speed(WR[QRHO], WR[QP], out=ws.take("waves.cR", shape), ws=ws)
    SL = ws.take("SL", shape)
    SR = ws.take("SR", shape)
    np.subtract(WL[iu], cL, out=SL)
    np.subtract(WR[iu], cR, out=SR)
    np.minimum(SL, SR, out=SL)
    np.add(WL[iu], cL, out=SR)
    np.add(WR[iu], cR, out=cR)
    np.maximum(SR, cR, out=SR)
    return SL, SR


def _floor_tiny(x: np.ndarray, scratch: np.ndarray, mask: np.ndarray) -> None:
    """``x = where(|x| < 1e-300, 1e-300, x)`` in place (NaN stays NaN)."""
    np.abs(x, out=scratch)
    np.less(scratch, 1e-300, out=mask)
    np.copyto(x, 1e-300, where=mask)


def _star_energy_jump(out, coef, a, E, rho, u, p, Sstar, t) -> None:
    """``out = Ustar[UEDEN] - U[UEDEN]`` on one side of the contact, with
    ``Ustar[UEDEN] = coef (E/rho + (S*-u)(S* + p/(rho (S-u) + 1e-300)))``
    and ``a = rho (S-u)``."""
    np.add(a, 1e-300, out=t)
    np.divide(p, t, out=t)
    np.add(Sstar, t, out=t)
    np.subtract(Sstar, u, out=out)
    np.multiply(out, t, out=out)
    np.divide(E, rho, out=t)
    np.add(t, out, out=t)
    np.multiply(coef, t, out=out)
    np.subtract(out, E, out=out)


def _hllc_component(Fk, FLk, SL, SR, dUL, dUR, mL, mS, mR) -> None:
    """One HLLC flux component, in place.

    On entry ``Fk`` holds ``FR_k`` and ``dUL``/``dUR`` the star-state
    jumps ``Ustar_k - U_k`` of each side (both are overwritten).  The
    star fluxes ``F_k + S (Ustar_k - U_k)`` are copied in under their
    masks in priority order, so ``Fk`` ends as the nested choice
    ``FL if SL >= 0 else FLs if S* >= 0 else FRs if SR >= 0 else FR``
    (a NaN comparison is false and falls through, as in ``np.where``).
    """
    np.multiply(SR, dUR, out=dUR)
    np.add(Fk, dUR, out=dUR)
    np.multiply(SL, dUL, out=dUL)
    np.add(FLk, dUL, out=dUL)
    np.copyto(Fk, dUR, where=mR)
    np.copyto(Fk, dUL, where=mS)
    np.copyto(Fk, FLk, where=mL)


def hllc_flux(
    WL: np.ndarray, WR: np.ndarray, eos: GammaLawEOS, iu: int = QU, iv: int = QV, *,
    ws: Optional[Workspace] = None,
) -> np.ndarray:
    """Three-wave HLLC flux (Toro's formulation), in ``ws``'s ``"flux"``
    buffer.

    The star fluxes are built one component at a time into face-sized
    scratch; ``F`` starts as ``FR`` and takes ``FRs``, ``FLs`` and
    ``FL`` under the masks ``SR >= 0``, ``S* >= 0`` and ``SL >= 0``.
    """
    ws = Workspace() if ws is None else ws
    shape = WL.shape[1:]

    def scratch(name: str, dtype=np.float64) -> np.ndarray:
        return ws.take("hllc." + name, shape, dtype)

    rhoL, uL, vL, pL = WL[QRHO], WL[iu], WL[iv], WL[QP]
    rhoR, uR, vR, pR = WR[QRHO], WR[iu], WR[iv], WR[QP]
    EL = eos.total_energy_density(rhoL, uL, vL, pL, out=scratch("EL"), ws=ws)
    ER = eos.total_energy_density(rhoR, uR, vR, pR, out=scratch("ER"), ws=ws)
    FL = euler_flux(WL, eos, iu, iv, ws=ws, out=ws.take("hllc.FL", WL.shape), E=EL)
    F = euler_flux(WR, eos, iu, iv, ws=ws, E=ER)  # FR; becomes the HLLC flux
    SL, SR = wave_speed_estimates(WL, WR, eos, iu, ws=ws)
    t, dUL, dUR = scratch("t"), scratch("dUL"), scratch("dUR")
    tiny = scratch("tiny", np.bool_)
    # S - u and rho (S - u) on each side
    dL = np.subtract(SL, uL, out=scratch("dL"))
    dR = np.subtract(SR, uR, out=scratch("dR"))
    aL = np.multiply(rhoL, dL, out=scratch("aL"))
    aR = np.multiply(rhoR, dR, out=scratch("aR"))
    # Contact speed S* (Toro eq. 10.37):
    # (pR - pL + rhoL uL (SL - uL) - rhoR uR (SR - uR)) / (aL - aR);
    # F[URHO] holds rho u of each side.
    Sstar = np.subtract(pR, pL, out=scratch("Sstar"))
    np.multiply(FL[URHO], dL, out=t)
    np.add(Sstar, t, out=Sstar)
    np.multiply(F[URHO], dR, out=t)
    np.subtract(Sstar, t, out=Sstar)
    den = np.subtract(aL, aR, out=dUL)
    _floor_tiny(den, t, tiny)
    np.divide(Sstar, den, out=Sstar)
    # star-state coefficient rho (S - u) / (S - S*) of each side
    coefL = np.subtract(SL, Sstar, out=scratch("coefL"))
    _floor_tiny(coefL, t, tiny)
    np.divide(aL, coefL, out=coefL)
    coefR = np.subtract(SR, Sstar, out=scratch("coefR"))
    _floor_tiny(coefR, t, tiny)
    np.divide(aR, coefR, out=coefR)
    mL = np.greater_equal(SL, 0.0, out=scratch("mL", np.bool_))
    mS = np.greater_equal(Sstar, 0.0, out=scratch("mS", np.bool_))
    mR = np.greater_equal(SR, 0.0, out=scratch("mR", np.bool_))
    # F[URHO] (rho u) feeds the iu jumps, so its component goes last.
    # iu: Ustar = coef S*, U = rho u
    np.multiply(coefL, Sstar, out=dUL)
    np.subtract(dUL, FL[URHO], out=dUL)
    np.multiply(coefR, Sstar, out=dUR)
    np.subtract(dUR, F[URHO], out=dUR)
    _hllc_component(F[iu], FL[iu], SL, SR, dUL, dUR, mL, mS, mR)
    # iv: Ustar = coef v, U = rho v
    np.multiply(coefL, vL, out=dUL)
    np.multiply(rhoL, vL, out=t)
    np.subtract(dUL, t, out=dUL)
    np.multiply(coefR, vR, out=dUR)
    np.multiply(rhoR, vR, out=t)
    np.subtract(dUR, t, out=dUR)
    _hllc_component(F[iv], FL[iv], SL, SR, dUL, dUR, mL, mS, mR)
    # energy
    _star_energy_jump(dUL, coefL, aL, EL, rhoL, uL, pL, Sstar, t)
    _star_energy_jump(dUR, coefR, aR, ER, rhoR, uR, pR, Sstar, t)
    _hllc_component(F[UEDEN], FL[UEDEN], SL, SR, dUL, dUR, mL, mS, mR)
    # density: Ustar = coef, U = rho
    np.subtract(coefL, rhoL, out=dUL)
    np.subtract(coefR, rhoR, out=dUR)
    _hllc_component(F[URHO], FL[URHO], SL, SR, dUL, dUR, mL, mS, mR)
    return F


# The kernel looks its solver up in this table at call time, so a
# profiler can wrap the entry without touching the kernel.
RIEMANN_SOLVERS = {"hllc": hllc_flux}
