"""Tests for the HLLC Riemann solver."""

import numpy as np
import pytest

from repro.hydro.eos import GammaLawEOS
from repro.hydro.riemann import (
    RIEMANN_SOLVERS,
    euler_flux,
    hllc_flux,
    wave_speed_estimates,
)
from repro.hydro.state import NCOMP, QP, QRHO, QU, QV, UEDEN, UMX, URHO

EOS = GammaLawEOS()


def prim(rho, u, v, p):
    W = np.empty((NCOMP, 1))
    W[QRHO], W[QU], W[QV], W[QP] = rho, u, v, p
    return W


class TestEulerFlux:
    def test_at_rest_only_pressure(self):
        F = euler_flux(prim(1.0, 0.0, 0.0, 2.0), EOS)
        assert F[URHO][0] == 0.0
        assert F[UMX][0] == 2.0
        assert F[UEDEN][0] == 0.0

    def test_mass_flux(self):
        F = euler_flux(prim(2.0, 3.0, 0.0, 1.0), EOS)
        assert F[URHO][0] == 6.0


class TestConsistency:
    """F(W, W) must equal the physical flux."""

    @pytest.mark.parametrize("solver", [hllc_flux])
    @pytest.mark.parametrize(
        "state", [(1.0, 0.0, 0.0, 1.0), (2.0, 5.0, -1.0, 0.3), (0.1, -4.0, 2.0, 10.0)]
    )
    def test_consistency(self, solver, state):
        W = prim(*state)
        F = solver(W, W, EOS)
        assert np.allclose(F, euler_flux(W, EOS), rtol=1e-12)


class TestUpwinding:
    @pytest.mark.parametrize("solver", [hllc_flux])
    def test_supersonic_right_takes_left_flux(self, solver):
        WL = prim(1.0, 10.0, 0.0, 1.0)  # Mach ~8.5
        WR = prim(0.5, 10.0, 0.0, 0.5)
        F = solver(WL, WR, EOS)
        assert np.allclose(F, euler_flux(WL, EOS))

    @pytest.mark.parametrize("solver", [hllc_flux])
    def test_supersonic_left_takes_right_flux(self, solver):
        WL = prim(1.0, -10.0, 0.0, 1.0)
        WR = prim(0.5, -10.0, 0.0, 0.5)
        F = solver(WL, WR, EOS)
        assert np.allclose(F, euler_flux(WR, EOS))


class TestWaveSpeeds:
    def test_ordering(self):
        SL, SR = wave_speed_estimates(prim(1, 0, 0, 1), prim(1, 0, 0, 1), EOS)
        assert SL[0] < 0 < SR[0]
        c = np.sqrt(1.4)
        assert SL[0] == pytest.approx(-c)
        assert SR[0] == pytest.approx(c)


class TestSodProblem:
    """Qualitative checks on the Sod shock tube initial jump."""

    def setup_method(self):
        self.WL = prim(1.0, 0.0, 0.0, 1.0)
        self.WR = prim(0.125, 0.0, 0.0, 0.1)

    @pytest.mark.parametrize("solver", [hllc_flux])
    def test_mass_flows_right(self, solver):
        F = solver(self.WL, self.WR, EOS)
        assert F[URHO][0] > 0  # expansion pushes mass rightward


class TestStrongBlast:
    """Sedov-like 1e5:1 pressure jump must stay finite."""

    @pytest.mark.parametrize("name,solver", RIEMANN_SOLVERS.items())
    def test_finite(self, name, solver):
        WL = prim(1.0, 0.0, 0.0, 1e5)
        WR = prim(1.0, 0.0, 0.0, 1e-5)
        F = solver(WL, WR, EOS)
        assert np.isfinite(F).all()
        # Equal densities at rest => zero instantaneous mass flux, but
        # momentum flux (pressure-driven) and energy flux flow rightward.
        assert F[UMX][0] > 0
        assert F[UEDEN][0] > 0

    def test_transverse_momentum_passively_advected(self):
        WL = prim(1.0, 2.0, 7.0, 1.0)
        WR = prim(1.0, 2.0, 7.0, 1.0)
        F = hllc_flux(WL, WR, EOS)
        # with uniform normal flow, transverse momentum flux = rho*u*v
        assert F[2][0] == pytest.approx(1.0 * 2.0 * 7.0)
