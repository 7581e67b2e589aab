"""Tests for timestep control and the Sedov problem setup."""

import numpy as np
import pytest

from repro.hydro.eos import GammaLawEOS
from repro.hydro.sedov import (
    SEDOV_XI0_2D,
    SedovProblem,
    sedov_taylor_radius,
    sedov_taylor_shock_speed,
)
from repro.hydro.state import NCOMP, QP, QU, UEDEN, URHO
from repro.hydro.timestep import TimestepController, cfl_timestep

EOS = GammaLawEOS()


class TestCflTimestep:
    def test_static_gas(self):
        W = np.empty((NCOMP, 4, 4))
        W[0], W[1], W[2], W[3] = 1.0, 0.0, 0.0, 1.0
        c = np.sqrt(1.4)
        dt = cfl_timestep(W, 0.1, 0.1, 0.5, EOS)
        assert dt == pytest.approx(0.5 / (2 * c / 0.1))

    def test_scales_with_cfl(self):
        W = np.empty((NCOMP, 4, 4))
        W[0], W[1], W[2], W[3] = 1.0, 2.0, 0.0, 1.0
        assert cfl_timestep(W, 0.1, 0.1, 0.6, EOS) == pytest.approx(
            2 * cfl_timestep(W, 0.1, 0.1, 0.3, EOS)
        )

    @pytest.mark.parametrize("comp,value", [(QU, np.nan), (QU, np.inf), (QP, np.nan)],
                             ids=["nan_u", "inf_u", "nan_p"])
    def test_non_finite_state_raises(self, comp, value):
        # a NaN cell made the step NaN and an infinite speed made it 0.0
        W = np.empty((NCOMP, 4, 4))
        W[0], W[1], W[2], W[3] = 1.0, 0.0, 0.0, 1.0
        W[comp, 1, 2] = value
        with pytest.raises(ValueError, match="smax"):
            cfl_timestep(W, 0.1, 0.1, 0.5, EOS)


class TestController:
    def test_init_shrink(self):
        tc = TimestepController(cfl=0.5, init_shrink=0.01)
        dt = tc.next_dt(1.0)
        assert dt == pytest.approx(0.01)

    def test_change_max_ramp(self):
        tc = TimestepController(init_shrink=0.01, change_max=1.1)
        dts = [tc.next_dt(1.0) for _ in range(5)]
        for a, b in zip(dts, dts[1:]):
            assert b == pytest.approx(a * 1.1)

    def test_cfl_cap_respected(self):
        tc = TimestepController(init_shrink=0.5, change_max=10.0)
        tc.next_dt(1.0)
        dt = tc.next_dt(0.6)
        assert dt == pytest.approx(0.6)

    def test_reset(self):
        tc = TimestepController(init_shrink=0.01)
        tc.next_dt(1.0)
        tc.reset()
        assert tc.next_dt(1.0) == pytest.approx(0.01)


class TestSedovTaylor:
    def test_scaling_exponent(self):
        """R ~ t^{1/2} in 2-D: quadrupling t doubles R."""
        r1 = sedov_taylor_radius(1e-3, 1.0, 1.0)
        r2 = sedov_taylor_radius(4e-3, 1.0, 1.0)
        assert r2 / r1 == pytest.approx(2.0)

    def test_energy_scaling(self):
        """R ~ E^{1/4} in 2-D."""
        r1 = sedov_taylor_radius(1e-3, 1.0, 1.0)
        r16 = sedov_taylor_radius(1e-3, 16.0, 1.0)
        assert r16 / r1 == pytest.approx(2.0)

    def test_spherical_exponent(self):
        """nu=3: R ~ t^{2/5}."""
        r1 = sedov_taylor_radius(1.0, 1.0, 1.0, nu=3)
        r32 = sedov_taylor_radius(32.0, 1.0, 1.0, nu=3)
        assert r32 / r1 == pytest.approx(32 ** (2.0 / 5.0))

    def test_shock_speed_is_derivative(self):
        t = 2e-3
        eps = 1e-8
        numeric = (
            sedov_taylor_radius(t + eps, 1.0, 1.0) - sedov_taylor_radius(t - eps, 1.0, 1.0)
        ) / (2 * eps)
        assert sedov_taylor_shock_speed(t, 1.0, 1.0) == pytest.approx(numeric, rel=1e-5)

    def test_shock_speed_undefined_at_zero(self):
        with pytest.raises(ValueError):
            sedov_taylor_shock_speed(0.0, 1.0, 1.0)


class TestSedovInit:
    def test_energy_deposited(self):
        prob = SedovProblem(exp_energy=1.0, r_init=0.1, p0=1e-9)
        n = 64
        dx = 1.0 / n
        xs = (np.arange(n) + 0.5) * dx
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        U = prob.initialize(X, Y, EOS, dx * dx)
        total_E = U[UEDEN].sum() * dx * dx
        # Quarter-plane: the in-domain quarter disk receives all of
        # exp_energy by construction (energy density = E / V_inside).
        ambient = EOS.internal_energy(np.asarray(1.0), np.asarray(1e-9)) * 1.0
        assert total_E == pytest.approx(1.0 + float(ambient), rel=1e-6)

    def test_density_uniform(self):
        prob = SedovProblem(rho0=2.5)
        xs = np.linspace(0.01, 0.99, 32)
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        U = prob.initialize(X, Y, EOS, 1e-4)
        assert np.allclose(U[URHO], 2.5)

    def test_coarse_mesh_fallback(self):
        """r_init smaller than a cell: all energy to the nearest cell."""
        prob = SedovProblem(exp_energy=3.0, r_init=1e-6)
        xs = np.array([0.25, 0.75])
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        U = prob.initialize(X, Y, EOS, 0.25)
        hot = U[UEDEN] > 1.0
        assert hot.sum() == 1
        assert hot[0, 0]  # nearest to the corner center

    def test_shock_radius_helper(self):
        prob = SedovProblem()
        assert prob.shock_radius(1e-2) == pytest.approx(
            SEDOV_XI0_2D * (1e-2**2) ** 0.25
        )
