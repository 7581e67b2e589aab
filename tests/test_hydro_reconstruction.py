"""Tests for the minmod limiter and interface reconstruction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.hydro.reconstruction import interface_states, limited_slopes, minmod


class TestMinmod:
    def test_same_sign_picks_smaller(self):
        assert minmod(np.array([2.0]), np.array([1.0]))[0] == 1.0
        assert minmod(np.array([-3.0]), np.array([-1.0]))[0] == -1.0

    def test_opposite_sign_zero(self):
        assert minmod(np.array([2.0]), np.array([-1.0]))[0] == 0.0

    def test_zero_input(self):
        assert minmod(np.array([0.0]), np.array([5.0]))[0] == 0.0


class TestSlopes:
    def test_constant_zero_slope(self):
        W = np.full((4, 8, 8), 2.0)
        for axis in (1, 2):
            assert np.allclose(limited_slopes(W, axis), 0.0)

    def test_linear_slope_interior(self):
        W = np.zeros((1, 8, 4))
        W[0] = np.arange(8)[:, None] * 3.0
        dW = limited_slopes(W, axis=1)
        assert np.allclose(dW[0, 1:-1, :], 3.0)
        assert np.allclose(dW[0, 0, :], 0.0)  # edge zeroed

    def test_bad_axis(self):
        with pytest.raises(ValueError):
            limited_slopes(np.zeros((1, 4, 4)), 0)


class TestInterfaceStates:
    def test_shapes(self):
        W = np.random.default_rng(0).random((4, 10, 6)) + 1.0
        WL, WR = interface_states(W, axis=1)
        assert WL.shape == (4, 9, 6)
        assert WR.shape == (4, 9, 6)
        WL, WR = interface_states(W, axis=2)
        assert WL.shape == (4, 10, 5)

    def test_constant_field_exact(self):
        W = np.full((4, 8, 8), 3.3)
        WL, WR = interface_states(W, axis=1)
        assert np.allclose(WL, 3.3) and np.allclose(WR, 3.3)

    def test_linear_field_continuous_at_interfaces(self):
        """For a linear profile, WL == WR at interior interfaces."""
        W = np.zeros((1, 10, 4))
        W[0] = np.arange(10)[:, None] * 2.0
        WL, WR = interface_states(W, axis=1)
        # interfaces away from the zero-slope edge cells
        assert np.allclose(WL[0, 2:-2, :], WR[0, 2:-2, :])


@settings(max_examples=40, deadline=None)
@given(arrays(np.float64, (6,), elements=st.floats(-100, 100)),
       arrays(np.float64, (6,), elements=st.floats(-100, 100)))
def test_limiter_tvd_property(a, b):
    """Minmod: result sign matches inputs, bounded by 2*min(|a|,|b|),
    zero at extrema."""
    out = minmod(a, b)
    opposite = a * b <= 0
    assert np.allclose(out[opposite], 0.0)
    same = ~opposite
    assert (np.abs(out[same]) <= 2.0 * np.minimum(np.abs(a[same]), np.abs(b[same])) + 1e-12).all()
    assert (out[same] * a[same] >= 0).all()
