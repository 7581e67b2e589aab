"""Tests for the inter-level restriction operator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.amr.interp import restrict_average


class TestRestrictAverage:
    def test_block_means(self):
        f = np.arange(16, dtype=float).reshape(4, 4)
        c = restrict_average(f, 2)
        assert c.shape == (2, 2)
        assert c[0, 0] == pytest.approx(np.mean([0, 1, 4, 5]))

    def test_indivisible_raises(self):
        with pytest.raises(ValueError):
            restrict_average(np.ones((5, 4)), 2)


@settings(max_examples=30, deadline=None)
@given(arrays(np.float64, (8, 8), elements=st.floats(-100, 100)), st.sampled_from([2, 4]))
def test_restrict_conserves_total(fine, ratio):
    """Averaging down preserves the integral (sum * cell volume)."""
    coarse = restrict_average(fine, ratio)
    assert np.isclose(coarse.sum() * ratio**2, fine.sum(), rtol=1e-12, atol=1e-9)


@settings(max_examples=30, deadline=None)
@given(arrays(np.float64, (6, 6), elements=st.floats(-50, 50)), st.sampled_from([2, 3]))
def test_prolong_then_restrict_identity(coarse, ratio):
    """Averaging down a piecewise-constant injection recovers the coarse data."""
    fine = np.repeat(np.repeat(coarse, ratio, axis=0), ratio, axis=1)
    assert np.allclose(restrict_average(fine, ratio), coarse)

