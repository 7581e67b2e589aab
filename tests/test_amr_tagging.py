"""Tests for repro.amr.tagging."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.amr.tagging import TagCriteria, buffer_tags, tag_gradient


class TestGradientTagging:
    def test_uniform_field_untagged(self):
        field = np.ones((16, 16))
        assert not tag_gradient(field).any()

    def test_step_tagged_both_sides(self):
        field = np.ones((16, 16))
        field[8:, :] = 2.0
        tags = tag_gradient(field, TagCriteria(rel_gradient=0.25))
        assert tags[7, :].all() and tags[8, :].all()
        assert not tags[0, :].any() and not tags[15, :].any()

    def test_threshold_respected(self):
        field = np.ones((8, 8))
        field[4:, :] = 1.1  # 10% jump
        assert not tag_gradient(field, TagCriteria(rel_gradient=0.25)).any()
        assert tag_gradient(field, TagCriteria(rel_gradient=0.05)).any()

    def test_y_direction_jump(self):
        field = np.ones((8, 8))
        field[:, 4:] = 3.0
        tags = tag_gradient(field)
        assert tags[:, 3].all() and tags[:, 4].all()

    def test_small_values_guarded(self):
        """Near-zero fields must not divide by zero."""
        field = np.zeros((8, 8))
        field[4, 4] = 1e-30
        tags = tag_gradient(field)  # must not warn/raise
        assert tags.shape == (8, 8)

    def test_1d_rejected(self):
        with pytest.raises(ValueError):
            tag_gradient(np.ones(10))


class TestBufferTags:
    def test_zero_buffer_copies(self):
        tags = np.zeros((8, 8), bool)
        tags[4, 4] = True
        out = buffer_tags(tags, 0)
        assert (out == tags).all()
        assert out is not tags

    def test_single_point_l1_ball(self):
        tags = np.zeros((9, 9), bool)
        tags[4, 4] = True
        out = buffer_tags(tags, 2)
        # L1 ball of radius 2 has 13 cells
        assert out.sum() == 13
        assert out[4, 4] and out[2, 4] and out[4, 6]
        assert not out[2, 2]  # corner at L1 distance 4

    def test_buffer_clipped_at_edges(self):
        tags = np.zeros((4, 4), bool)
        tags[0, 0] = True
        out = buffer_tags(tags, 1)
        assert out.sum() == 3  # (0,0), (1,0), (0,1)


@given(arrays(bool, (12, 12)), st.integers(0, 3))
def test_buffer_monotone_and_superset(tags, n):
    out = buffer_tags(tags, n)
    # Buffering never removes tags and is monotone in n.
    assert (out | tags == out).all()
    assert out.sum() >= tags.sum()
    if n > 0:
        smaller = buffer_tags(tags, n - 1)
        assert (out | smaller == out).all()
