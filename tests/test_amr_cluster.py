"""Tests for the Berger–Rigoutsos clustering algorithm."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.amr.box import Box
from repro.amr.cluster import (
    ClusterParams,
    _signatures,
    _tag_bounding_box,
    berger_rigoutsos,
    grid_efficiency,
)


def _covered(boxes, tags, origin=(0, 0)):
    """Check every tagged cell is inside some box."""
    mask = np.zeros_like(tags, dtype=bool)
    for b in boxes:
        mask[b.slices(origin)] = True
    return bool((mask | ~tags).all())


class TestBasics:
    def test_empty_tags(self):
        assert berger_rigoutsos(np.zeros((8, 8), bool)) == []

    def test_single_cell(self):
        tags = np.zeros((8, 8), bool)
        tags[3, 5] = True
        boxes = berger_rigoutsos(tags)
        assert boxes == [Box((3, 5), (3, 5))]

    def test_full_block(self):
        tags = np.zeros((16, 16), bool)
        tags[4:8, 4:8] = True
        boxes = berger_rigoutsos(tags)
        assert boxes == [Box((4, 4), (7, 7))]

    def test_origin_offset(self):
        tags = np.zeros((8, 8), bool)
        tags[2:4, 2:4] = True
        boxes = berger_rigoutsos(tags, origin=(100, 200))
        assert boxes == [Box((102, 202), (103, 203))]

    def test_two_separated_blobs_split_at_hole(self):
        tags = np.zeros((32, 8), bool)
        tags[2:6, 2:6] = True
        tags[20:24, 2:6] = True
        boxes = berger_rigoutsos(tags)
        assert len(boxes) == 2
        assert _covered(boxes, tags)

    def test_1d_rejected(self):
        with pytest.raises(ValueError):
            berger_rigoutsos(np.ones(4, bool))


class TestEfficiency:
    def test_grid_efficiency_values(self):
        tags = np.zeros((4, 4), bool)
        tags[:2, :] = True
        assert grid_efficiency(tags, Box((0, 0), (3, 3)), (0, 0)) == pytest.approx(0.5)
        assert grid_efficiency(tags, Box((0, 0), (1, 3)), (0, 0)) == pytest.approx(1.0)

    def test_l_shape_achieves_efficiency(self):
        """An L-shape at grid_eff=0.9 must be split (bounding box is 75%)."""
        tags = np.zeros((16, 16), bool)
        tags[0:8, 0:4] = True
        tags[0:4, 4:8] = True
        boxes = berger_rigoutsos(tags, params=ClusterParams(grid_eff=0.9))
        assert len(boxes) >= 2
        assert _covered(boxes, tags)
        for b in boxes:
            assert grid_efficiency(tags, b, (0, 0)) >= 0.9

    def test_annulus_clusters_into_multiple_boxes(self):
        n = 64
        i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        r = np.sqrt((i - 32.0) ** 2 + (j - 32.0) ** 2)
        tags = np.abs(r - 20.0) < 3.0
        boxes = berger_rigoutsos(tags, params=ClusterParams(grid_eff=0.7))
        assert len(boxes) > 4  # a ring cannot be one efficient box
        assert _covered(boxes, tags)
        total = sum(b.numpts for b in boxes)
        # Total box cells should be within 1/0.5 of tagged cells
        assert total <= tags.sum() / 0.5


class TestDisjointness:
    def test_boxes_disjoint_on_random_patterns(self):
        rng = np.random.default_rng(42)
        for _ in range(5):
            tags = rng.random((24, 24)) < 0.2
            boxes = berger_rigoutsos(tags)
            for i in range(len(boxes)):
                for j in range(i + 1, len(boxes)):
                    assert not boxes[i].intersects(boxes[j])


@settings(max_examples=40, deadline=None)
@given(arrays(bool, (16, 16)))
def test_coverage_and_disjointness_property(tags):
    boxes = berger_rigoutsos(tags)
    # 1. Every tagged cell covered.
    assert _covered(boxes, tags)
    # 2. Boxes pairwise disjoint.
    for i in range(len(boxes)):
        for j in range(i + 1, len(boxes)):
            assert not boxes[i].intersects(boxes[j])
    # 3. Every box contains at least one tag.
    for b in boxes:
        assert tags[b.slices((0, 0))].any()


@st.composite
def _tags_box_origin(draw):
    """A bool tag array, a sub-box of it and a non-zero origin."""
    tags = draw(arrays(bool, st.tuples(st.integers(1, 24), st.integers(1, 24))))
    origin = (draw(st.integers(-50, 50)), draw(st.integers(-50, 50)))
    lo = [draw(st.integers(0, n - 1)) for n in tags.shape]
    hi = [draw(st.integers(l, n - 1)) for l, n in zip(lo, tags.shape)]
    box = Box((origin[0] + lo[0], origin[1] + lo[1]),
              (origin[0] + hi[0], origin[1] + hi[1]))
    return tags, box, origin


@settings(max_examples=200, deadline=None)
@given(_tags_box_origin())
def test_tag_bounding_box_matches_nonzero(case):
    tags, box, origin = case
    ii, jj = np.nonzero(tags[box.slices(origin)])
    want = None if ii.size == 0 else Box(
        (box.lo[0] + int(ii.min()), box.lo[1] + int(jj.min())),
        (box.lo[0] + int(ii.max()), box.lo[1] + int(jj.max())),
    )
    assert _tag_bounding_box(tags, box, origin) == want


@settings(max_examples=200, deadline=None)
@given(_tags_box_origin())
def test_signatures_match_int64_copy(case):
    tags, box, origin = case
    sub = tags[box.slices(origin)].astype(np.int64)
    sig_i, sig_j = _signatures(tags, box, origin)
    assert sig_i.dtype == sig_j.dtype == np.int64
    assert np.array_equal(sig_i, sub.sum(axis=1))
    assert np.array_equal(sig_j, sub.sum(axis=0))
