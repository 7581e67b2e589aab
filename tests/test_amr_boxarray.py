"""Tests for repro.amr.boxarray."""

import pytest

from repro.amr.box import Box
from repro.amr.boxarray import BoxArray


@pytest.fixture
def quad():
    """Four disjoint quadrants of a 8x8 domain."""
    return BoxArray([
        Box((0, 0), (3, 3)),
        Box((4, 0), (7, 3)),
        Box((0, 4), (3, 7)),
        Box((4, 4), (7, 7)),
    ])


class TestContainer:
    def test_len_iter_getitem(self, quad):
        assert len(quad) == 4
        assert list(quad)[0] == quad[0]

    def test_equality(self, quad):
        assert quad == BoxArray(list(quad.boxes))
        assert quad != BoxArray([quad[0]])

    def test_same_boxes(self, quad):
        assert quad.same_boxes(quad)
        assert quad.same_boxes(BoxArray(list(quad.boxes)))
        assert not quad.same_boxes(BoxArray([quad[0]]))

    def test_numpts(self, quad):
        assert quad.numpts == 64

    def test_box_sizes(self, quad):
        assert (quad.box_sizes() == 16).all()


class TestQueries:
    def test_contains_point(self, quad):
        assert quad.contains_point((7, 7))
        assert not quad.contains_point((8, 0))

    def test_intersections(self, quad):
        probe = Box((2, 2), (5, 5))
        hits = quad.intersections(probe)
        assert len(hits) == 4
        assert sum(inter.numpts for _, inter in hits) == probe.numpts

    def test_covered_cells_full(self, quad):
        assert quad.covered_cells(Box((0, 0), (7, 7))) == 64

    def test_covered_cells_partial(self, quad):
        probe = Box((6, 6), (9, 9))
        assert quad.covered_cells(probe) == 4


class TestTransforms:
    def test_refine_coarsen_counts(self, quad):
        assert quad.refine(2).numpts == quad.numpts * 4
        assert quad.refine(2).coarsen(2).numpts == quad.numpts

    def test_grow(self, quad):
        grown = quad.grow(1)
        assert all(g.contains(b) for g, b in zip(grown, quad))


class TestValidation:
    def test_disjoint_ok(self, quad):
        quad.validate_disjoint()

    def test_overlap_detected(self):
        ba = BoxArray([Box((0, 0), (3, 3)), Box((3, 3), (5, 5))])
        with pytest.raises(ValueError, match="overlap"):
            ba.validate_disjoint()

    def test_inside_domain(self, quad):
        quad.validate_inside(Box((0, 0), (7, 7)))
        with pytest.raises(ValueError, match="not inside"):
            quad.validate_inside(Box((0, 0), (6, 7)))

