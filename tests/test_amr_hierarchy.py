"""Tests for the AMR hierarchy and regridding."""

import numpy as np
import pytest

from repro.amr.box import Box
from repro.amr.distribution import rank_loads
from repro.amr.hierarchy import AmrHierarchy, AmrParams


def annulus_tagger(radius, width):
    def tag_fn(level, geom):
        X, Y = geom.cell_centers(geom.domain)
        r = np.sqrt(X**2 + Y**2)
        return np.abs(r - radius) < width
    return tag_fn


class TestAmrParams:
    def test_defaults(self):
        p = AmrParams()
        assert p.nlevels == 4  # max_level 3 => L0..L3

    def test_invalid(self):
        with pytest.raises(ValueError):
            AmrParams(max_level=-1)
        with pytest.raises(ValueError):
            AmrParams(ref_ratio=1)
        with pytest.raises(ValueError):
            AmrParams(n_cell=(30, 32), blocking_factor=8)

    @pytest.mark.parametrize("blocking_factor", [0, -8])
    def test_blocking_factor_checked_before_the_modulo(self, blocking_factor):
        with pytest.raises(ValueError, match="blocking_factor"):
            AmrParams(blocking_factor=blocking_factor)


class TestBaseLevel:
    def test_base_covers_domain(self):
        h = AmrHierarchy(AmrParams(n_cell=(64, 64), max_grid_size=32), nprocs=4)
        assert h.finest_level == 0
        assert h.levels[0].ncells == 64 * 64
        assert len(h.levels[0].boxarray) == 4  # 64/32 squared

    def test_geometry_spacing(self):
        h = AmrHierarchy(AmrParams(n_cell=(32, 32)))
        assert h.geom(0).dx == pytest.approx(1.0 / 32)


class TestRegrid:
    def test_refines_annulus(self):
        p = AmrParams(n_cell=(64, 64), max_level=2, max_grid_size=32)
        h = AmrHierarchy(p, nprocs=4)
        h.regrid(annulus_tagger(0.4, 0.06))
        assert h.finest_level == 2
        # Finer level covers less than the full domain but something.
        for lev in (1, 2):
            state = h.levels[lev]
            assert 0 < state.ncells < state.geom.domain.numpts
            state.boxarray.validate_disjoint()
            state.boxarray.validate_inside(state.geom.domain)

    def test_no_tags_no_fine_levels(self):
        h = AmrHierarchy(AmrParams(n_cell=(32, 32), max_level=3))
        h.regrid(lambda lev, geom: np.zeros(geom.domain.shape, bool))
        assert h.finest_level == 0

    def test_proper_nesting(self):
        """Every level-l box must live inside level-(l-1) coverage."""
        p = AmrParams(n_cell=(64, 64), max_level=2, max_grid_size=16)
        h = AmrHierarchy(p, nprocs=2)
        h.regrid(annulus_tagger(0.35, 0.1))
        for lev in range(1, h.finest_level + 1):
            coarse = h.levels[lev - 1].boxarray
            for b in h.levels[lev].boxarray:
                cb = b.coarsen(p.ref_ratio)
                assert coarse.covered_cells(cb) == cb.numpts

    def test_regrid_idempotent_on_static_tags(self):
        p = AmrParams(n_cell=(64, 64), max_level=1, max_grid_size=32)
        h = AmrHierarchy(p)
        h.regrid(annulus_tagger(0.4, 0.08))
        first = list(h.levels[1].boxarray.boxes)
        h.regrid(annulus_tagger(0.4, 0.08))
        assert list(h.levels[1].boxarray.boxes) == first

    def test_bad_tag_shape_raises(self):
        h = AmrHierarchy(AmrParams(n_cell=(32, 32), max_level=1))
        with pytest.raises(ValueError, match="shape"):
            h.regrid(lambda lev, geom: np.zeros((4, 4), bool))

    def test_moving_annulus_changes_layout(self):
        p = AmrParams(n_cell=(64, 64), max_level=1, max_grid_size=16)
        h = AmrHierarchy(p)
        h.regrid(annulus_tagger(0.2, 0.05))
        n_inner = h.levels[1].ncells
        h.regrid(annulus_tagger(0.6, 0.05))
        n_outer = h.levels[1].ncells
        # A larger-radius annulus has a longer arc in the quadrant.
        assert n_outer > n_inner


class TestAccounting:
    def test_cells_per_rank_sums(self):
        p = AmrParams(n_cell=(64, 64), max_level=1, max_grid_size=16)
        h = AmrHierarchy(p, nprocs=4)
        h.regrid(annulus_tagger(0.4, 0.1))
        for lev in h.levels:
            per = rank_loads(lev.boxarray, lev.distribution)
            assert per.sum() == lev.ncells

    def test_summary_mentions_levels(self):
        h = AmrHierarchy(AmrParams(n_cell=(32, 32)))
        assert "Level 0" in h.summary()

    def test_total_cells(self):
        h = AmrHierarchy(AmrParams(n_cell=(32, 32), max_level=1))
        h.regrid(annulus_tagger(0.4, 0.1))
        assert h.total_cells() == sum(l.ncells for l in h.levels)
