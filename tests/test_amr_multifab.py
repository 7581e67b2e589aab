"""Tests for Fab/MultiFab containers."""

import numpy as np
import pytest

from repro.amr.box import Box
from repro.amr.boxarray import BoxArray
from repro.amr.distribution import round_robin_map
from repro.amr.geometry import Geometry
from repro.amr.multifab import Fab, MultiFab


@pytest.fixture
def ba():
    return BoxArray([Box((0, 0), (7, 15)), Box((8, 0), (15, 15))])


@pytest.fixture
def mf(ba):
    return MultiFab(ba, round_robin_map(ba, 2), ncomp=3, nghost=2)


class TestFab:
    def test_shapes(self):
        fab = Fab(Box((0, 0), (7, 3)), ncomp=4, nghost=2)
        assert fab.data.shape == (4, 12, 8)
        assert fab.interior().shape == (4, 8, 4)
        assert fab.interior(1).shape == (8, 4)

    def test_grown_box(self):
        fab = Fab(Box((4, 4), (7, 7)), 1, nghost=1)
        assert fab.grown_box == Box((3, 3), (8, 8))

    def test_view_region(self):
        fab = Fab(Box((0, 0), (7, 7)), 1, nghost=1)
        fab.interior(0)[...] = 5.0
        v = fab.view(Box((0, 0), (1, 1)), 0)
        assert (v == 5.0).all()
        v[...] = 7.0
        assert fab.interior(0)[0, 0] == 7.0

    def test_view_outside_raises(self):
        fab = Fab(Box((0, 0), (3, 3)), 1, nghost=0)
        with pytest.raises(ValueError):
            fab.view(Box((0, 0), (4, 4)), 0)

    def test_nbytes_valid(self):
        fab = Fab(Box((0, 0), (7, 7)), ncomp=24, nghost=2)
        assert fab.nbytes_valid() == 64 * 24 * 8


class TestMultiFab:
    def test_mismatched_mapping(self, ba):
        from repro.amr.distribution import DistributionMapping
        with pytest.raises(ValueError):
            MultiFab(ba, DistributionMapping((0,), 1), 1)

    def test_set_val_and_reductions(self, mf):
        mf.set_val(2.0)
        assert mf.min(0) == 2.0
        assert mf.max(2) == 2.0
        assert mf.sum(1) == pytest.approx(2.0 * mf.boxarray.numpts)

    def test_set_val_single_comp(self, mf):
        mf.set_val(0.0)
        mf.set_val(3.0, comp=1)
        assert mf.max(0) == 0.0
        assert mf.max(1) == 3.0

    def test_fill_from_function(self, mf):
        geom = Geometry(Box.cell_centered(16, 16))
        mf.fill_from_function(lambda X, Y: X + Y, comp=0, geom=geom)
        # max at the far corner cell center
        expect = (15.5 / 16) * 2
        assert mf.max(0) == pytest.approx(expect)

    def test_bytes_per_rank(self, mf):
        per = mf.bytes_per_rank()
        assert per.sum() == mf.total_bytes()
        assert per[0] == per[1]  # two equal boxes round-robin
        assert mf.total_bytes() == 2 * 8 * 16 * 3 * 8
