"""Tests for checkpoint output and refine_grid_layout."""

import numpy as np
import pytest

from repro.amr.box import Box
from repro.amr.boxarray import BoxArray
from repro.amr.distribution import DistributionMapping, round_robin_map
from repro.amr.geometry import Geometry
from repro.amr.grid import GridParams, make_level_grids, refine_grid_layout
from repro.iosim.darshan import IOTrace
from repro.iosim.filesystem import VirtualFileSystem
from repro.plotfile.checkpoint import CheckpointSpec, checkpoint_name, write_checkpoint
from repro.plotfile.varlist import STATE_VARS


class TestRefineGridLayout:
    def test_splits_to_min_count(self):
        boxes = [Box((0, 0), (63, 63))]
        out = refine_grid_layout(boxes, min_grids=4, blocking_factor=8)
        assert len(out) >= 4
        assert sum(b.numpts for b in out) == 64 * 64
        ba = BoxArray(out)
        ba.validate_disjoint()

    def test_respects_blocking_factor(self):
        out = refine_grid_layout([Box((0, 0), (63, 63))], 8, blocking_factor=16)
        for b in out:
            assert b.shape[0] % 16 == 0 and b.shape[1] % 16 == 0

    def test_stops_when_unsplittable(self):
        # an 8x8 box with bf 8 cannot split at all
        out = refine_grid_layout([Box((0, 0), (7, 7))], 10, blocking_factor=8)
        assert len(out) == 1

    def test_noop_when_enough(self):
        boxes = [Box((0, 0), (7, 7)), Box((8, 0), (15, 7))]
        assert refine_grid_layout(boxes, 2, 8) == sorted(boxes)

    def test_make_level_grids_min_grids(self):
        domain = Box.cell_centered(1024, 1024)
        ba = make_level_grids([domain], domain, GridParams(8, 256), min_grids=64)
        assert len(ba) >= 64
        assert ba.numpts == domain.numpts
        ba.validate_disjoint()


class TestCheckpoint:
    def _setup(self):
        g0 = Geometry(Box.cell_centered(64, 64))
        g1 = g0.refine(2)
        ba0 = BoxArray([Box((0, 0), (63, 63))])
        ba1 = BoxArray([Box((32, 32), (95, 95))])
        dm0 = round_robin_map(ba0, 2)
        dm1 = round_robin_map(ba1, 2)
        return [g0, g1], [ba0, ba1], [dm0, dm1]

    def test_name(self):
        assert checkpoint_name("sedov_2d_cyl_in_cart_chk", 20) == \
            "sedov_2d_cyl_in_cart_chk00020"

    def test_structure_and_sizes(self):
        fs = VirtualFileSystem()
        trace = IOTrace()
        geoms, bas, dms = self._setup()
        spec = CheckpointSpec(nprocs=2)
        cdir = write_checkpoint(fs, spec, 20, 0.01, geoms, bas, dms, trace=trace)
        files = fs.files(cdir)
        assert f"{cdir}/Header" in files
        assert f"{cdir}/Level_0/Cell_D_00000" in files
        # checkpoints carry only the 7 state vars, so the data portion is
        # 7/24 of an equivalent plotfile's payload
        data_bytes = trace.total_bytes("data")
        from repro.plotfile.fab import fab_nbytes
        expect = sum(fab_nbytes(b, len(STATE_VARS)) for ba in bas for b in ba)
        assert data_bytes == expect

    def test_per_rank_files_match_per_box_loop(self):
        """Each owning rank gets one ``Cell_D`` holding the sum of its
        boxes' FABs, with one trace row; a rank without boxes gets none."""
        from repro.plotfile.fab import fab_nbytes

        g0 = Geometry(Box.cell_centered(64, 64))
        boxes = [Box((x, y), (x + 15, y + 7)) for y in range(0, 64, 8)
                 for x in range(0, 64, 16)]
        ba = BoxArray(boxes)
        # 32 boxes over 4 ranks, rank 2 owns nothing
        dm = DistributionMapping(tuple((0, 1, 3)[k % 3] for k in range(len(ba))), 4)
        fs, trace = VirtualFileSystem(), IOTrace()
        nvars = len(STATE_VARS)
        cdir = write_checkpoint(fs, CheckpointSpec(nprocs=4), 7, 0.5,
                                [g0], [ba], [dm], trace=trace)
        want = {}
        for k, box in enumerate(ba):
            want[dm[k]] = want.get(dm[k], 0) + fab_nbytes(box, nvars)
        assert sorted(want) == [0, 1, 3]
        sizes = fs.sizes()
        got = {int(p[-5:]): n for p, n in sizes.items() if "/Cell_D_" in p}
        assert got == want
        rows = [r for r in trace if r.kind == "data"]
        assert [(r.step, r.level, r.rank, r.nbytes, r.path) for r in rows] == [
            (7, 0, rank, n, f"{cdir}/Level_0/Cell_D_{rank:05d}")
            for rank, n in sorted(want.items())
        ]

    def test_checkpoint_smaller_than_plotfile(self):
        from repro.plotfile.writer import PlotfileSpec, write_plotfile

        geoms, bas, dms = self._setup()
        fs1, fs2 = VirtualFileSystem(), VirtualFileSystem()
        write_checkpoint(fs1, CheckpointSpec(nprocs=2), 0, 0.0, geoms, bas, dms)
        write_plotfile(fs2, PlotfileSpec(nprocs=2), 0, 0.0, geoms, bas, dms)
        assert fs1.total_size() < fs2.total_size()

    def test_length_mismatch(self):
        geoms, bas, dms = self._setup()
        with pytest.raises(ValueError):
            write_checkpoint(VirtualFileSystem(), CheckpointSpec(), 0, 0.0,
                             geoms, bas[:1], dms)

    @pytest.mark.parametrize("ranks", [(0, 1), ()])
    def test_distribution_length_mismatch_rejected(self, ranks):
        """A level's mapping must hold one rank per box: a longer one is
        not silently truncated and a shorter one is a named error, not a
        bare ``IndexError``."""
        fs = VirtualFileSystem()
        geoms, bas, dms = self._setup()
        dms[1] = DistributionMapping(ranks, 2)
        with pytest.raises(ValueError, match=r"distributions\[1\] maps"):
            write_checkpoint(fs, CheckpointSpec(nprocs=2), 0, 0.0, geoms, bas, dms)
        assert fs.files() == []
