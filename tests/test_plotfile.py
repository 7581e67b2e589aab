"""Tests for the AMReX plotfile layer: FABs, metadata, writer, reader."""

import numpy as np
import pytest

from repro.amr.box import Box
from repro.amr.boxarray import BoxArray
from repro.amr.distribution import DistributionMapping, round_robin_map
from repro.amr.geometry import Geometry
from repro.iosim.darshan import IOTrace
from repro.iosim.filesystem import VirtualFileSystem
from repro.plotfile.fab import fab_header, fab_nbytes
from repro.plotfile.header import build_header_text, build_job_info_text
from repro.plotfile.reader import inspect_plotfile, list_plotfiles
from repro.plotfile.varlist import N_PLOT_VARS_ALL, plot_variables
from repro.plotfile.writer import PlotfileSpec, plotfile_name, write_plotfile


class TestVarlist:
    def test_all_has_24_fields(self):
        """The origin of the paper's f ~ 23-25."""
        assert N_PLOT_VARS_ALL == 24
        assert len(plot_variables(True)) == 24

    def test_state_only(self):
        assert len(plot_variables(False)) == 7
        assert "density" in plot_variables(False)

    def test_no_duplicates(self):
        names = plot_variables(True)
        assert len(set(names)) == len(names)


class TestFabFormat:
    def test_header_contains_box_and_ncomp(self):
        h = fab_header(Box((0, 0), (31, 15)), 24)
        assert "((0,0) (31,15) (0,0)) 24" in h
        assert h.startswith("FAB ")

    def test_nbytes_accounting(self):
        b = Box((0, 0), (7, 7))
        expect = len(fab_header(b, 3)) + 64 * 3 * 8
        assert fab_nbytes(b, 3) == expect


class TestHeaderText:
    def _geoms(self):
        g0 = Geometry(Box.cell_centered(32, 32))
        return [g0, g0.refine(2)]

    def _bas(self):
        return [BoxArray([Box((0, 0), (31, 31))]), BoxArray([Box((16, 16), (47, 47))])]

    def test_header_structure(self):
        text = build_header_text(["density", "pressure"], self._geoms(), self._bas(), 0.5, 40, 2)
        lines = text.splitlines()
        assert lines[0] == "HyperCLaw-V1.1"
        assert lines[1] == "2"
        assert lines[2] == "density"
        assert "Level_0/Cell" in text
        assert "Level_1/Cell" in text

    def test_header_mismatch_raises(self):
        with pytest.raises(ValueError):
            build_header_text(["d"], self._geoms(), self._bas()[:1], 0.0, 0, 2)

    def test_job_info(self):
        text = build_job_info_text("Castro", 32, 2, [("amr.n_cell", "512 512")])
        assert "number of MPI processes: 32" in text
        assert "amr.n_cell = 512 512" in text


def make_two_level_setup(nprocs=4):
    g0 = Geometry(Box.cell_centered(64, 64))
    g1 = g0.refine(2)
    ba0 = BoxArray([Box((0, 0), (31, 63)), Box((32, 0), (63, 63))])
    ba1 = BoxArray([Box((40, 40), (71, 71))])
    dm0 = round_robin_map(ba0, nprocs)
    dm1 = round_robin_map(ba1, nprocs)
    return [g0, g1], [ba0, ba1], [dm0, dm1]


class TestWriter:
    def test_fig2_structure(self):
        """Directory layout must match the paper's Fig. 2."""
        fs = VirtualFileSystem()
        geoms, bas, dms = make_two_level_setup()
        spec = PlotfileSpec(prefix="sedov_2d_cyl_in_cart_plt", nprocs=4)
        pdir = write_plotfile(fs, spec, 20, 0.01, geoms, bas, dms)
        assert pdir == "sedov_2d_cyl_in_cart_plt00020"
        files = fs.files(pdir)
        assert f"{pdir}/Header" in files
        assert f"{pdir}/job_info" in files
        assert f"{pdir}/Level_0/Cell_H" in files
        assert f"{pdir}/Level_0/Cell_D_00000" in files
        assert f"{pdir}/Level_0/Cell_D_00001" in files
        assert f"{pdir}/Level_1/Cell_H" in files

    def test_file_only_for_tasks_with_data(self):
        """The paper: 'a file is only produced if there is data generated
        on a particular task at the corresponding mesh level'."""
        fs = VirtualFileSystem()
        geoms, bas, dms = make_two_level_setup(nprocs=4)
        # Level 1 has 1 box -> only rank 0 writes there.
        pdir = write_plotfile(fs, PlotfileSpec(nprocs=4), 0, 0.0, geoms, bas, dms)
        l1 = [p for p in fs.files(f"{pdir}/Level_1") if "Cell_D" in p]
        assert l1 == [f"{pdir}/Level_1/Cell_D_00000"]

    def test_size_mode_data_accounting(self):
        fs = VirtualFileSystem()
        geoms, bas, dms = make_two_level_setup()
        trace = IOTrace()
        pdir = write_plotfile(fs, PlotfileSpec(nprocs=4), 0, 0.0, geoms, bas, dms, trace=trace)
        info = inspect_plotfile(fs, pdir)
        cells = bas[0].numpts + bas[1].numpts
        # exact payload: cells*24*8 plus one FAB header per box
        from repro.plotfile.fab import fab_header
        header_overhead = sum(
            len(fab_header(b, 24)) for ba in bas for b in ba
        )
        assert info.data_bytes == cells * 24 * 8 + header_overhead
        assert trace.total_bytes("data") == info.data_bytes

    def test_data_mode_matches_size_mode(self):
        """Real encoded bytes must equal the size-mode accounting.

        Each Cell_D holds its FABs back to back in box order: every Cell_H
        offset, and each file's size, is the running length of the encoded
        FABs (ASCII header plus nvars*numpts ``<f8`` values)."""
        g0 = Geometry(Box.cell_centered(64, 64))
        g1 = g0.refine(2)
        ba0 = BoxArray([Box((0, 0), (31, 31)), Box((32, 0), (63, 31)),
                        Box((0, 32), (31, 63)), Box((32, 32), (63, 63))])
        ba1 = BoxArray([Box((40, 40), (71, 55)), Box((40, 56), (71, 71)),
                        Box((72, 40), (87, 71))])
        dms = [round_robin_map(ba0, 2), DistributionMapping((1, 1, 0), 2)]
        fs = VirtualFileSystem(keep_content=True)
        pdir = write_plotfile(fs, PlotfileSpec(nprocs=2), 0, 0.0,
                              [g0, g1], [ba0, ba1], dms)
        nvars = N_PLOT_VARS_ALL
        for lev, ba in enumerate((ba0, ba1)):
            ldir = f"{pdir}/Level_{lev}"
            cellh = fs.read_bytes(f"{ldir}/Cell_H").decode("ascii")
            placed = [line.split()[1:] for line in cellh.splitlines()
                      if line.startswith("FabOnDisk: ")]
            assert len(placed) == len(ba)
            end = {}
            for box, (fname, offset) in zip(ba, placed):
                assert int(offset) == end.get(fname, 0), (lev, box)
                blob = fab_header(box, nvars).encode("ascii") + np.zeros(
                    nvars * box.numpts, dtype="<f8").tobytes()
                end[fname] = int(offset) + len(blob)
            cell_d = [p for p in fs.files(ldir) if "/Cell_D_" in p]
            assert {p: fs.size(p) for p in cell_d} == {
                f"{ldir}/{fname}": n for fname, n in end.items()}

    @pytest.mark.parametrize("ranks", [(0, 1, 1), (0,)])
    def test_distribution_length_mismatch_rejected(self, ranks):
        """A level's mapping must hold one rank per box: longer or shorter
        is a named error, before anything is written."""
        fs = VirtualFileSystem()
        geoms, bas, dms = make_two_level_setup()
        dms[0] = DistributionMapping(ranks, 2)
        with pytest.raises(ValueError, match=r"distributions\[0\] maps"):
            write_plotfile(fs, PlotfileSpec(nprocs=2), 0, 0.0, geoms, bas, dms)
        assert fs.files() == []

    def test_trace_granularity(self):
        fs = VirtualFileSystem()
        geoms, bas, dms = make_two_level_setup()
        trace = IOTrace()
        write_plotfile(fs, PlotfileSpec(nprocs=4), 40, 0.0, geoms, bas, dms, trace=trace)
        table = trace.bytes_step_level_rank()
        assert (40, 0, 0) in table and (40, 0, 1) in table
        assert (40, 1, 0) in table


class TestReader:
    def test_inspect_per_task(self):
        fs = VirtualFileSystem()
        geoms, bas, dms = make_two_level_setup()
        pdir = write_plotfile(fs, PlotfileSpec(nprocs=4), 0, 0.0, geoms, bas, dms)
        info = inspect_plotfile(fs, pdir)
        per_task = info.bytes_per_task(level=0)
        assert set(per_task) == {0, 1}
        assert info.metadata_bytes > 0
        assert info.total_bytes == info.data_bytes + info.metadata_bytes

    def test_list_plotfiles(self):
        fs = VirtualFileSystem()
        geoms, bas, dms = make_two_level_setup()
        spec = PlotfileSpec(prefix="plt", nprocs=4)
        for step in (0, 20, 40):
            write_plotfile(fs, spec, step, 0.0, geoms, bas, dms)
        found = list_plotfiles(fs, "plt")
        assert [s for s, _ in found] == [0, 20, 40]
