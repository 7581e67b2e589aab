"""End-to-end round trips through the *real* filesystem backend.

The virtual (size-only) and real (files on disk) backends must agree —
this is what lets the campaign trust virtual-FS numbers.
"""

import re

import numpy as np
import pytest

from repro.campaign.cases import small_solver_case
from repro.campaign.runner import run_case
from repro.iosim.filesystem import RealFileSystem, VirtualFileSystem
from repro.macsio.dump import run_macsio
from repro.macsio.params import MacsioParams
from repro.plotfile.reader import inspect_plotfile, list_plotfiles


class TestSolverRealFS:
    @pytest.fixture(scope="class")
    def both_runs(self, tmp_path_factory):
        from dataclasses import replace

        case = small_solver_case(n=64, max_level=1)
        case = replace(case, inputs=replace(case.inputs, max_step=6, plot_int=3))
        root = tmp_path_factory.mktemp("plots")
        real = RealFileSystem(str(root))
        virt = VirtualFileSystem()
        r_real = run_case(case, fs=real)
        r_virt = run_case(case, fs=virt)
        return case, real, virt, r_real, r_virt

    def test_same_file_sets(self, both_runs):
        _, real, virt, _, _ = both_runs
        assert real.files() == virt.files()

    def test_same_sizes_everywhere(self, both_runs):
        _, real, virt, _, _ = both_runs
        for p in virt.files():
            assert real.size(p) == virt.size(p), p

    def test_inspect_agrees(self, both_runs):
        case, real, virt, _, _ = both_runs
        plots = list_plotfiles(real, case.inputs.plot_file)
        assert plots == list_plotfiles(virt, case.inputs.plot_file)
        for _, pdir in plots:
            ir = inspect_plotfile(real, pdir)
            iv = inspect_plotfile(virt, pdir)
            assert ir.total_bytes == iv.total_bytes
            assert ir.bytes_per_level() == iv.bytes_per_level()

    def test_traces_identical(self, both_runs):
        _, _, _, r_real, r_virt = both_runs
        assert r_real.trace.bytes_step_level_rank() == \
            r_virt.trace.bytes_step_level_rank()


class TestDataModeOnDisk:
    def test_written_fab_headers_parse(self, tmp_path):
        """A Cell_D on disk filled with real FABs keeps the size the writer
        gave it, and at each Cell_H offset starts a valid FAB header whose
        box matches the Cell_H box list."""
        from repro.amr.box import Box
        from repro.amr.boxarray import BoxArray
        from repro.amr.distribution import round_robin_map
        from repro.amr.geometry import Geometry
        from repro.plotfile.fab import fab_header
        from repro.plotfile.writer import PlotfileSpec, write_plotfile

        fs = RealFileSystem(str(tmp_path))
        geom = Geometry(Box.cell_centered(16, 16))
        ba = BoxArray([Box((0, 0), (7, 15)), Box((8, 0), (15, 15))])
        pdir = write_plotfile(
            fs, PlotfileSpec(prefix="plt", nprocs=1), 0, 0.0,
            [geom], [ba], [round_robin_map(ba, 1)],
        )
        cellh = fs.read_bytes(f"{pdir}/Level_0/Cell_H").decode("ascii")
        box_re = r"\(\((-?\d+),(-?\d+)\) \((-?\d+),(-?\d+)\) \(0,0\)\)"
        boxes = re.findall(rf"^{box_re}$", cellh, re.M)
        offsets = [int(line.split()[2]) for line in cellh.splitlines()
                   if line.startswith("FabOnDisk: Cell_D_00000 ")]
        assert len(boxes) == len(offsets) == 2

        path = f"{pdir}/Level_0/Cell_D_00000"
        reserved = fs.size(path)
        fs.write_bytes(path, b"".join(
            fab_header(b, 24).encode("ascii")
            + np.full(24 * b.numpts, 2.5, dtype="<f8").tobytes()
            for b in ba
        ))
        assert fs.size(path) == reserved

        blob = fs.read_bytes(path)
        for box, off in zip(boxes, offsets):
            end = blob.index(b"\n", off)
            m = re.fullmatch(rf"FAB .*{box_re} (\d+)",
                             blob[off:end].decode("ascii"))
            assert m is not None and m.groups() == (*box, "24")
            # payload holds ncomp * numpts doubles
            npts = (int(box[2]) - int(box[0]) + 1) * (int(box[3]) - int(box[1]) + 1)
            payload = np.frombuffer(blob, "<f8", 24 * npts, end + 1)
            assert np.all(payload == 2.5)


class TestRealWriteMany:
    def test_write_many_matches_write_size_loop(self, tmp_path):
        fs1 = RealFileSystem(str(tmp_path / "bulk"))
        fs2 = RealFileSystem(str(tmp_path / "loop"))
        paths = [f"plt00000/Level_{l}/Cell_D_{r:05d}"
                 for l in range(3) for r in range(8)]
        sizes = [128 * (i + 1) for i in range(len(paths))]
        total = fs1.write_many(paths, sizes)
        assert total == sum(sizes)
        for p, n in zip(paths, sizes):
            fs2.write_size(p, n)
        assert fs1.files() == fs2.files()
        for p in paths:
            assert fs1.size(p) == fs2.size(p)

    def test_write_many_validates(self, tmp_path):
        fs = RealFileSystem(str(tmp_path))
        with pytest.raises(ValueError):
            fs.write_many(["a", "b"], [1])
        with pytest.raises(ValueError):
            fs.write_many(["a"], [-1])
        with pytest.raises(ValueError):
            fs.write_size("a", -1)


class TestMacsioRealFS:
    def test_materialized_run_on_disk(self, tmp_path):
        fs = RealFileSystem(str(tmp_path))
        p = MacsioParams(num_dumps=2, part_size=5000)
        run_macsio(p, nprocs=2, fs=fs, materialize=True)
        import json as _json

        files = [f for f in fs.files("data")]
        assert len(files) == 4
        doc = _json.loads(fs.read_bytes(files[0]))
        assert doc["mesh"]["type"] == "rectilinear"
