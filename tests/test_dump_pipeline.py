"""Equivalence suite: the batched dump pipeline vs. the seed per-fab path.

Pins the plan-cached ``write_plotfile`` (and the closed-form FAB
accounting and vectorized inspector underneath it) bit-for-bit against
the seed implementations, kept verbatim below:

- every path and size identical, every metadata text file (``Header``,
  ``job_info``, ``Cell_H``) byte-identical, traces equal;
- ``inspect_plotfile`` results equal on both virtual and real
  filesystems.
"""

import re
import sys
import weakref

import numpy as np
import pytest

from repro.amr.box import Box
from repro.amr.boxarray import BoxArray
from repro.amr.distribution import make_distribution, round_robin_map
from repro.amr.geometry import Geometry
from repro.iosim.darshan import IOTrace
from repro.iosim.filesystem import RealFileSystem, VirtualFileSystem
from repro.plotfile.cellh import FabLocation, build_cellh_text
from repro.plotfile.fab import fab_header, fab_nbytes, fab_nbytes_array
from repro.plotfile.header import build_job_info_text
from repro.plotfile.reader import (
    LevelInfo,
    PlotfileInfo,
    inspect_plotfile,
    list_plotfiles,
)
from repro.plotfile import writer as plotwriter
from repro.plotfile.writer import PlotfileSpec, write_plotfile


# ----------------------------------------------------------------------
# The seed implementations, verbatim (the baseline).
# ----------------------------------------------------------------------
def seed_fab_nbytes(box, ncomp):
    return len(fab_header(box, ncomp).encode("ascii")) + box.numpts * ncomp * 8


def seed_build_header_text(var_names, geoms, boxarrays, time_, step, ref_ratio):
    nlev = len(geoms)
    finest = nlev - 1
    g0 = geoms[0]
    lines = ["HyperCLaw-V1.1", str(len(var_names))]
    lines.extend(var_names)
    lines.append("2")
    lines.append(repr(float(time_)))
    lines.append(str(finest))
    lines.append(f"{g0.prob_lo[0]} {g0.prob_lo[1]}")
    lines.append(f"{g0.prob_hi[0]} {g0.prob_hi[1]}")
    lines.append(" ".join([str(ref_ratio)] * max(finest, 0)))
    lines.append(
        " ".join(
            f"(({g.domain.lo[0]},{g.domain.lo[1]}) "
            f"({g.domain.hi[0]},{g.domain.hi[1]}) (0,0))"
            for g in geoms
        )
    )
    lines.append(" ".join([str(step)] * nlev))
    for g in geoms:
        lines.append(f"{g.dx} {g.dy}")
    lines.append(str(g0.coord_sys))
    lines.append("0")
    for lev, (g, ba) in enumerate(zip(geoms, boxarrays)):
        lines.append(f"{lev} {len(ba)} {float(time_)!r}")
        lines.append(str(step))
        for b in ba:
            (xlo, ylo), (xhi, yhi) = g.physical_box(b)
            lines.append(f"{xlo} {xhi}")
            lines.append(f"{ylo} {yhi}")
        lines.append(f"Level_{lev}/Cell")
    return "\n".join(lines) + "\n"


def seed_write_plotfile(fs, spec, step, time_, geoms, boxarrays, distributions,
                        ref_ratio=2, trace=None):
    var_names = spec.var_names
    nvars = len(var_names)
    pdir = f"{spec.prefix}{step:05d}"
    fs.mkdirs(pdir)
    header = seed_build_header_text(var_names, geoms, boxarrays, time_, step, ref_ratio)
    n = fs.write_text(f"{pdir}/Header", header)
    if trace is not None:
        trace.record(step, -1, 0, n, f"{pdir}/Header", kind="metadata")
    job_info = build_job_info_text(spec.job_name, spec.nprocs, spec.nnodes)
    n = fs.write_text(f"{pdir}/job_info", job_info)
    if trace is not None:
        trace.record(step, -1, 0, n, f"{pdir}/job_info", kind="metadata")
    for lev in range(len(geoms)):
        ba = boxarrays[lev]
        dm = distributions[lev]
        ldir = f"{pdir}/Level_{lev}"
        fs.mkdirs(ldir)
        rank_boxes = {}
        for k in range(len(ba)):
            rank_boxes.setdefault(dm[k], []).append(k)
        locations = [None] * len(ba)
        ranks = sorted(rank_boxes)
        paths = [f"{ldir}/Cell_D_{rank:05d}" for rank in ranks]
        sizes = []
        for rank, path in zip(ranks, paths):
            fname = path.rsplit("/", 1)[-1]
            offset = 0
            for k in rank_boxes[rank]:
                box = ba[k]
                locations[k] = FabLocation(fname, offset)
                offset += seed_fab_nbytes(box, nvars)
            sizes.append(offset)
        fs.write_many(paths, sizes)
        if trace is not None and ranks:
            trace.record_batch(step, lev, ranks, sizes, paths, kind="data")
        cellh = build_cellh_text(
            ba, nvars, [loc for loc in locations if loc is not None]
        )
        n = fs.write_text(f"{ldir}/Cell_H", cellh)
        if trace is not None:
            trace.record(step, lev, 0, n, f"{ldir}/Cell_H", kind="metadata")
    return pdir


_SEED_CELLD_RE = re.compile(r"^Cell_D_(\d+)$")
_SEED_LEVEL_RE = re.compile(r"^Level_(\d+)$")
_SEED_PLT_RE = re.compile(r"^(.*?)(\d{5,})$")


def seed_inspect_plotfile(fs, pdir):
    name = pdir.rstrip("/").split("/")[-1]
    m = _SEED_PLT_RE.match(name)
    info = PlotfileInfo(path=pdir, step=int(m.group(2)) if m else -1)
    pre = pdir.rstrip("/") + "/"
    for p in fs.files(pdir):
        rel = p[len(pre):] if p.startswith(pre) else p
        parts = rel.split("/")
        if len(parts) == 1:
            if parts[0] == "Header":
                info.header_bytes = fs.size(p)
            elif parts[0] == "job_info":
                info.job_info_bytes = fs.size(p)
        elif len(parts) == 2:
            lm = _SEED_LEVEL_RE.match(parts[0])
            if not lm:
                continue
            lev = int(lm.group(1))
            linfo = info.levels.setdefault(lev, LevelInfo(lev))
            cm = _SEED_CELLD_RE.match(parts[1])
            if cm:
                linfo.task_bytes[int(cm.group(1))] = fs.size(p)
            elif parts[1] == "Cell_H":
                linfo.cellh_bytes = fs.size(p)
    return info


# ----------------------------------------------------------------------
# fixtures / mesh builders
# ----------------------------------------------------------------------
def three_level_setup(nprocs=5):
    """An intentionally awkward hierarchy: uneven boxes, negative-corner
    parent domain offsets avoided but mixed strategies and a level whose
    boxes all land on few ranks."""
    g0 = Geometry(Box.cell_centered(64, 64))
    g1 = g0.refine(2)
    g2 = g1.refine(2)
    ba0 = BoxArray([Box((0, 0), (31, 63)), Box((32, 0), (63, 31)),
                    Box((32, 32), (63, 63))])
    ba1 = BoxArray([Box((40, 40), (71, 71)), Box((72, 40), (95, 63)),
                    Box((16, 72), (47, 103)), Box((48, 72), (63, 95))])
    ba2 = BoxArray([Box((96, 96), (127, 143)), Box((128, 96), (159, 127))])
    dms = [
        make_distribution(ba0, nprocs, "sfc"),
        make_distribution(ba1, nprocs, "knapsack"),
        round_robin_map(ba2, nprocs),
    ]
    return [g0, g1, g2], [ba0, ba1, ba2], dms


def assert_equal_trees(fs_a, fs_b):
    assert fs_a.files() == fs_b.files()
    for p in fs_a.files():
        assert fs_a.size(p) == fs_b.size(p), p


# ----------------------------------------------------------------------
class TestClosedFormFabAccounting:
    def test_scalar_matches_rendered_header(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            lo = rng.integers(-1000, 1000, size=2)
            ext = rng.integers(1, 300, size=2)
            box = Box((int(lo[0]), int(lo[1])),
                      (int(lo[0] + ext[0] - 1), int(lo[1] + ext[1] - 1)))
            for ncomp in (1, 7, 24, 100):
                expect = len(fab_header(box, ncomp).encode("ascii")) \
                    + box.numpts * ncomp * 8
                assert fab_nbytes(box, ncomp) == expect

    def test_array_matches_scalar(self):
        boxes = [Box((-12, 0), (87, 4)), Box((0, 0), (0, 0)),
                 Box((999, -1000), (1000, -1)), Box((5, 7), (104, 206))]
        ba = BoxArray(boxes)
        for ncomp in (1, 24):
            los, his = ba.corners()
            arr = fab_nbytes_array(los, his, ba.box_sizes(), ncomp)
            assert arr.tolist() == [fab_nbytes(b, ncomp) for b in boxes]


class TestSizeModeEquivalence:
    def test_trees_bit_identical_across_dumps(self):
        geoms, bas, dms = three_level_setup()
        spec = PlotfileSpec(prefix="sedov_2d_cyl_in_cart_plt", nprocs=5)
        fs_a = VirtualFileSystem(keep_content=True)
        fs_b = VirtualFileSystem(keep_content=True)
        tr_a, tr_b = IOTrace(), IOTrace()
        for step in (0, 10, 20, 40):
            seed_write_plotfile(fs_a, spec, step, 1e-3 * step, geoms, bas, dms,
                                trace=tr_a)
            write_plotfile(fs_b, spec, step, 1e-3 * step, geoms, bas, dms,
                           trace=tr_b)
        assert fs_a.files() == fs_b.files()
        for p in fs_a.files():
            assert fs_a.size(p) == fs_b.size(p), p
            if p.endswith(("Header", "job_info", "Cell_H")):
                # Size-mode Cell_D files are size-only; metadata text
                # must be byte-identical.
                assert fs_a.read_bytes(p) == fs_b.read_bytes(p), p
        assert tr_a.bytes_step_level_rank() == tr_b.bytes_step_level_rank()

    def test_plan_cache_keyed_on_nvars_and_distribution(self):
        geoms, bas, dms = three_level_setup()
        # Same BoxArray objects, different nvars (derive_all) and then a
        # different distribution: each combination must get its own plan.
        for spec in (PlotfileSpec(prefix="p", nprocs=5, derive_all=True),
                     PlotfileSpec(prefix="p", nprocs=5, derive_all=False)):
            fs_a = VirtualFileSystem(keep_content=True)
            fs_b = VirtualFileSystem(keep_content=True)
            seed_write_plotfile(fs_a, spec, 0, 0.0, geoms, bas, dms)
            write_plotfile(fs_b, spec, 0, 0.0, geoms, bas, dms)
            assert_equal_trees(fs_a, fs_b)
        other_dms = [round_robin_map(ba, 5) for ba in bas]
        spec = PlotfileSpec(prefix="p", nprocs=5)
        fs_a = VirtualFileSystem(keep_content=True)
        fs_b = VirtualFileSystem(keep_content=True)
        seed_write_plotfile(fs_a, spec, 1, 0.0, geoms, bas, other_dms)
        write_plotfile(fs_b, spec, 1, 0.0, geoms, bas, other_dms)
        assert_equal_trees(fs_a, fs_b)
        n_all, n_min = (len(PlotfileSpec(derive_all=d).var_names)
                        for d in (True, False))
        for ba, dm, odm in zip(bas, dms, other_dms):
            plans = {k for k, v in ba.memo.items()
                     if isinstance(v, plotwriter._LevelPlan)}
            assert plans == {(dm.ranks, n_all), (dm.ranks, n_min),
                             (odm.ranks, n_all)}

    def test_single_rank_and_empty_levels(self):
        g0 = Geometry(Box.cell_centered(16, 16))
        g1 = g0.refine(2)
        ba0 = BoxArray([Box((0, 0), (15, 15))])
        ba1 = BoxArray([])  # a level that exists but holds no boxes
        dm0 = round_robin_map(ba0, 1)
        dm1 = round_robin_map(ba1, 1)
        spec = PlotfileSpec(prefix="plt", nprocs=1)
        fs_a = VirtualFileSystem(keep_content=True)
        fs_b = VirtualFileSystem(keep_content=True)
        seed_write_plotfile(fs_a, spec, 0, 0.0, [g0, g1], [ba0, ba1],
                            [dm0, dm1])
        write_plotfile(fs_b, spec, 0, 0.0, [g0, g1], [ba0, ba1], [dm0, dm1])
        assert_equal_trees(fs_a, fs_b)
        # the empty level's Cell_H text matches the seed byte-for-byte
        assert fs_a.read_bytes("plt00000/Level_1/Cell_H") == \
            fs_b.read_bytes("plt00000/Level_1/Cell_H")


class TestLayoutMemo:
    """Level plans and Header blocks live in their BoxArray's ``memo``."""

    @pytest.fixture()
    def plan_builds(self, monkeypatch):
        """Count level-plan builds the way perfbench's ``plotfile.plan``
        span does: calls to ``fab_nbytes_array`` through the writer."""
        calls = []

        def counted(*args):
            calls.append(1)
            return fab_nbytes_array(*args)

        monkeypatch.setattr(plotwriter, "fab_nbytes_array", counted)
        return calls

    def test_plan_built_once_per_layout_across_dumps(self, plan_builds):
        geoms, bas, dms = three_level_setup()
        spec = PlotfileSpec(prefix="p", nprocs=5)
        fs = VirtualFileSystem()
        for step in range(4):
            write_plotfile(fs, spec, step, 0.0, geoms, bas, dms)
        assert len(plan_builds) == len(bas)

    def test_plan_and_header_block_die_with_their_boxarray(self):
        geoms, bas, dms = three_level_setup()
        spec = PlotfileSpec(prefix="p", nprocs=5)
        write_plotfile(VirtualFileSystem(), spec, 0, 0.0, geoms, bas, dms)
        ba = bas[1]
        plan = weakref.ref(ba.memo[(dms[1].ranks, len(spec.var_names))])
        block = ba.memo[(geoms[1],)]
        refs = sys.getrefcount(block)  # a str takes no weakref
        assert plan() is not None
        del ba, bas
        assert plan() is None
        assert sys.getrefcount(block) == refs - 1

    def test_content_equal_boxarray_gets_its_own_plan(self, plan_builds):
        geoms, bas, dms = three_level_setup()
        twin = BoxArray(bas[1].boxes)
        assert twin == bas[1] and twin is not bas[1]
        spec = PlotfileSpec(prefix="p", nprocs=5)
        fs_a = VirtualFileSystem(keep_content=True)
        fs_b = VirtualFileSystem(keep_content=True)
        write_plotfile(fs_a, spec, 0, 0.0, geoms, bas, dms)
        write_plotfile(fs_b, spec, 0, 0.0, geoms, [bas[0], twin, bas[2]], dms)
        assert len(plan_builds) == len(bas) + 1
        key = (dms[1].ranks, len(spec.var_names))
        assert twin.memo[key] is not bas[1].memo[key]
        assert_equal_trees(fs_a, fs_b)
        for p in fs_a.files():
            if p.endswith(("Header", "Cell_H")):
                assert fs_a.read_bytes(p) == fs_b.read_bytes(p), p


class TestInspectEquivalence:
    @pytest.fixture()
    def populated(self):
        geoms, bas, dms = three_level_setup()
        spec = PlotfileSpec(prefix="plt", nprocs=5)
        fs = VirtualFileSystem()
        for step in (0, 3, 12):
            write_plotfile(fs, spec, step, 0.0, geoms, bas, dms)
        return fs, [f"plt{s:05d}" for s in (0, 3, 12)]

    def _assert_infos_equal(self, a, b):
        assert a.step == b.step
        assert a.header_bytes == b.header_bytes
        assert a.job_info_bytes == b.job_info_bytes
        assert sorted(a.levels) == sorted(b.levels)
        for lev in a.levels:
            assert a.levels[lev].cellh_bytes == b.levels[lev].cellh_bytes
            assert a.levels[lev].task_bytes == b.levels[lev].task_bytes
        assert a.total_bytes == b.total_bytes

    def test_virtual(self, populated):
        fs, pdirs = populated
        for d in pdirs:
            self._assert_infos_equal(seed_inspect_plotfile(fs, d),
                                     inspect_plotfile(fs, d))

    def test_real(self, tmp_path, populated):
        vfs, pdirs = populated
        rfs = RealFileSystem(str(tmp_path))
        rfs.write_many(vfs.files(), [vfs.size(p) for p in vfs.files()])
        for d in pdirs:
            self._assert_infos_equal(seed_inspect_plotfile(rfs, d),
                                     inspect_plotfile(rfs, d))


class TestPlotfileNameSplit:
    """Regression for the _PLT_RE mis-split (prefixes ending in digits)."""

    def test_digit_suffixed_prefix_keeps_its_digits(self):
        from repro.plotfile.reader import _split_plotfile_name

        assert _split_plotfile_name("sedov2d_plt00100") == ("sedov2d_plt", 100)
        # Leading-zero runs longer than five can only be prefix digits
        # plus a 5-padded step (AMReX pads to exactly five).
        assert _split_plotfile_name("x_plt0010000123") == ("x_plt00100", 123)
        assert _split_plotfile_name("plt000100") == ("plt0", 100)
        # A >5-digit run with no leading zero is a genuine large step.
        assert _split_plotfile_name("plt123456") == ("plt", 123456)
        assert _split_plotfile_name("plt00020") == ("plt", 20)
        assert _split_plotfile_name("no_digits") is None
        assert _split_plotfile_name("plt0042") is None  # < 5 digits

    def test_inspect_step_of_digit_prefix(self):
        g0 = Geometry(Box.cell_centered(8, 8))
        ba = BoxArray([Box((0, 0), (7, 7))])
        dm = round_robin_map(ba, 1)
        fs = VirtualFileSystem()
        spec = PlotfileSpec(prefix="sedov2d_plt", nprocs=1)
        write_plotfile(fs, spec, 100, 0.0, [g0], [ba], [dm])
        info = inspect_plotfile(fs, "sedov2d_plt00100")
        assert info.step == 100

    def test_list_plotfiles_with_digit_prefix(self):
        g0 = Geometry(Box.cell_centered(8, 8))
        ba = BoxArray([Box((0, 0), (7, 7))])
        dm = round_robin_map(ba, 1)
        fs = VirtualFileSystem()
        spec = PlotfileSpec(prefix="sedov2d_plt", nprocs=1)
        for step in (0, 100, 2000):
            write_plotfile(fs, spec, step, 0.0, [g0], [ba], [dm])
        found = list_plotfiles(fs, "sedov2d_plt")
        assert [s for s, _ in found] == [0, 100, 2000]

    def test_list_and_inspect_split_names_alike(self):
        """A directory lists under the prefix and step inspect reads: a
        run of fewer than five digits is no plotfile, and a leading-zero
        run longer than five keeps its extra digits in the prefix."""
        fs = VirtualFileSystem()
        for name in ("plt1234", "plt0000123", "plt00123", "plt123456"):
            fs.write_size(f"{name}/Header", 1)
        listed = list_plotfiles(fs, "plt")
        assert listed == [(123, "plt00123"), (123456, "plt123456")]
        assert list_plotfiles(fs, "plt00") == [(123, "plt0000123")]
        for step, pdir in listed + list_plotfiles(fs, "plt00"):
            assert inspect_plotfile(fs, pdir).step == step
        assert inspect_plotfile(fs, "plt1234").step == -1


class TestWorkloadGeneratorUsesPlanCache:
    def test_canonical_layout_reuse(self):
        """Unchanged layouts must reuse the previous BoxArray object so
        downstream per-layout caches hit across dumps."""
        from repro.sim.inputs import CastroInputs
        from repro.workload.generator import SedovWorkloadGenerator

        inputs = CastroInputs(n_cell=(64, 64), max_level=1, max_step=40,
                              plot_int=10, stop_time=1e9, max_grid_size=32,
                              blocking_factor=8)
        gen = SedovWorkloadGenerator(inputs, nprocs=4)
        ba1, dm1 = gen._layout_for(0, gen._base_ba)
        # content-equal but distinct object: the memoized pair comes back
        clone = BoxArray(list(gen._base_ba.boxes))
        ba2, dm2 = gen._layout_for(0, clone)
        assert ba2 is ba1 and dm2 is dm1
