"""Batched dump pipeline vs. the seed per-fab loops.

The paper's measurements *are* the dump trees, and after the solver
hot-path PR the dump side dominated campaign wall time: the seed
``write_plotfile`` rendered and encoded an ASCII FAB header per box just
to measure its length, re-rendered every per-box ``Header``/``Cell_H``
line every dump, copied each component three times in ``encode_fab``,
and ``inspect_plotfile`` regex-walked one stat call per file over a
linear scan of the whole filesystem.

This bench runs the same dumps through

1. **seed** — the pre-PR loops, kept verbatim below (including the
   seed's per-box header render and linear-scan ``files``), and
2. **batched** — the current plan-cached :mod:`repro.plotfile.writer` /
   indexed :mod:`repro.iosim.filesystem` implementations,

at the Fig.-11 scale (8192^2 L0 mesh, 128 ranks, churning refined
levels), asserts both produce identical trees, and emits
``benchmarks/output/BENCH_dump.json`` with three sections: size-mode
dumps/sec (>= 5x floor asserted at full scale), data-mode encode MB/s,
and plotfile-inspection throughput.

``REPRO_BENCH_SMOKE=1`` shrinks the meshes to a harness check (artifact
still emitted; the speedup floors are only asserted at full size).
"""

import json
import os
import time

import numpy as np

from repro.amr.box import Box
from repro.amr.boxarray import BoxArray
from repro.amr.distribution import make_distribution
from repro.amr.geometry import Geometry
from repro.amr.multifab import MultiFab
from repro.campaign.cases import large_case
from repro.hydro.eos import GammaLawEOS
from repro.hydro.state import NCOMP
from repro.iosim.darshan import IOTrace
from repro.iosim.filesystem import VirtualFileSystem
from repro.plotfile.cellh import FabLocation, build_cellh_text
from repro.plotfile.derive import derive_fields
from repro.plotfile.fab import fab_header
from repro.plotfile.header import build_job_info_text
from repro.plotfile.reader import LevelInfo, PlotfileInfo, inspect_plotfile
from repro.plotfile.varlist import plot_variables
from repro.plotfile.writer import PlotfileSpec, clear_plan_cache, write_plotfile
from repro.sim.inputs import CastroInputs
from repro.workload.generator import SedovWorkloadGenerator

OUTPUT_DIR = os.path.join(os.path.dirname(__file__), "output")
BENCH_PATH = os.path.join(OUTPUT_DIR, "BENCH_dump.json")

NPROCS = 128
N_DUMPS = 12
N_LAYOUTS = 4  # distinct annulus positions; each persists for a few dumps
SIZE_SPEEDUP_FLOOR = 5.0
DATA_SPEEDUP_FLOOR = 1.4
INSPECT_SPEEDUP_FLOOR = 2.0

EOS = GammaLawEOS()

import re as _re

# ----------------------------------------------------------------------
# The seed implementations, verbatim (the baseline).
# ----------------------------------------------------------------------
def seed_fab_nbytes(box, ncomp):
    return len(fab_header(box, ncomp).encode("ascii")) + box.numpts * ncomp * 8


def seed_encode_fab(box, data):
    ncomp = data.shape[0]
    header = fab_header(box, ncomp).encode("ascii")
    payload = np.ascontiguousarray(
        np.stack([np.asfortranarray(data[c]).ravel(order="F") for c in range(ncomp)])
    ).astype("<f8").tobytes()
    return header + payload


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
                        ref_ratio=2, state=None, eos=None, trace=None):
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
        minmax = [([0.0] * nvars, [0.0] * nvars) for _ in range(len(ba))]
        ranks = sorted(rank_boxes)
        paths = [f"{ldir}/Cell_D_{rank:05d}" for rank in ranks]
        sizes = []
        for rank, path in zip(ranks, paths):
            fname = path.rsplit("/", 1)[-1]
            offset = 0
            chunks = []
            for k in rank_boxes[rank]:
                box = ba[k]
                locations[k] = FabLocation(fname, offset)
                if state is not None:
                    fields = derive_fields(
                        state[lev][k].interior(), eos or GammaLawEOS(),
                        spec.derive_all, geoms[lev].dx, geoms[lev].dy,
                    )
                    blob = seed_encode_fab(box, fields)
                    chunks.append(blob)
                    offset += len(blob)
                    minmax[k] = (
                        [float(fields[c].min()) for c in range(nvars)],
                        [float(fields[c].max()) for c in range(nvars)],
                    )
                else:
                    offset += seed_fab_nbytes(box, nvars)
            if state is not None:
                sizes.append(fs.write_bytes(path, b"".join(chunks)))
            else:
                sizes.append(offset)
        if state is None:
            fs.write_many(paths, sizes)
        if trace is not None and ranks:
            trace.record_batch(step, lev, ranks, sizes, paths, kind="data")
        cellh = build_cellh_text(
            ba, nvars,
            [loc for loc in locations if loc is not None],
            minmax if state is not None else (),
        )
        n = fs.write_text(f"{ldir}/Cell_H", cellh)
        if trace is not None:
            trace.record(step, lev, 0, n, f"{ldir}/Cell_H", kind="metadata")
    return pdir


_SEED_CELLD_RE = _re.compile(r"^Cell_D_(\d+)$")
_SEED_LEVEL_RE = _re.compile(r"^Level_(\d+)$")
_SEED_PLT_RE = _re.compile(r"^(.*?)(\d{5,})$")


def seed_files(fs, prefix):
    """The seed VirtualFileSystem.files: linear scan over all paths."""
    pre = prefix + "/"
    return sorted(p for p in fs._sizes if p == prefix or p.startswith(pre))


def seed_inspect_plotfile(fs, pdir):
    name = pdir.rstrip("/").split("/")[-1]
    m = _SEED_PLT_RE.match(name)
    info = PlotfileInfo(path=pdir, step=int(m.group(2)) if m else -1)
    pre = pdir.rstrip("/") + "/"
    for p in seed_files(fs, pdir):
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
def fig11_layout_sequence(smoke):
    """``N_DUMPS`` per-dump (geoms, boxarrays, distributions) at Fig.-11
    scale: static L0, annulus levels moving every few dumps (each
    distinct layout persists over consecutive dumps, as the workload
    generator's memoization produces)."""
    if smoke:
        inputs = CastroInputs(n_cell=(512, 512), max_level=2, max_step=200,
                              plot_int=10, stop_time=1e9, max_grid_size=64,
                              blocking_factor=8)
        nprocs = 16
    else:
        case = large_case()
        inputs, nprocs = case.inputs, case.nprocs
    gen = SedovWorkloadGenerator(inputs, nprocs=nprocs)
    events = gen.timebase.output_times(inputs.max_step, inputs.plot_int,
                                       inputs.stop_time)
    picks = [events[(i + 1) * len(events) // (N_LAYOUTS + 1)][1]
             for i in range(N_LAYOUTS)]
    layouts = []
    for t in picks:
        bas = gen.level_layout(t)
        dms = [make_distribution(ba, nprocs, "sfc") for ba in bas]
        layouts.append((gen._geoms[: len(bas)], bas, dms))
    return [layouts[d * N_LAYOUTS // N_DUMPS] for d in range(N_DUMPS)], nprocs


def _run_dump_loop(write_fn, spec, sequence):
    fs = VirtualFileSystem()
    trace = IOTrace()
    t0 = time.perf_counter()
    for step, (geoms, bas, dms) in enumerate(sequence):
        write_fn(fs, spec, step, 1e-4 * step, geoms, bas, dms, trace=trace)
    return fs, trace, time.perf_counter() - t0


def _assert_same_tree(fs_a, fs_b):
    assert fs_a.files() == fs_b.files(), "dump trees differ in file sets"
    for p in fs_a.files():
        assert fs_a.size(p) == fs_b.size(p), f"size differs: {p}"


def _bench_size_mode(smoke):
    sequence, nprocs = fig11_layout_sequence(smoke)
    spec = PlotfileSpec(prefix="sedov_2d_cyl_in_cart_plt", nprocs=nprocs)
    nboxes = sum(len(ba) for ba in sequence[0][1])
    seed_fs, seed_tr, seed_s = _run_dump_loop(seed_write_plotfile, spec, sequence)
    clear_plan_cache()
    new_fs, new_tr, new_s = _run_dump_loop(write_plotfile, spec, sequence)
    _assert_same_tree(seed_fs, new_fs)
    assert seed_tr.bytes_step_level_rank() == new_tr.bytes_step_level_rank()
    row = {
        "mesh": sequence[0][0][0].domain.shape[0],
        "nprocs": nprocs,
        "boxes_per_dump": nboxes,
        "dumps": N_DUMPS,
        "seed_s": round(seed_s, 4),
        "batched_s": round(new_s, 4),
        "seed_dumps_per_s": round(N_DUMPS / max(seed_s, 1e-9), 2),
        "batched_dumps_per_s": round(N_DUMPS / max(new_s, 1e-9), 2),
        "speedup": round(seed_s / max(new_s, 1e-9), 2),
        "floor": SIZE_SPEEDUP_FLOOR,
    }
    return row, new_fs


def _bench_data_mode(smoke):
    n, mg = (96, 16) if smoke else (256, 16)
    reps = 2 if smoke else 4
    boxes = [Box((i, j), (i + mg - 1, j + mg - 1))
             for i in range(0, n, mg) for j in range(0, n, mg)]
    ba = BoxArray(boxes)
    geom = Geometry(Box.cell_centered(n, n))
    dm = make_distribution(ba, 8, "sfc")
    mf = MultiFab(ba, dm, NCOMP, nghost=0)
    rng = np.random.default_rng(7)
    for fab in mf:
        fab.data[0] = 1.0 + rng.random(fab.data[0].shape)
        fab.data[1] = 0.1 * rng.standard_normal(fab.data[0].shape)
        fab.data[2] = 0.1 * rng.standard_normal(fab.data[0].shape)
        fab.data[3] = 2.5 + rng.random(fab.data[0].shape)
    spec = PlotfileSpec(prefix="plt", nprocs=8)
    args = ([geom], [ba], [dm])

    fs_a = VirtualFileSystem(keep_content=True)
    t0 = time.perf_counter()
    for r in range(reps):
        seed_write_plotfile(fs_a, spec, r, 0.0, *args, state=[mf], eos=EOS)
    seed_s = time.perf_counter() - t0

    clear_plan_cache()
    fs_b = VirtualFileSystem(keep_content=True)
    t0 = time.perf_counter()
    for r in range(reps):
        write_plotfile(fs_b, spec, r, 0.0, *args, state=[mf], eos=EOS)
    new_s = time.perf_counter() - t0

    assert fs_a.files() == fs_b.files()
    for p in fs_a.files():
        assert fs_a.read_bytes(p) == fs_b.read_bytes(p), f"bytes differ: {p}"
    nvars = len(plot_variables(True))
    mb = n * n * nvars * 8 / 1e6
    return {
        "mesh": n,
        "nfabs": len(ba),
        "mb_per_dump": round(mb, 2),
        "dumps": reps,
        "seed_mb_per_s": round(mb * reps / max(seed_s, 1e-9), 1),
        "fused_mb_per_s": round(mb * reps / max(new_s, 1e-9), 1),
        "speedup": round(seed_s / max(new_s, 1e-9), 2),
        "floor": DATA_SPEEDUP_FLOOR,
    }


def _bench_inspect(new_fs, smoke):
    pdirs = sorted({p.split("/")[0] for p in new_fs.files()})
    reps = 1 if smoke else 8
    # warm both paths once (first-call allocator/caching effects)
    seed_inspect_plotfile(new_fs, pdirs[0])
    inspect_plotfile(new_fs, pdirs[0])
    t0 = time.perf_counter()
    for _ in range(reps):
        seed_infos = [seed_inspect_plotfile(new_fs, d) for d in pdirs]
    seed_s = (time.perf_counter() - t0) / reps
    t0 = time.perf_counter()
    for _ in range(reps):
        new_infos = [inspect_plotfile(new_fs, d) for d in pdirs]
    new_s = (time.perf_counter() - t0) / reps
    for a, b in zip(seed_infos, new_infos):
        assert a.step == b.step and a.total_bytes == b.total_bytes
        assert a.bytes_per_level() == b.bytes_per_level()
        assert a.bytes_per_task() == b.bytes_per_task()
    return {
        "plotfiles": len(pdirs),
        "files_total": len(new_fs.files()),
        "seed_per_s": round(len(pdirs) / max(seed_s, 1e-9), 1),
        "batched_per_s": round(len(pdirs) / max(new_s, 1e-9), 1),
        "speedup": round(seed_s / max(new_s, 1e-9), 2),
        "floor": INSPECT_SPEEDUP_FLOOR,
    }


def test_dump_pipeline_vs_seed(once, emit, bench_json, smoke):
    size_row, new_fs = once(_bench_size_mode, smoke)
    data_row = _bench_data_mode(smoke)
    inspect_row = _bench_inspect(new_fs, smoke)

    payload = {
        "size_mode": size_row,
        "data_mode": data_row,
        "inspect": inspect_row,
    }
    bench_json(BENCH_PATH, payload)
    emit("BENCH_dump", json.dumps(payload, indent=1))

    if not smoke:
        assert size_row["speedup"] >= SIZE_SPEEDUP_FLOOR, (
            f"batched size-mode dumps only {size_row['speedup']}x the seed "
            f"loop at {size_row['mesh']}^2 / {size_row['boxes_per_dump']} "
            f"boxes (floor {SIZE_SPEEDUP_FLOOR}x)"
        )
        assert data_row["speedup"] >= DATA_SPEEDUP_FLOOR, (
            f"fused data-mode encode only {data_row['speedup']}x the seed "
            f"chain (floor {DATA_SPEEDUP_FLOOR}x)"
        )
        assert inspect_row["speedup"] >= INSPECT_SPEEDUP_FLOOR, (
            f"vectorized inspect only {inspect_row['speedup']}x the seed "
            f"regex walk (floor {INSPECT_SPEEDUP_FLOOR}x)"
        )
