"""Batched dump pipeline vs. the seed per-fab loops.

The paper's measurements *are* the dump trees, and after the solver
hot-path PR the dump side dominated campaign wall time: the seed
``write_plotfile`` rendered and encoded an ASCII FAB header per box just
to measure its length, re-rendered every per-box ``Header``/``Cell_H``
line every dump, and ``inspect_plotfile`` regex-walked one stat call per
file over a linear scan of the whole filesystem.

This bench runs the same dumps through

1. **seed** — the pre-PR loops, kept verbatim below (including the
   seed's per-box header render and linear-scan ``files``), and
2. **batched** — the current plan-cached :mod:`repro.plotfile.writer` /
   indexed :mod:`repro.iosim.filesystem` implementations,

at the Fig.-11 scale (8192^2 L0 mesh, 128 ranks, churning refined
levels), asserts both produce identical trees, and emits
``benchmarks/output/BENCH_dump.json`` with two sections: dumps/sec
(>= 5x floor asserted at full scale) and plotfile-inspection throughput
(>= 2x).

Each row is a paired comparison: every round runs the seed and the
batched path back to back (host drift hits both halves alike), each
half averaging a few passes, on CPU time, with GC paused, and
``speedup`` is the median of the per-round ratios — robust against a
round where the host stalls one half.

``REPRO_BENCH_SMOKE=1`` shrinks the meshes to a harness check (artifact
still emitted; the speedup floors are only asserted at full size).
"""

import gc
import json
import os
import re as _re
import statistics
import time

from repro.amr.distribution import make_distribution
from repro.campaign.cases import large_case
from repro.iosim.darshan import IOTrace
from repro.iosim.filesystem import VirtualFileSystem
from repro.plotfile.cellh import FabLocation, build_cellh_text
from repro.plotfile.fab import fab_header
from repro.plotfile.header import _GRID_BLOCK_CACHE, build_job_info_text
from repro.plotfile.reader import LevelInfo, PlotfileInfo, inspect_plotfile
from repro.plotfile.writer import PlotfileSpec, clear_plan_cache, write_plotfile
from repro.sim.inputs import CastroInputs
from repro.workload.generator import SedovWorkloadGenerator

OUTPUT_DIR = os.path.join(os.path.dirname(__file__), "output")
BENCH_PATH = os.path.join(OUTPUT_DIR, "BENCH_dump.json")

NPROCS = 128
N_DUMPS = 12
N_LAYOUTS = 4  # distinct annulus positions; each persists for a few dumps
SIZE_SPEEDUP_FLOOR = 5.0
INSPECT_SPEEDUP_FLOOR = 2.0
ROUNDS = 9  # paired seed/batched rounds per row (smoke: 2)
METHOD = "median of paired CPU-time rounds (gc off)"

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
    """One pass over the dump sequence: ``((fs, trace), cpu_seconds)``."""
    fs = VirtualFileSystem()
    trace = IOTrace()
    t0 = time.process_time()
    for step, (geoms, bas, dms) in enumerate(sequence):
        write_fn(fs, spec, step, 1e-4 * step, geoms, bas, dms, trace=trace)
    return (fs, trace), time.process_time() - t0


def _cold_writer_caches():
    """Drop the writer's per-layout caches (level plans and the Header's
    per-box block), so every batched round pays its plan builds."""
    clear_plan_cache()
    _GRID_BLOCK_CACHE.clear()


def _paired(rounds, seed_fn, batched_fn):
    """Run ``seed_fn`` then ``batched_fn`` back to back ``rounds`` times
    with GC paused.  Each returns ``(result, cpu_seconds)``; returns the
    last round's two results, both time lists and the median of the
    per-round ``seed / batched`` ratios."""
    seed_s, batched_s = [], []
    gc.disable()
    try:
        for _ in range(rounds):
            seed_out, ts = seed_fn()
            batched_out, tb = batched_fn()
            seed_s.append(ts)
            batched_s.append(tb)
    finally:
        gc.enable()
    ratios = [a / max(b, 1e-9) for a, b in zip(seed_s, batched_s)]
    return seed_out, batched_out, seed_s, batched_s, statistics.median(ratios)


def _assert_same_tree(fs_a, fs_b):
    assert fs_a.files() == fs_b.files(), "dump trees differ in file sets"
    for p in fs_a.files():
        assert fs_a.size(p) == fs_b.size(p), f"size differs: {p}"


def _bench_size_mode(smoke, rounds):
    sequence, nprocs = fig11_layout_sequence(smoke)
    spec = PlotfileSpec(prefix="sedov_2d_cyl_in_cart_plt", nprocs=nprocs)
    nboxes = sum(len(ba) for ba in sequence[0][1])
    reps = 1 if smoke else 3  # passes per half-round: ~20 ms each batched

    def timed(write_fn, cold):
        def run():
            total = 0.0
            for _ in range(reps):
                if cold:
                    _cold_writer_caches()
                out, t = _run_dump_loop(write_fn, spec, sequence)
                total += t
            return out, total / reps
        return run

    (seed_fs, seed_tr), (new_fs, new_tr), seed_s, new_s, speedup = _paired(
        rounds, timed(seed_write_plotfile, False), timed(write_plotfile, True))
    _assert_same_tree(seed_fs, new_fs)
    assert seed_tr.bytes_step_level_rank() == new_tr.bytes_step_level_rank()
    seed_med, new_med = statistics.median(seed_s), statistics.median(new_s)
    row = {
        "mesh": sequence[0][0][0].domain.shape[0],
        "nprocs": nprocs,
        "boxes_per_dump": nboxes,
        "dumps": N_DUMPS,
        "rounds": rounds,
        "reps": reps,
        "seed_s": round(seed_med, 4),
        "batched_s": round(new_med, 4),
        "seed_dumps_per_s": round(N_DUMPS / max(seed_med, 1e-9), 2),
        "batched_dumps_per_s": round(N_DUMPS / max(new_med, 1e-9), 2),
        "speedup": round(speedup, 2),
        "floor": SIZE_SPEEDUP_FLOOR,
        "method": METHOD,
    }
    return row, new_fs


def _bench_inspect(new_fs, smoke, rounds):
    pdirs = sorted({p.split("/")[0] for p in new_fs.files()})
    reps = 1 if smoke else 8
    # warm both paths once (first-call allocator/caching effects)
    seed_inspect_plotfile(new_fs, pdirs[0])
    inspect_plotfile(new_fs, pdirs[0])

    def timed(inspect):
        def run():
            t0 = time.process_time()
            for _ in range(reps):
                infos = [inspect(new_fs, d) for d in pdirs]
            return infos, (time.process_time() - t0) / reps
        return run

    seed_infos, new_infos, seed_s, new_s, speedup = _paired(
        rounds, timed(seed_inspect_plotfile), timed(inspect_plotfile))
    for a, b in zip(seed_infos, new_infos):
        assert a.step == b.step and a.total_bytes == b.total_bytes
        assert a.bytes_per_level() == b.bytes_per_level()
        assert a.bytes_per_task() == b.bytes_per_task()
    seed_med, new_med = statistics.median(seed_s), statistics.median(new_s)
    return {
        "plotfiles": len(pdirs),
        "files_total": len(new_fs.files()),
        "rounds": rounds,
        "reps": reps,
        "seed_per_s": round(len(pdirs) / max(seed_med, 1e-9), 1),
        "batched_per_s": round(len(pdirs) / max(new_med, 1e-9), 1),
        "speedup": round(speedup, 2),
        "floor": INSPECT_SPEEDUP_FLOOR,
        "method": METHOD,
    }


def test_dump_pipeline_vs_seed(once, emit, bench_json, smoke):
    rounds = 2 if smoke else ROUNDS
    size_row, new_fs = once(_bench_size_mode, smoke, rounds)
    inspect_row = _bench_inspect(new_fs, smoke, rounds)

    payload = {
        "size_mode": size_row,
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
        assert inspect_row["speedup"] >= INSPECT_SPEEDUP_FLOOR, (
            f"vectorized inspect only {inspect_row['speedup']}x the seed "
            f"regex walk (floor {INSPECT_SPEEDUP_FLOOR}x)"
        )
