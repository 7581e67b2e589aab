"""Columnar IOTrace vs the seed event-list trace (the substrate bench).

The paper's premise is that the I/O-relevant observables are *cheap* to
produce; the trace substrate must not be the bottleneck.  This bench
replays identical record streams (10^4 / 10^5 / 10^6 records) into

1. **legacy** — the seed's ``List[IORecord]`` trace, every aggregation
   a Python loop over records (kept below as the reference), and
2. **columnar** — the NumPy-column :class:`repro.iosim.darshan.IOTrace`
   with vectorized aggregations and the ``record_batch`` append path,

asserts every aggregation agrees exactly, and emits
``benchmarks/output/BENCH_trace.json`` with per-size timings.  At 10^6
records the columnar aggregation pass must be >= 10x faster.  Each row
times the columnar append twice — the per-record loop (the pending-row
small-append path, which must stay >= parity with the legacy loop) and
the writers' ``record_batch`` path.

``REPRO_BENCH_SMOKE=1`` shrinks the sizes to a harness check (artifact
still emitted; the speedup floors are only asserted at full size).
"""

import json
import os
import time
from collections import defaultdict

import numpy as np

from repro.iosim.darshan import IORecord, IOTrace

OUTPUT_DIR = os.path.join(os.path.dirname(__file__), "output")
BENCH_PATH = os.path.join(OUTPUT_DIR, "BENCH_trace.json")

FULL_SIZES = (10_000, 100_000, 1_000_000)
SMOKE_SIZES = (500, 2_000)
SPEEDUP_FLOOR = 10.0  # at the largest full size, aggregation pass
APPEND_PARITY_FLOOR = 1.0  # per-record columnar append vs legacy append


class LegacyIOTrace:
    """The seed's event-list implementation, verbatim (the baseline)."""

    def __init__(self):
        self._records = []

    def record(self, step, level, rank, nbytes, path, kind="data"):
        if nbytes < 0:
            raise ValueError("nbytes cannot be negative")
        self._records.append(IORecord(step, level, rank, nbytes, path, kind))

    def __len__(self):
        return len(self._records)

    def steps(self):
        return sorted({r.step for r in self._records})

    def total_bytes(self, kind=None):
        return sum(r.nbytes for r in self._records if kind is None or r.kind == kind)

    def bytes_per_step(self):
        out = defaultdict(int)
        for r in self._records:
            out[r.step] += r.nbytes
        return dict(out)

    def bytes_per_level(self, step=None):
        out = defaultdict(int)
        for r in self._records:
            if r.level < 0:
                continue
            if step is None or r.step == step:
                out[r.level] += r.nbytes
        return dict(out)

    def bytes_per_rank(self, step=None, level=None, nprocs=None):
        n = nprocs if nprocs is not None else (
            max((r.rank for r in self._records), default=-1) + 1
        )
        out = np.zeros(max(n, 0), dtype=np.int64)
        for r in self._records:
            if step is not None and r.step != step:
                continue
            if level is not None and r.level != level:
                continue
            out[r.rank] += r.nbytes
        return out

    def bytes_step_level_rank(self):
        out = defaultdict(int)
        for r in self._records:
            out[(r.step, r.level, r.rank)] += r.nbytes
        return dict(out)

    def file_count(self, step=None):
        return len({r.path for r in self._records if step is None or r.step == step})

    def cumulative_bytes_by_step(self):
        per = self.bytes_per_step()
        steps = np.array(sorted(per), dtype=np.int64)
        sizes = np.array([per[s] for s in steps], dtype=np.float64)
        return steps, np.cumsum(sizes)


def make_stream(n, seed=1234, nprocs=128, nlevels=4, nsteps=50):
    """Arrays of a plausible campaign stream: N-to-N dumps + metadata."""
    rng = np.random.default_rng(seed)
    step = rng.integers(0, nsteps, size=n).astype(np.int64) * 10
    level = rng.integers(0, nlevels, size=n).astype(np.int64)
    rank = rng.integers(0, nprocs, size=n).astype(np.int64)
    nbytes = rng.integers(0, 50_000_000, size=n).astype(np.int64)
    meta = rng.random(n) < 0.05
    level[meta] = -1
    rank[meta] = 0
    path_pool = [f"plt{s:05d}/Level_{l}/Cell_D_{r:05d}"
                 for s in range(8) for l in range(nlevels) for r in range(64)]
    paths = [path_pool[i] for i in rng.integers(0, len(path_pool), size=n)]
    kinds = np.where(meta, "metadata", "data")
    return step, level, rank, nbytes, paths, kinds


def run_aggregations(trace, nprocs):
    """The analysis layer's query mix; returns results for comparison.

    The per-step probes mirror the real per-dump queries —
    ``campaign.records`` asks for the per-rank vector of its last dump
    and ``iosim.readmodel`` for the per-rank and metadata bytes of one
    dump — each of which is a full O(records) scan on the event-list
    path.  ``per_task_series`` and the Fig. 7/8 pipelines do not probe
    per dump: they read ``trace.columns()`` once and aggregate those
    arrays themselves.
    """
    steps = trace.steps()
    probes = steps[:: max(1, len(steps) // 5)][:5]
    out = {
        "total": trace.total_bytes(),
        "total_meta": trace.total_bytes("metadata"),
        "per_step": trace.bytes_per_step(),
        "per_level": trace.bytes_per_level(),
        "per_rank": trace.bytes_per_rank(nprocs=nprocs).tolist(),
        "slr": trace.bytes_step_level_rank(),
        "file_count": trace.file_count(),
        "cumulative": [a.tolist() for a in trace.cumulative_bytes_by_step()],
    }
    for probe in probes:
        out[f"per_level@{probe}"] = trace.bytes_per_level(step=probe)
        out[f"per_rank@{probe}"] = trace.bytes_per_rank(
            step=probe, nprocs=nprocs
        ).tolist()
        out[f"files@{probe}"] = trace.file_count(step=probe)
    return out


def _loop_fill(trace, stream):
    """Per-record appends, the identical call pattern for every trace."""
    step, level, rank, nbytes, paths, kinds = stream
    rec = trace.record
    for i in range(len(step)):
        rec(int(step[i]), int(level[i]), int(rank[i]), int(nbytes[i]),
            paths[i], str(kinds[i]))


def _bench_one_size(n, nprocs=128):
    stream = make_stream(n, nprocs=nprocs)
    step, level, rank, nbytes, paths, kinds = stream

    legacy = LegacyIOTrace()
    t0 = time.perf_counter()
    _loop_fill(legacy, stream)
    legacy_append_s = time.perf_counter() - t0

    # Small-append path: the same per-record loop through the pending-row
    # buffer — the path scalar-append writers (storage burst log, service
    # probes) actually hit, and the parity target of the append floor.
    columnar_loop = IOTrace()
    t0 = time.perf_counter()
    _loop_fill(columnar_loop, stream)
    columnar_append_s = time.perf_counter() - t0

    columnar = IOTrace()
    t0 = time.perf_counter()
    data = kinds == "data"
    chunk = -(-n // 64)  # writers batch per level-dump, not per run
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        sel = data[lo:hi]
        for mask, kind in ((sel, "data"), (~sel, "metadata")):
            idx = np.nonzero(mask)[0] + lo
            if len(idx):
                columnar.record_batch(
                    step[idx], level[idx], rank[idx], nbytes[idx],
                    [paths[i] for i in idx], kind=kind,
                )
    batch_append_s = time.perf_counter() - t0
    assert len(columnar) == len(columnar_loop) == len(legacy) == n

    def timed_best_of_2(trace):
        best, result = float("inf"), None
        for _ in range(2):
            t0 = time.perf_counter()
            result = run_aggregations(trace, nprocs)
            best = min(best, time.perf_counter() - t0)
        return best, result

    legacy_agg_s, legacy_out = timed_best_of_2(legacy)
    columnar_agg_s, columnar_out = timed_best_of_2(columnar)

    assert columnar_out == legacy_out, f"aggregation mismatch at n={n}"
    assert run_aggregations(columnar_loop, nprocs) == legacy_out, (
        f"loop-appended aggregation mismatch at n={n}"
    )
    return {
        "records": n,
        "legacy_append_s": round(legacy_append_s, 4),
        "columnar_append_s": round(columnar_append_s, 4),
        "batch_append_s": round(batch_append_s, 4),
        "legacy_agg_s": round(legacy_agg_s, 4),
        "columnar_agg_s": round(columnar_agg_s, 4),
        "agg_speedup": round(legacy_agg_s / max(columnar_agg_s, 1e-9), 2),
        "append_speedup": round(legacy_append_s / max(columnar_append_s, 1e-9), 2),
        "batch_append_speedup": round(
            legacy_append_s / max(batch_append_s, 1e-9), 2
        ),
    }


def test_trace_columnar_vs_legacy(once, emit, bench_json, smoke):
    sizes = SMOKE_SIZES if smoke else FULL_SIZES
    _bench_one_size(500)  # warm numpy kernels before any timed pass
    rows = [_bench_one_size(n) for n in sizes[:-1]]
    # the largest size doubles as the pytest-benchmark-registered timing
    rows.append(once(_bench_one_size, sizes[-1]))

    payload = {
        "sizes": list(sizes),
        "speedup_floor": SPEEDUP_FLOOR,
        "append_parity_floor": APPEND_PARITY_FLOOR,
        "rows": rows,
    }
    bench_json(BENCH_PATH, payload)
    emit("BENCH_trace", json.dumps(payload, indent=1))

    if not smoke:
        top = rows[-1]
        assert top["records"] == 1_000_000
        assert top["agg_speedup"] >= SPEEDUP_FLOOR, (
            f"columnar aggregation only {top['agg_speedup']}x faster than the "
            f"event-list path at 10^6 records (floor {SPEEDUP_FLOOR}x)"
        )
        assert rows[0]["append_speedup"] >= APPEND_PARITY_FLOOR, (
            f"per-record columnar append fell below legacy parity "
            f"({rows[0]['append_speedup']}x at {rows[0]['records']} records)"
        )
