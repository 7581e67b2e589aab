#!/usr/bin/env python
"""Drive the MACSio proxy directly, like the real executable.

Reproduces the Fig.-3 output layout, shows the effect of the
``dataset_growth`` knob, and runs a *dynamic* study: the same byte
stream pushed through the Summit/Alpine storage-timing model with
per-node bandwidth sharing — the "burstiness" use the paper positions
MACSio's ``compute_time`` for.

Run:  python examples/macsio_proxy_run.py
"""

import numpy as np

from repro.analysis.report import format_series, format_table, human_bytes
from repro.iosim.filesystem import VirtualFileSystem, format_tree
from repro.macsio.dump import run_macsio
from repro.macsio.params import MacsioParams, format_argv
from repro.parallel.topology import JobTopology
from repro.platform import get_platform


def main() -> None:
    nprocs = 8
    params = MacsioParams(
        num_dumps=5,
        part_size=1_550_000 / 2.5,  # the paper's case4 size, output-anchored
        dataset_growth=1.013075,  # the paper's calibrated value
        compute_time=2.0,
        meta_size=512,
    )
    print("MACSio argv:", " ".join(format_argv(params, nprocs)), "\n")

    # ------------------------------------------------------------------
    # static study: sizes + the Fig. 3 file tree
    # ------------------------------------------------------------------
    fs = VirtualFileSystem()
    run = run_macsio(params, nprocs, fs=fs)
    print("output tree (paper Fig. 3, N-to-N miftmpl):")
    print(format_tree(fs, max_entries=24), "\n")
    cum = run.cumulative_bytes()
    print(format_series(
        list(range(params.num_dumps)),
        {"dump_bytes": run.bytes_per_dump, "cumulative": cum},
        x_label="dump", fmt="{:.6g}",
    ))
    growth_measured = (run.bytes_per_dump[-1] / run.bytes_per_dump[0]) ** (
        1.0 / (params.num_dumps - 1)
    )
    print(f"\nper-dump growth measured: {growth_measured:.6f} "
          f"(requested {params.dataset_growth})\n")

    # ------------------------------------------------------------------
    # dynamic study: burst timeline on the Alpine-like storage model
    # ------------------------------------------------------------------
    storage = get_platform("summit").storage_model(variability=0.15, seed=42)
    topo = JobTopology(nprocs, nnodes=2)
    timed = run_macsio(params, nprocs, storage=storage, topology=topo)
    sched = timed.schedule
    assert sched is not None
    rows = []
    for ev in sched.events:
        rows.append((
            ev.step,
            f"{ev.t_start:8.3f}",
            f"{ev.t_io_start:8.3f}",
            f"{ev.t_end:8.3f}",
            f"{ev.io_seconds:6.3f}",
        ))
    print(format_table(
        ["dump", "t_start", "io_start", "t_end", "io_secs"],
        rows, title="burst timeline (compute ... write ... compute ...)",
    ))
    print(f"\nwall time {sched.total_seconds:.2f}s, I/O fraction "
          f"{sched.io_fraction():.1%} — the classic bursty pattern "
          f"(Miller & Katz)\n")

    # ------------------------------------------------------------------
    # file-mode comparison: N-to-N vs grouped MIF vs single shared file
    # ------------------------------------------------------------------
    rows = []
    for label, kwargs in [
        ("N-to-N (MIF nprocs)", dict(file_count=nprocs)),
        ("MIF 2 files", dict(file_count=2)),
        ("SIF single file", dict(parallel_file_mode="SIF", file_count=1)),
    ]:
        p = MacsioParams(num_dumps=3, part_size=params.part_size, **kwargs)
        f = VirtualFileSystem()
        r = run_macsio(p, nprocs, fs=f)
        data_files = len([x for x in f.files("data")])
        rows.append((label, data_files, human_bytes(r.total_bytes)))
    print(format_table(
        ["file mode", "data files (3 dumps)", "total output"],
        rows, title="parallel_file_mode comparison",
    ))


if __name__ == "__main__":
    main()
