#!/usr/bin/env python
"""Paper-scale and beyond: the 17-billion-cell workload, timed on Summit.

The largest Table-III configuration — a 131072^2 (~17 B cell) base mesh
on 1024 ranks over 512 Summit nodes — cannot be *solved* on a laptop,
but its I/O workload can be generated analytically and pushed through
the storage-timing model.  This example does exactly that, then asks
the co-design question the paper motivates: how does time-to-dump scale
as meshes grow toward exascale, and when does the N-to-N file count
itself become the bottleneck?

Run:  python examples/exascale_extrapolation.py
"""

import time

from repro.analysis.report import format_table, human_bytes
from repro.campaign.cases import Case
from repro.campaign.runner import run_case
from repro.platform import get_platform
from repro.sim.inputs import CastroInputs

SUMMIT = get_platform("summit")


def run_scale(n: int, nprocs: int, nnodes: int, dumps: int = 3):
    """Generate the workload for an n x n mesh and time its bursts."""
    inputs = CastroInputs(
        n_cell=(n, n), max_level=2, max_step=dumps * 10, plot_int=10,
        stop_time=1e9, max_grid_size=256, blocking_factor=8, cfl=0.5,
    )
    case = Case(f"scale{n}", inputs, nprocs, nnodes, engine="workload")
    t0 = time.perf_counter()
    result = run_case(case)
    gen_seconds = time.perf_counter() - t0
    storage = SUMMIT.storage_model(variability=0.0)
    topo = SUMMIT.topology(nprocs, nnodes)
    # burst time of the largest dump
    last = max(ev.step for ev in result.outputs)
    per_rank = result.trace.bytes_per_rank(step=last, nprocs=nprocs)
    nodes = topo.node_map()
    burst = storage.burst_time(per_rank.tolist(), nodes)
    files = result.trace.file_count(step=last)
    total = result.trace.bytes_per_step()[last]
    return result, gen_seconds, burst, files, total


def main() -> None:
    print(f"Summit envelope: {SUMMIT.total_nodes} nodes, "
          f"{human_bytes(SUMMIT.filesystem.aggregate_bandwidth)}/s aggregate to Alpine\n")
    ladder = [
        (1024, 64, 4),
        (4096, 256, 16),
        (8192, 128, 64),     # the paper's Fig. 11 case
        (32768, 512, 128),
        (131072, 1024, 512),  # the paper's largest: ~17 B cells, 1/9 Summit
    ]
    rows = []
    for n, nprocs, nnodes in ladder:
        result, gen_s, burst, files, total = run_scale(n, nprocs, nnodes)
        cells = sum(result.outputs[-1].cells_per_level)
        rows.append((
            f"{n}^2",
            f"{cells / 1e9:.2f}B" if cells > 1e9 else f"{cells / 1e6:.0f}M",
            nprocs,
            nnodes,
            human_bytes(total),
            files,
            f"{burst:.2f}s",
            f"{gen_s:.1f}s",
        ))
        print(f"  generated {n}^2 case in {gen_s:.1f}s "
              f"(dump: {human_bytes(total)}, burst: {burst:.2f}s)")
    print()
    print(format_table(
        ["L0 mesh", "cells", "ranks", "nodes", "bytes/dump",
         "files/dump", "modeled burst", "generation"],
        rows,
        title="pre-exascale scaling of one analysis dump (Table III envelope)",
    ))
    print(
        "\nreading the table: data volume grows ~n^2 while per-node\n"
        "bandwidth grows only with the node count, so the burst time\n"
        "climbs with mesh size — and at the largest scales the N-to-N\n"
        "pattern multiplies metadata pressure (files/dump = active ranks\n"
        "x levels). This is the I/O-bound trend the paper's proxy\n"
        "methodology is built to explore cheaply."
    )


if __name__ == "__main__":
    main()
