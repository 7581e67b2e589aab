"""Extension: checkpoint cost, restart time, and Young's optimal cadence.

The paper notes AMReX "also supports the generation of checkpoint-
restart data in a similar manner" but studies plotfiles only.  This
bench extends the methodology to the checkpoint path: write cost from
the storage model, restart-read cost from the trace, and the
``amr.check_int`` a practitioner would derive via Young's formula.
"""

import numpy as np

from repro.analysis.report import format_table, human_bytes
from repro.campaign.cases import case4
from repro.campaign.runner import run_case
from repro.iosim.darshan import IOTrace
from repro.iosim.filesystem import VirtualFileSystem
from repro.iosim.readmodel import optimal_check_interval, restart_read_time
from repro.parallel.topology import JobTopology
from repro.platform import get_platform
from repro.plotfile.checkpoint import CheckpointSpec, write_checkpoint
from repro.workload.generator import SedovWorkloadGenerator


def test_ext_checkpoint_restart_cycle(once, emit):
    case = case4()

    def pipeline():
        gen = SedovWorkloadGenerator(case.inputs, nprocs=case.nprocs)
        result = gen.run()
        # write a checkpoint of the final mesh state
        t = result.final_time
        bas = gen.level_layout(t)
        geoms = gen._geoms[: len(bas)]
        from repro.amr.distribution import make_distribution

        dms = [make_distribution(ba, case.nprocs, "sfc") for ba in bas]
        fs = VirtualFileSystem()
        trace = IOTrace()
        write_checkpoint(fs, CheckpointSpec(nprocs=case.nprocs),
                         result.steps_taken, t, geoms, bas, dms, trace=trace)
        return result, fs, trace

    result, fs, trace = once(pipeline)
    storage = get_platform("summit").storage_model(variability=0.0)
    topo = JobTopology(case.nprocs, case.nnodes)
    step = result.steps_taken
    per_rank = [0] * case.nprocs
    for r in trace:
        if r.kind == "data":
            per_rank[r.rank] += r.nbytes
    nodes = topo.node_map()
    write_s = storage.burst_time(per_rank, nodes)
    restart = restart_read_time(trace, step, case.nprocs, storage, topo)
    # plotfile of the same mesh, for the size comparison
    plot_bytes = result.trace.bytes_per_step()[step]
    chk_bytes = fs.total_size()
    mtbf_day = 86400.0
    interval = optimal_check_interval(max(write_s, 1e-6), mtbf_day)

    rows = [
        ("checkpoint bytes", human_bytes(chk_bytes)),
        ("plotfile bytes (same mesh)", human_bytes(plot_bytes)),
        ("chk/plot ratio", f"{chk_bytes / plot_bytes:.3f}"),
        ("modeled checkpoint write", f"{write_s:.3f} s"),
        ("modeled restart read", f"{restart.total_seconds:.3f} s"),
        ("Young-optimal interval (MTBF 1 day)", f"{interval:.0f} s"),
    ]
    emit("ext_checkpoint_restart", format_table(
        ["quantity", "value"], rows,
        title="Extension: checkpoint-restart costs for the case4 mesh",
    ))

    # --- findings --------------------------------------------------------
    # checkpoints carry 7 state vars vs 24 plot vars: ratio ~ 7/24
    assert 0.2 < chk_bytes / plot_bytes < 0.45
    # restart reads faster than the checkpoint was written
    assert restart.read_seconds < write_s
    # Young's interval sits far above the checkpoint cost and far below
    # the MTBF (sqrt(2 C MTBF) geometry)
    assert write_s * 10 < interval < mtbf_day / 10
