"""MACSio main marshal loop: compute — dump — grow — repeat.

Drives the configured interface for ``num_dumps`` dumps, applying
``dataset_growth`` between dumps, writing through a
:class:`~repro.iosim.filesystem.FileSystem`, recording an
:class:`~repro.iosim.darshan.IOTrace`, and (optionally) timing bursts on
a :class:`~repro.iosim.storage.StorageModel`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from ..iosim.burst import BurstSchedule
from ..iosim.darshan import IOTrace
from ..iosim.filesystem import FileSystem, VirtualFileSystem
from ..iosim.storage import StorageModel
from ..parallel.topology import JobTopology
from ..platform import get_platform
from .mesh import MeshPart, build_part, parts_per_rank
from .miftmpl import (
    data_filename,
    part_json_bytes,
    render_part_json,
    root_filename,
    root_json_text,
)
from .params import MacsioParams

__all__ = ["MacsioRun", "run_macsio"]

# hdf5/silo interfaces carry binary payloads with small container
# overhead; factors estimated from typical MACSio output inspections.
_BINARY_OVERHEAD = {"hdf5": 1.02, "silo": 1.05}
_FILE_STRUCTURE_OVERHEAD = {"hdf5": 2048, "silo": 4096}


@dataclass
class MacsioRun:
    """Results of one proxy execution."""

    params: MacsioParams
    nprocs: int
    trace: IOTrace
    bytes_per_dump: List[int] = field(default_factory=list)
    schedule: Optional[BurstSchedule] = None

    def cumulative_bytes(self) -> np.ndarray:
        return np.cumsum(np.asarray(self.bytes_per_dump, dtype=np.float64))

    @property
    def total_bytes(self) -> int:
        return int(sum(self.bytes_per_dump))


def _task_data_bytes(
    params: MacsioParams, part: MeshPart, nparts: int, growth_scale: float
) -> int:
    """Modeled data bytes one task writes in one dump."""
    if params.interface == "miftmpl":
        return nparts * part_json_bytes(part, growth_scale)
    factor = _BINARY_OVERHEAD[params.interface]
    payload = part.nominal_bytes * nparts * growth_scale * factor
    return int(round(payload)) + _FILE_STRUCTURE_OVERHEAD[params.interface]


def _task_data_bytes_all(
    params: MacsioParams, part: MeshPart, nparts: np.ndarray, growth_scale: float
) -> np.ndarray:
    """Vectorized :func:`_task_data_bytes` over every rank at once.

    Element-for-element identical to the scalar form: the float product
    runs in the same left-to-right order and ``np.rint`` rounds half to
    even exactly like Python's ``round``.
    """
    nparts = np.asarray(nparts, dtype=np.int64)
    if params.interface == "miftmpl":
        return nparts * part_json_bytes(part, growth_scale)
    factor = _BINARY_OVERHEAD[params.interface]
    payload = part.nominal_bytes * nparts * growth_scale * factor
    return np.rint(payload).astype(np.int64) + _FILE_STRUCTURE_OVERHEAD[params.interface]


def run_macsio(
    params: MacsioParams,
    nprocs: int,
    fs: Optional[FileSystem] = None,
    storage: Optional[StorageModel] = None,
    topology: Optional[JobTopology] = None,
    materialize: bool = False,
) -> MacsioRun:
    """Execute the proxy: ``num_dumps`` dumps over ``nprocs`` tasks.

    Parameters
    ----------
    params:
        The Table-II argument set.
    nprocs:
        Simulated MPI task count.
    fs:
        Output filesystem (fresh virtual one if omitted).
    storage / topology:
        With ``storage``, a burst timeline is produced alongside sizes;
        ``topology`` defaults to the default machine's packing
        (:meth:`~repro.platform.Platform.default_topology`).
    materialize:
        miftmpl only: render real JSON documents instead of modeled
        sizes (slow; for validation tests and examples).
    """
    if nprocs < 1:
        raise ValueError("nprocs must be >= 1")
    if fs is None:
        fs = VirtualFileSystem()
    trace = IOTrace()
    part = build_part(params.part_size, params.vars_per_part)
    nparts = parts_per_rank(params.avg_num_parts, nprocs)
    schedule = None
    if storage is not None:
        topo = topology or get_platform().default_topology(nprocs)
        schedule = BurstSchedule(storage, topo, params.compute_time)
    run = MacsioRun(params, nprocs, trace, schedule=schedule)
    files_per_dump = params.files_per_dump(nprocs)

    all_ranks = np.arange(nprocs, dtype=np.int64)
    # MIF baton groups depend only on the job shape: rank r writes into
    # file r*files_per_dump//nprocs.  group_of is non-decreasing, so the
    # per-file byte accumulation is a sorted-segment reduction.
    group_of = (all_ranks * files_per_dump) // nprocs
    groups, group_first = np.unique(group_of, return_index=True)
    rank_to_group_pos = np.searchsorted(groups, group_of)

    for dump in range(params.num_dumps):
        growth_scale = params.dataset_growth**dump
        per_rank = _task_data_bytes_all(params, part, nparts, growth_scale)
        if params.parallel_file_mode == "SIF":
            path = f"data/{data_filename(0, dump)}"
            fs.write_size(path, int(per_rank.sum()))
            trace.record_batch(dump, 0, all_ranks, per_rank, path, kind="data")
        else:
            # MIF: tasks grouped over `files_per_dump` files (baton
            # passing); file_count == nprocs is the paper's N-to-N.
            # One segment-sum replaces the per-rank accumulate loop.
            group_bytes = np.add.reduceat(per_rank, group_first)
            group_paths = [f"data/{data_filename(int(g), dump)}" for g in groups]
            if materialize and params.interface == "miftmpl" and files_per_dump == nprocs:
                for g, path in zip(groups, group_paths):
                    text = render_part_json(part, int(g), dump)
                    fs.write_text(path, text)
            else:
                # One batched call for the dump's whole MIF/N-to-N burst.
                fs.write_many(group_paths, group_bytes)
            trace.record_batch(
                dump, 0, all_ranks, per_rank,
                [group_paths[i] for i in rank_to_group_pos.tolist()],
                kind="data",
            )
        # Root metadata file (rank 0 writes it).
        root_text = root_json_text(nprocs, dump, nparts, params.meta_size)
        root_path = f"metadata/{root_filename(dump)}"
        nb_root = fs.write_text(root_path, root_text)
        trace.record(dump, 0, 0, nb_root, root_path, kind="metadata")
        run.bytes_per_dump.append(int(per_rank.sum()) + nb_root)
        if schedule is not None:
            ev = schedule.add_step(dump, per_rank)
            trace.record_burst_time(dump, ev.io_seconds)
    return run
