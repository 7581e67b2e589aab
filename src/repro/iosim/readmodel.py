"""Restart-read cost model (the checkpoint side of the I/O story).

The paper studies writes; a restart replays them as reads — every rank
opens and reads back its own ``Cell_D`` files plus the shared metadata.
This model estimates restart time from a recorded checkpoint/plotfile
trace, completing the co-design picture (write cadence vs restart
penalty trade-off for ``amr.check_int`` tuning).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..parallel.topology import JobTopology
from .darshan import IOTrace
from .storage import StorageModel

__all__ = ["RestartCost", "restart_read_time", "optimal_check_interval"]


@dataclass(frozen=True)
class RestartCost:
    """Breakdown of one modeled restart."""

    data_bytes: int
    metadata_bytes: int
    read_seconds: float
    metadata_seconds: float

    @property
    def total_seconds(self) -> float:
        return self.read_seconds + self.metadata_seconds


def restart_read_time(
    trace: IOTrace,
    step: int,
    nprocs: int,
    storage: StorageModel,
    topology: Optional[JobTopology] = None,
    read_bandwidth_factor: float = 1.2,
    machine=None,
) -> RestartCost:
    """Modeled time to read back the files of dump ``step``.

    Reads typically run somewhat faster than writes on GPFS
    (``read_bandwidth_factor``); metadata is read by every rank (the
    Header broadcast pattern).  Without an explicit ``topology`` the
    ranks are packed by ``machine``'s
    :meth:`~repro.platform.Platform.default_topology` (summit when
    unset).
    """
    if read_bandwidth_factor <= 0:
        raise ValueError("read_bandwidth_factor must be positive")
    from ..platform import get_platform  # local: platform imports iosim

    topo = topology or get_platform(machine).default_topology(nprocs)
    per_rank = trace.bytes_per_rank(step=step, nprocs=nprocs, kind="data")
    data_bytes = int(per_rank.sum())
    meta_bytes = trace.bytes_per_step(kind="metadata").get(step, 0)
    write_equiv = storage.burst_time(per_rank, topo.node_map())
    read_s = write_equiv / read_bandwidth_factor
    # Every rank stats+reads the shared metadata files.
    meta_s = storage.metadata_latency * max(1, nprocs) ** 0.5 + (
        meta_bytes / storage.stream_bandwidth
    )
    return RestartCost(
        data_bytes=data_bytes,
        metadata_bytes=int(meta_bytes),
        read_seconds=read_s,
        metadata_seconds=meta_s,
    )


def optimal_check_interval(
    checkpoint_write_seconds: float,
    mtbf_seconds: float,
) -> float:
    """Young's formula: ``sqrt(2 * C * MTBF)`` seconds between checkpoints.

    The classic first-order optimum for checkpoint cadence given the
    per-checkpoint cost ``C`` and the platform's mean time between
    failures — what a practitioner would feed back into
    ``amr.check_int`` once the proxy has estimated ``C``.
    """
    if checkpoint_write_seconds <= 0 or mtbf_seconds <= 0:
        raise ValueError(
            "checkpoint_write_seconds and mtbf_seconds must be positive"
        )
    return float(np.sqrt(2.0 * checkpoint_write_seconds * mtbf_seconds))
