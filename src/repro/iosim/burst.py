"""Burst-pattern timing: compute phases punctuated by I/O bursts.

Miller & Katz (paper refs. [14], [15]) describe the classic "bursty"
pattern — CPU activity followed by intense I/O.  The paper's proxy uses
MACSio's ``compute_time`` to recreate it.  :class:`BurstSchedule`
composes per-step compute durations with storage-model burst times into
the timeline a practitioner would study for burstiness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ..parallel.topology import JobTopology
from .storage import StorageModel

__all__ = ["BurstEvent", "BurstSchedule"]


@dataclass(frozen=True)
class BurstEvent:
    """One compute+dump cycle on the timeline."""

    step: int
    t_start: float
    compute_seconds: float
    io_seconds: float

    @property
    def t_io_start(self) -> float:
        return self.t_start + self.compute_seconds

    @property
    def t_end(self) -> float:
        return self.t_io_start + self.io_seconds


class BurstSchedule:
    """Builds a bursty timeline from per-step byte loads.

    Parameters
    ----------
    storage:
        The filesystem performance model.
    topology:
        Rank placement (node sharing affects burst time).
    compute_time:
        Seconds of compute between dumps (MACSio's ``--compute_time``).
    """

    def __init__(
        self,
        storage: StorageModel,
        topology: JobTopology,
        compute_time: float = 0.0,
    ) -> None:
        if compute_time < 0:
            raise ValueError("compute_time cannot be negative")
        self.storage = storage
        self.topology = topology
        self.compute_time = compute_time
        self.events: List[BurstEvent] = []
        # The rank->node map is a pure function of the topology; build it
        # once instead of once per add_step.
        self._node_map = topology.node_map()

    # ------------------------------------------------------------------
    def add_step(self, step: int, bytes_per_rank: Sequence[int]) -> BurstEvent:
        """Append one compute+burst cycle; returns the event."""
        nb = np.asarray(bytes_per_rank, dtype=np.int64)
        if len(nb) != self.topology.nprocs:
            raise ValueError(
                f"bytes_per_rank has {len(nb)} entries, expected {self.topology.nprocs}"
            )
        io_s = self.storage.burst_time(nb, self._node_map)
        t0 = self.events[-1].t_end if self.events else 0.0
        ev = BurstEvent(step, t0, self.compute_time, io_s)
        self.events.append(ev)
        return ev

    # ------------------------------------------------------------------
    @property
    def total_seconds(self) -> float:
        return self.events[-1].t_end if self.events else 0.0

    @property
    def io_seconds(self) -> float:
        return sum(e.io_seconds for e in self.events)

    @property
    def compute_seconds(self) -> float:
        return sum(e.compute_seconds for e in self.events)

    def io_fraction(self) -> float:
        """Fraction of wall time spent in I/O bursts (I/O-boundedness)."""
        total = self.total_seconds
        return self.io_seconds / total if total > 0 else 0.0

    def timeline(self) -> np.ndarray:
        """Array of (t_start, t_io_start, t_end) rows per event."""
        return np.array(
            [(e.t_start, e.t_io_start, e.t_end) for e in self.events], dtype=np.float64
        )
