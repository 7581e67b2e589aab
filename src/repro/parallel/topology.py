"""Job topology: ranks-per-node layout (Summit ``jsrun`` analogue).

The paper's runs use ``jsrun -n nproc`` on Summit nodes (Table III pairs
nprocs 1–1024 with 1–512 nodes).  The node layout matters for the I/O
timing model because ranks on one node share injection bandwidth to the
parallel filesystem.  This module holds only the value type; the default
packing of ``nprocs`` ranks is
:meth:`repro.platform.Platform.default_topology`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["JobTopology"]


@dataclass(frozen=True)
class JobTopology:
    """Placement of ``nprocs`` ranks over ``nnodes`` nodes, block order.

    Mirrors jsrun's default packing: ranks 0..k-1 on node 0, etc.
    """

    nprocs: int
    nnodes: int

    def __post_init__(self) -> None:
        if self.nprocs < 1 or self.nnodes < 1:
            raise ValueError("nprocs and nnodes must be >= 1")
        if self.nnodes > self.nprocs:
            raise ValueError(
                f"more nodes ({self.nnodes}) than ranks ({self.nprocs})"
            )

    @property
    def ranks_per_node(self) -> int:
        """Max ranks on any node (ceiling of the even split)."""
        return -(-self.nprocs // self.nnodes)

    def node_of_rank(self, rank: int) -> int:
        if not (0 <= rank < self.nprocs):
            raise ValueError(f"rank {rank} out of range")
        return rank // self.ranks_per_node

    def node_map(self) -> np.ndarray:
        """``node_map()[r] == node_of_rank(r)`` as one int64 vector.

        The storage model consumes per-rank node ids on every burst;
        building them vectorized (and caching the result at the call
        site) avoids an O(nprocs) Python loop per timestep.
        """
        return np.arange(self.nprocs, dtype=np.int64) // self.ranks_per_node
