"""Parallel-filesystem performance models (GPFS, Lustre, burst buffer).

The base :class:`StorageModel` is the shared-injection GPFS flavor the
paper's Summit/Alpine runs saw: the time to write a file of N bytes from
a given node is

    t = t_metadata + t_open + N / min(bw_stream, bw_node_share) * (1 + noise)

with per-node injection-bandwidth sharing (ranks on a node contend) and
lognormal variability, the "dynamic / random system characteristics"
(bandwidth, file-system variability) the paper's Section III-B says a
calibrated proxy lets practitioners study.

Two subclasses cover the other machine-room flavors the platform
registry (:mod:`repro.platform`) ships:

* :class:`LustreStorageModel` — striped writes over a pool of OSTs with
  per-OST contention (Frontier/Orion-like).
* :class:`BurstBufferStorageModel` — a two-tier model: bursts land on a
  node-local SSD and drain asynchronously into the parallel filesystem.

All three share the vectorized :meth:`StorageModel.burst_time` batch API
and its rank-indexed noise protocol; subclasses only replace the
per-rank bandwidth law (and, for the burst buffer, add the overflow
term), so mixing models inside one sweep stays apples-to-apples.

Numbers default to published Alpine (Summit's GPFS) figures scaled to a
per-node view: 2.5 TB/s aggregate over 4608 nodes ~ 545 MB/s/node
sustained injection per node at full scale, with single-stream writes
typically seeing ~1-2 GB/s.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "StorageModel",
    "LustreStorageModel",
    "BurstBufferStorageModel",
    "WriteCost",
]


@dataclass(frozen=True)
class WriteCost:
    """Breakdown of one modeled file write."""

    nbytes: int
    seconds: float
    metadata_seconds: float
    transfer_seconds: float


@dataclass
class StorageModel:
    """Bandwidth/latency/variability model of a parallel filesystem.

    Parameters
    ----------
    stream_bandwidth:
        Max single-stream write bandwidth (bytes/s).
    node_bandwidth:
        Injection bandwidth shared by all ranks of a node (bytes/s).
    metadata_latency:
        Fixed cost per file create+open+close (seconds) — dominates
        N-to-N patterns with many small files.
    variability:
        Sigma of the lognormal noise multiplier (0 => deterministic).
    seed:
        RNG seed for reproducible noise.
    """

    stream_bandwidth: float = 1.5e9
    node_bandwidth: float = 12.5e9
    metadata_latency: float = 2.0e-3
    variability: float = 0.0
    seed: int = 12345

    def __post_init__(self) -> None:
        # Named validation: each message carries the offending parameter
        # and value, so a sweep over generated platform specs fails with
        # a pointer instead of silently producing inf/negative times.
        if self.stream_bandwidth <= 0:
            raise ValueError(
                f"stream_bandwidth must be positive, got {self.stream_bandwidth}"
            )
        if self.node_bandwidth <= 0:
            raise ValueError(
                f"node_bandwidth must be positive, got {self.node_bandwidth}"
            )
        if self.metadata_latency < 0:
            raise ValueError(
                f"metadata_latency cannot be negative, got {self.metadata_latency}"
            )
        if self.variability < 0:
            raise ValueError(
                f"variability cannot be negative, got {self.variability}"
            )
        self._rng = np.random.default_rng(self.seed)

    # ------------------------------------------------------------------
    def _noise(self) -> float:
        if self.variability == 0.0:
            return 1.0
        # Lognormal with unit median: median write time is the model time.
        return float(np.exp(self._rng.normal(0.0, self.variability)))

    def _burst_noise(self, n: int):
        """Rank-indexed (metadata, transfer) noise pair batch of a burst.

        One batched draw per burst: row ``r`` is rank ``r``'s noise pair
        whatever ``n`` is, so appending idle ranks never changes the
        draws the existing ranks consume.  Shared by every model in the
        hierarchy — the noise protocol is part of the batch API.
        """
        if self.variability == 0.0:
            return 1.0, 1.0
        noise = np.exp(self._rng.normal(0.0, self.variability, size=(n, 2)))
        return noise[:, 0], noise[:, 1]

    # -- the per-flavor bandwidth law ----------------------------------
    # ``node_index``/``n_nodes`` are the per-burst node grouping
    # (np.unique over node_of_rank), computed once in burst_time and
    # shared by both hooks.
    def _burst_bandwidth(
        self, nb: np.ndarray, node_index: np.ndarray, active: np.ndarray,
        n_nodes: int,
    ) -> np.ndarray:
        """Per-rank effective bandwidth during an N-to-N burst.

        GPFS shared-injection law: active writers on a node split the
        node's injection bandwidth evenly; a single stream never exceeds
        ``stream_bandwidth``.  Subclasses override this to change the
        filesystem flavor while inheriting the burst/noise machinery.
        """
        concurrent = self._active_per_node(node_index, active, n_nodes)
        return np.minimum(self.stream_bandwidth, self.node_bandwidth / concurrent)

    def _burst_extra_seconds(
        self, nb: np.ndarray, node_index: np.ndarray, active: np.ndarray,
        n_nodes: int,
    ) -> Optional[np.ndarray]:
        """Per-rank additive burst cost beyond metadata + transfer.

        ``None`` (the default) means no extra term; the burst-buffer
        model returns its capacity-overflow drain penalty here.
        """
        return None

    @staticmethod
    def _active_per_node(
        node_index: np.ndarray, active: np.ndarray, n_nodes: int
    ) -> np.ndarray:
        """Active-writer count of each rank's node (>= 1)."""
        per_node_active = np.bincount(
            node_index, weights=active, minlength=n_nodes
        ).astype(np.int64)
        return np.maximum(per_node_active[node_index], 1)

    # ------------------------------------------------------------------
    def write_time(self, nbytes: int, concurrent_on_node: int = 1) -> WriteCost:
        """Modeled seconds to write one file of ``nbytes``.

        ``concurrent_on_node`` ranks share the node's injection
        bandwidth during the burst.
        """
        if nbytes < 0:
            raise ValueError("nbytes cannot be negative")
        if concurrent_on_node < 1:
            raise ValueError("concurrent_on_node must be >= 1")
        bw = self._single_file_bandwidth(concurrent_on_node)
        meta = self.metadata_latency * self._noise()
        xfer = nbytes / bw * self._noise()
        return WriteCost(nbytes, meta + xfer, meta, xfer)

    def _single_file_bandwidth(self, concurrent_on_node: int) -> float:
        share = self.node_bandwidth / concurrent_on_node
        return min(self.stream_bandwidth, share)

    def burst_time(
        self,
        bytes_per_rank: Sequence[int],
        node_of_rank: Optional[Sequence[int]] = None,
    ) -> float:
        """Wall time of an N-to-N burst: slowest rank wins.

        Every rank writes its file simultaneously; ranks on the same node
        share injection bandwidth for the duration of the burst (a
        conservative static-contention approximation).

        Noise stability guarantee: variability noise is drawn as one
        rank-indexed batch per burst (rank ``r`` always consumes draws
        ``2r`` and ``2r + 1`` of the burst's batch), so appending idle
        (zero-byte) ranks never changes the noise — and therefore the
        modeled time — of the existing ranks.
        """
        nb = np.asarray(bytes_per_rank, dtype=np.int64)
        n = len(nb)
        if n == 0:
            return 0.0
        if node_of_rank is None:
            nodes = np.zeros(n, dtype=np.int64)
        else:
            nodes = np.asarray(node_of_rank, dtype=np.int64)
            if nodes.shape != nb.shape:
                raise ValueError("node_of_rank must match bytes_per_rank length")
        # Count active writers per node (ranks with nonzero work still pay
        # metadata; a rank with no file at a level writes nothing).
        active = nb > 0
        node_ids, node_index = np.unique(nodes, return_inverse=True)
        bw = self._burst_bandwidth(nb, node_index, active, len(node_ids))
        meta_noise, xfer_noise = self._burst_noise(n)
        times = (self.metadata_latency * meta_noise + nb / bw * xfer_noise) * active
        extra = self._burst_extra_seconds(nb, node_index, active, len(node_ids))
        if extra is not None:
            times = times + extra
        return float(times.max())

    # ------------------------------------------------------------------
    @staticmethod
    def ideal() -> "StorageModel":
        """Deterministic, latency-free model for unit tests."""
        return StorageModel(
            stream_bandwidth=1e9,
            node_bandwidth=1e12,
            metadata_latency=0.0,
            variability=0.0,
        )


@dataclass
class LustreStorageModel(StorageModel):
    """Striped Lustre flavor: files spread over OSTs that contend.

    Each file stripes over ``stripe_count`` object storage targets
    assigned round-robin from a pool of ``ost_count`` (the k-th active
    writer of a burst uses OSTs ``k*stripe_count .. +stripe_count-1``
    mod ``ost_count`` — Lustre's default sequential allocation).  A
    stripe moves at ``min(stream_bandwidth, ost_bandwidth / writers on
    that OST)``; a file's bandwidth is the sum over its stripes, still
    capped by the node's shared injection bandwidth.

    Consequences the unit tests pin: burst time is monotone in bytes,
    grows when writers outnumber OSTs (contention), and single-writer
    bandwidth scales with ``stripe_count`` until the injection cap.
    """

    ost_count: int = 32
    stripe_count: int = 1
    ost_bandwidth: float = 5e9

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.ost_count < 1:
            raise ValueError(f"ost_count must be >= 1, got {self.ost_count}")
        if not (1 <= self.stripe_count <= self.ost_count):
            raise ValueError(
                f"stripe_count must be in [1, ost_count={self.ost_count}], "
                f"got {self.stripe_count}"
            )
        if self.ost_bandwidth <= 0:
            raise ValueError(
                f"ost_bandwidth must be positive, got {self.ost_bandwidth}"
            )

    def _burst_bandwidth(
        self, nb: np.ndarray, node_index: np.ndarray, active: np.ndarray,
        n_nodes: int,
    ) -> np.ndarray:
        concurrent = self._active_per_node(node_index, active, n_nodes)
        node_share = self.node_bandwidth / concurrent
        # Round-robin stripe placement over the burst's active writers.
        writer_index = np.cumsum(active) - 1  # k-th active file, rank order
        osts = (
            writer_index[:, None] * self.stripe_count + np.arange(self.stripe_count)
        ) % self.ost_count
        load = np.bincount(osts[active].ravel(), minlength=self.ost_count)
        per_stripe = np.minimum(
            self.stream_bandwidth, self.ost_bandwidth / np.maximum(load, 1)
        )
        file_bw = per_stripe[osts].sum(axis=1)
        return np.minimum(file_bw, node_share)

    def _single_file_bandwidth(self, concurrent_on_node: int) -> float:
        share = self.node_bandwidth / concurrent_on_node
        striped = self.stripe_count * min(self.stream_bandwidth, self.ost_bandwidth)
        return min(striped, share)


@dataclass
class BurstBufferStorageModel(StorageModel):
    """Two-tier burst-buffer flavor: absorb on node-local SSD, drain to PFS.

    ``stream_bandwidth``/``node_bandwidth`` describe the node-local SSD
    tier (what the application-visible burst sees).  Each node's buffer
    holds ``bb_capacity_bytes``; bytes beyond it cannot be absorbed and
    dribble out at the node's ``drain_bandwidth``, which is added to the
    burst time of that node's ranks.  The asynchronous drain itself is
    modeled by :meth:`drain_seconds` (buffered bytes / drain bandwidth,
    slowest node wins) and :meth:`time_to_pfs`, which overlaps it with
    the absorb phase by ``drain_overlap`` (1 = fully overlapped =>
    ``max(absorb, drain)``; 0 = serialized => ``absorb + drain``).
    """

    drain_bandwidth: float = 2e9
    bb_capacity_bytes: float = 1.6e12
    drain_overlap: float = 1.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.drain_bandwidth <= 0:
            raise ValueError(
                f"drain_bandwidth must be positive, got {self.drain_bandwidth}"
            )
        if self.bb_capacity_bytes <= 0:
            raise ValueError(
                f"bb_capacity_bytes must be positive, got {self.bb_capacity_bytes}"
            )
        if not (0.0 <= self.drain_overlap <= 1.0):
            raise ValueError(
                f"drain_overlap must be in [0, 1], got {self.drain_overlap}"
            )

    def _burst_extra_seconds(
        self, nb: np.ndarray, node_index: np.ndarray, active: np.ndarray,
        n_nodes: int,
    ) -> Optional[np.ndarray]:
        node_bytes = np.bincount(node_index, weights=nb, minlength=n_nodes)
        overflow = np.maximum(node_bytes - self.bb_capacity_bytes, 0.0)
        if not overflow.any():
            return None
        return (overflow / self.drain_bandwidth)[node_index] * active

    def drain_seconds(
        self,
        bytes_per_rank: Sequence[int],
        node_of_rank: Optional[Sequence[int]] = None,
    ) -> float:
        """Seconds to drain the burst's buffered bytes into the PFS.

        Deterministic (drains are background streams, not the noisy
        foreground burst): each node drains ``min(node bytes, capacity)``
        at ``drain_bandwidth``; the slowest node finishes last.
        """
        nb = np.asarray(bytes_per_rank, dtype=np.int64)
        if len(nb) == 0:
            return 0.0
        nodes = (
            np.zeros(len(nb), dtype=np.int64)
            if node_of_rank is None
            else np.asarray(node_of_rank, dtype=np.int64)
        )
        if nodes.shape != nb.shape:
            raise ValueError("node_of_rank must match bytes_per_rank length")
        node_ids, node_index = np.unique(nodes, return_inverse=True)
        node_bytes = np.bincount(node_index, weights=nb, minlength=len(node_ids))
        buffered = np.minimum(node_bytes, self.bb_capacity_bytes)
        return float((buffered / self.drain_bandwidth).max())

    def time_to_pfs(
        self,
        bytes_per_rank: Sequence[int],
        node_of_rank: Optional[Sequence[int]] = None,
    ) -> float:
        """Seconds until the burst's bytes are safe on the PFS.

        The drain overlaps the absorb phase by ``drain_overlap``, so the
        result is always bounded by ``max(absorb, drain) <= t <= absorb
        + drain`` — the overlap bounds the unit tests pin.
        """
        absorb = self.burst_time(bytes_per_rank, node_of_rank)
        drain = self.drain_seconds(bytes_per_rank, node_of_rank)
        remaining = max(0.0, drain - self.drain_overlap * absorb)
        return absorb + remaining
