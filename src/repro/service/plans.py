"""Hot platform plans: everything (machine, nprocs) implies, built once.

Per-call :func:`~repro.core.predictor.predict_sizes` rebuilds the storage
model, node map and even-split burst law
(:class:`~repro.iosim.storage.EvenSplitLaw`) every call; a cached
:class:`PlatformPlan` builds them once and evaluates the same law.
"""

from __future__ import annotations

import numpy as np

from ..iosim.storage import EvenSplitLaw
from ..platform import get_platform

__all__ = ["PlatformPlan"]


class PlatformPlan:
    """Cached per-(machine, nprocs) prediction state."""

    def __init__(self, machine: str, nprocs: int) -> None:
        if nprocs < 1:
            raise ValueError("nprocs must be >= 1")
        platform = get_platform(machine)
        # deterministic, like predict_sizes(platform=...): machines
        # compare apples to apples
        self.law = EvenSplitLaw(platform.storage_model(variability=0.0), nprocs,
                                platform.default_topology(nprocs).node_map())
        # The law's node map is read-only: plans are LRU-cached and shared
        # across requests, so an aliasing write must fault, not corrupt.
        self.node_map: np.ndarray = self.law.node_map

    def burst_series(self, step_bytes: np.ndarray) -> np.ndarray:
        """Burst times of a per-dump byte series under the even split."""
        return self.law.burst_seconds(step_bytes)
