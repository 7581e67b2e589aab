"""Job topology: how the simulated MPI ranks are packed onto nodes."""

from .topology import JobTopology

__all__ = ["JobTopology"]
