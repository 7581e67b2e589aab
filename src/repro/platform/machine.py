"""The Platform abstraction: what machine is this campaign running on?

The paper's closing pitch is that a calibrated proxy becomes "a powerful
predictive tool for autotuning" — which only pays off if the model can
answer *cross-machine* questions.  A :class:`Platform` bundles the
static machine description (nodes, cores, memory, injection bandwidth)
with a :class:`FilesystemSpec` describing the storage flavor, and a
string-keyed registry lets every layer above (campaign cases, the
predictor, the CLI's ``--machine`` flag, analysis comparisons) treat the
machine as one more sweep axis.

The registry ships four machines (see :mod:`repro.platform.builtin`);
:func:`register_platform` adds site-specific ones::

    from repro.platform import FilesystemSpec, Platform, register_platform

    register_platform(Platform(
        name="mycluster",
        description="Our 128-node Lustre cluster",
        total_nodes=128, cores_per_node=64, gpus_per_node=0,
        node_memory_gb=256, default_ranks_per_node=8,
        filesystem=FilesystemSpec(
            flavor="lustre", stream_bandwidth=2e9, node_bandwidth=12e9,
            metadata_latency=1e-3, aggregate_bandwidth=2e11,
            ost_count=64, stripe_count=2, ost_bandwidth=6e9,
        ),
    ))
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Union

from ..iosim.storage import (
    BurstBufferStorageModel,
    LustreStorageModel,
    StorageModel,
)
from ..parallel.topology import JobTopology

__all__ = [
    "FilesystemSpec",
    "Platform",
    "PLATFORM_REGISTRY",
    "DEFAULT_MACHINE",
    "UnknownMachineError",
    "register_platform",
    "get_platform",
    "available_platforms",
]


class UnknownMachineError(KeyError, ValueError):
    """An unregistered machine name.

    Subclasses both ``KeyError`` (a registry lookup miss) and
    ``ValueError`` (an invalid parameter), so either handler convention
    catches it, and renders its message plain instead of KeyError's
    repr-quoted form.
    """

    def __str__(self) -> str:
        return self.args[0] if self.args else ""

DEFAULT_MACHINE = "summit"

#: filesystem flavor -> StorageModel flavor (nvme shares the GPFS math:
#: one shared device per node is exactly the shared-injection law).
FLAVORS = ("gpfs", "lustre", "burst-buffer", "nvme")


@dataclass(frozen=True)
class FilesystemSpec:
    """Storage-side description of a platform, by filesystem flavor.

    The first four fields feed every flavor; the ``ost_*``/``stripe_*``
    fields only the ``lustre`` flavor and the ``drain_*``/``bb_*``
    fields only the ``burst-buffer`` flavor (where
    ``stream_bandwidth``/``node_bandwidth`` describe the node-local SSD
    tier).  ``aggregate_bandwidth`` is the published machine-wide figure
    kept for reporting; the timing models work from the per-node view.
    """

    flavor: str
    stream_bandwidth: float
    node_bandwidth: float
    metadata_latency: float
    aggregate_bandwidth: float = 0.0
    # lustre
    ost_count: int = 0
    stripe_count: int = 0
    ost_bandwidth: float = 0.0
    # burst-buffer
    drain_bandwidth: float = 0.0
    bb_capacity_bytes: float = 0.0
    drain_overlap: float = 1.0

    def __post_init__(self) -> None:
        if self.flavor not in FLAVORS:
            raise ValueError(
                f"unknown filesystem flavor {self.flavor!r}; "
                f"choose from: {', '.join(FLAVORS)}"
            )
        # Fail at construction, not at first use: building the model
        # runs the flavor's named parameter validation, so a
        # misconfigured registry entry errors where it is written.
        self.storage_model(variability=0.0)

    def storage_model(
        self, variability: float = 0.15, seed: int = 12345
    ) -> StorageModel:
        """Instantiate the timing model of this flavor.

        Parameter validation (positive bandwidths, non-negative latency
        and variability) happens in the model constructors, with errors
        naming the offending field.
        """
        common = dict(
            stream_bandwidth=self.stream_bandwidth,
            node_bandwidth=self.node_bandwidth,
            metadata_latency=self.metadata_latency,
            variability=variability,
            seed=seed,
        )
        if self.flavor == "lustre":
            return LustreStorageModel(
                ost_count=self.ost_count,
                stripe_count=self.stripe_count,
                ost_bandwidth=self.ost_bandwidth,
                **common,
            )
        if self.flavor == "burst-buffer":
            return BurstBufferStorageModel(
                drain_bandwidth=self.drain_bandwidth,
                bb_capacity_bytes=self.bb_capacity_bytes,
                drain_overlap=self.drain_overlap,
                **common,
            )
        return StorageModel(**common)


@dataclass(frozen=True)
class Platform:
    """Static description of one machine: compute envelope + filesystem."""

    name: str
    description: str
    total_nodes: int
    cores_per_node: int
    gpus_per_node: int
    node_memory_gb: int
    default_ranks_per_node: int
    filesystem: FilesystemSpec

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("platform name cannot be empty")
        for fld in ("total_nodes", "cores_per_node", "node_memory_gb",
                    "default_ranks_per_node"):
            if getattr(self, fld) < 1:
                raise ValueError(f"{fld} must be >= 1, got {getattr(self, fld)}")
        if self.gpus_per_node < 0:
            raise ValueError(f"gpus_per_node cannot be negative, got {self.gpus_per_node}")

    # ------------------------------------------------------------------
    def max_fraction_nodes(self, fraction: float) -> int:
        """Nodes available when using a fraction of the machine.

        Always at least 1: a tiny allocation (e.g. ``1/5000`` of Summit)
        is still one node, not zero.
        """
        if not (0 < fraction <= 1):
            raise ValueError("fraction must be in (0, 1]")
        return max(1, int(self.total_nodes * fraction))

    def storage_model(
        self, variability: float = 0.15, seed: int = 12345
    ) -> StorageModel:
        """The machine's filesystem timing model (flavor-dispatched)."""
        return self.filesystem.storage_model(variability=variability, seed=seed)

    def check_nodes(self, nnodes: int) -> None:
        """Raise if a job's node count exceeds the machine's."""
        if nnodes > self.total_nodes:
            raise ValueError(
                f"{self.name} has {self.total_nodes} nodes, requested {nnodes}"
            )

    def topology(self, nprocs: int, nnodes: int) -> JobTopology:
        """An explicit job shape, validated against the machine size."""
        self.check_nodes(nnodes)
        return JobTopology(nprocs, nnodes)

    def default_topology(self, nprocs: int) -> JobTopology:
        """The one default packing rule: ``default_ranks_per_node`` ranks
        per node in block order, clamped to the machine's node count (a
        workstation keeps every rank on its one node)."""
        nnodes = -(-nprocs // self.default_ranks_per_node)
        return JobTopology(nprocs, min(nnodes, self.total_nodes))


# ----------------------------------------------------------------------
PLATFORM_REGISTRY: Dict[str, Platform] = {}


def register_platform(platform: Platform, overwrite: bool = False) -> Platform:
    """Add a machine to the registry (``overwrite=True`` to replace)."""
    if platform.name in PLATFORM_REGISTRY and not overwrite:
        raise ValueError(
            f"platform {platform.name!r} is already registered "
            f"(pass overwrite=True to replace it)"
        )
    PLATFORM_REGISTRY[platform.name] = platform
    return platform


def get_platform(machine: Union[str, Platform, None] = None) -> Platform:
    """Resolve a machine name to its :class:`Platform`.

    ``None`` resolves to :data:`DEFAULT_MACHINE` (summit — the paper's
    machine and the repo's historical behavior); a :class:`Platform`
    instance passes through, so APIs can accept either.
    """
    if machine is None:
        machine = DEFAULT_MACHINE
    if isinstance(machine, Platform):
        return machine
    try:
        return PLATFORM_REGISTRY[machine]
    except KeyError:
        raise UnknownMachineError(
            f"unknown machine {machine!r}; registered: "
            f"{', '.join(available_platforms())}"
        ) from None


def available_platforms() -> List[str]:
    """Sorted names of every registered machine."""
    return sorted(PLATFORM_REGISTRY)
