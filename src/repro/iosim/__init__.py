"""I/O substrate: filesystem backends, storage-model hierarchy, traces.

Machine constants live in :mod:`repro.platform`.
"""

from .burst import BurstEvent, BurstSchedule
from .darshan import IORecord, IOTrace, TraceColumns
from .filesystem import FileSystem, RealFileSystem, VirtualFileSystem, format_tree
from .readmodel import RestartCost, optimal_check_interval, restart_read_time
from .storage import (
    BurstBufferStorageModel,
    LustreStorageModel,
    StorageModel,
    WriteCost,
)

__all__ = [
    "BurstEvent",
    "BurstSchedule",
    "IORecord",
    "IOTrace",
    "TraceColumns",
    "FileSystem",
    "RealFileSystem",
    "VirtualFileSystem",
    "format_tree",
    "StorageModel",
    "LustreStorageModel",
    "BurstBufferStorageModel",
    "WriteCost",
    "RestartCost",
    "optimal_check_interval",
    "restart_read_time",
]
