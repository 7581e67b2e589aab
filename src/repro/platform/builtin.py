"""The built-in machine registry entries.

Four machines spanning the filesystem flavors the storage hierarchy
models.  ``summit`` reproduces the repo's historical constants exactly
(pinned bit-for-bit by ``tests/test_platform.py``); the others are
representative published figures scaled to the per-node view the timing
models consume, not benchmarked ground truth.
"""

from __future__ import annotations

from .machine import FilesystemSpec, Platform, register_platform

__all__ = ["SUMMIT_PLATFORM", "FRONTIER_PLATFORM", "BURST_BUFFER_PLATFORM",
           "WORKSTATION_PLATFORM"]

# OLCF Summit + Alpine (GPFS): the paper's machine.  2.5 TB/s aggregate
# over 4608 nodes; ranks on a node share ~12.5 GB/s injection, single
# streams see ~1.5 GB/s.  default_ranks_per_node=2 mirrors the paper's
# Table-III pairings (32 tasks on 2 nodes, 1024 on 512).
SUMMIT_PLATFORM = register_platform(Platform(
    name="summit",
    description="OLCF Summit + Alpine (GPFS, shared injection)",
    total_nodes=4608,
    cores_per_node=42,
    gpus_per_node=6,
    node_memory_gb=512,
    default_ranks_per_node=2,
    filesystem=FilesystemSpec(
        flavor="gpfs",
        stream_bandwidth=1.5e9,
        node_bandwidth=12.5e9,
        metadata_latency=2.0e-3,
        aggregate_bandwidth=2.5e12,
    ),
))

# OLCF Frontier + Orion (Lustre): 9408 nodes on Slingshot (~25 GB/s
# injection), writes striped over a large OST pool with per-OST
# contention.  stripe_count=4 is a typical progressive-file-layout
# setting for plotfile-sized writes.
FRONTIER_PLATFORM = register_platform(Platform(
    name="frontier",
    description="OLCF Frontier + Orion (Lustre, striped OSTs)",
    total_nodes=9408,
    cores_per_node=64,
    gpus_per_node=8,
    node_memory_gb=512,
    default_ranks_per_node=8,
    filesystem=FilesystemSpec(
        flavor="lustre",
        stream_bandwidth=2.0e9,
        node_bandwidth=25.0e9,
        metadata_latency=1.5e-3,
        aggregate_bandwidth=1.0e13,
        ost_count=450,
        stripe_count=4,
        ost_bandwidth=1.0e10,
    ),
))

# A generic burst-buffer machine (Summit-class node count, node-local
# NVMe absorbing bursts, async drain into the PFS) — the two-tier
# pattern of Cori/Trinity-style systems.  stream/node bandwidth describe
# the SSD tier; each node's 1.6 TB buffer drains at 2 GB/s.
BURST_BUFFER_PLATFORM = register_platform(Platform(
    name="burst-buffer",
    description="Generic burst-buffer machine (node-local SSD, async drain)",
    total_nodes=1024,
    cores_per_node=48,
    gpus_per_node=4,
    node_memory_gb=256,
    default_ranks_per_node=4,
    filesystem=FilesystemSpec(
        flavor="burst-buffer",
        stream_bandwidth=2.5e9,
        node_bandwidth=6.0e9,
        metadata_latency=5.0e-4,
        aggregate_bandwidth=2.0e9 * 1024,
        drain_bandwidth=2.0e9,
        bb_capacity_bytes=1.6e12,
        drain_overlap=1.0,
    ),
))

# A single-node NVMe workstation: every rank shares one ~3 GB/s device
# (the shared-injection law with node == machine), metadata nearly free.
WORKSTATION_PLATFORM = register_platform(Platform(
    name="workstation",
    description="Single-node workstation (local NVMe)",
    total_nodes=1,
    cores_per_node=16,
    gpus_per_node=1,
    node_memory_gb=64,
    default_ranks_per_node=16,
    filesystem=FilesystemSpec(
        flavor="nvme",
        stream_bandwidth=3.0e9,
        node_bandwidth=3.0e9,
        metadata_latency=1.0e-4,
        aggregate_bandwidth=3.0e9,
    ),
))
