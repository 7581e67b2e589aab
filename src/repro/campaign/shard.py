"""The sharded layout of :class:`~repro.campaign.store.ResultStore`.

ROADMAP item 2 partitions a sweep across N independent executor
*processes* sharing one store.  A store opened on a directory spreads
its entries over ``shard-NNN.jsonl`` files keyed by a stable hash of
the cache key, with a ``_meta.json`` pinning the shard count; the
layout and its reader, writer and compactor live in
:mod:`repro.campaign.store`, shared with the single-file layout.

This module keeps :data:`ShardedResultStore`, the historical name of
that same class, and :func:`migrate_to_sharded` /
:func:`migrate_to_flat`, which convert between the single-file layout
and the sharded one, preserving entries from other code versions.
"""

from __future__ import annotations

import os
from typing import Optional

from .store import DEFAULT_NSHARDS, ResultStore, _write_lines

__all__ = ["ShardedResultStore", "migrate_to_flat", "migrate_to_sharded"]

#: The one store class; a directory path opens the sharded layout.
ShardedResultStore = ResultStore


def migrate_to_sharded(flat_path: str, root: str,
                       nshards: int = DEFAULT_NSHARDS,
                       code_version: Optional[str] = None) -> ResultStore:
    """Convert a single-file JSONL store into a shard directory; returns
    the opened store.

    Every intact entry — including those from other code versions — is
    written to its shard, the latest line per key winning as on load.
    Refuses to migrate into a root that already holds entries.
    """
    src = ResultStore(flat_path, code_version=code_version)
    os.makedirs(root, exist_ok=True)  # a directory opens as shards
    dst = ResultStore(root, nshards=nshards, code_version=code_version)
    if len(dst) or dst._foreign:
        raise ValueError(
            f"migrate_to_sharded: target root {root!r} already holds entries")
    dst._entries.update(src._entries)
    dst._foreign.update(src._foreign)
    dst._rewrite()
    return dst


def migrate_to_flat(root: str, flat_path: str,
                    code_version: Optional[str] = None) -> ResultStore:
    """Collapse a shard directory back into one JSONL file; returns the
    opened store.

    Foreign-version entries are carried over.  Written tmp-first and
    ``os.replace``d, so an existing file at ``flat_path`` is swapped
    atomically.
    """
    src = ResultStore(root, code_version=code_version)
    os.makedirs(os.path.dirname(os.path.abspath(flat_path)), exist_ok=True)
    _write_lines(flat_path, src._snapshot())
    return ResultStore(flat_path, code_version=code_version)
