"""Crash-safe warm-cache snapshots for the prediction service.

A long-lived service earns its throughput from warm LRU caches; a
restart used to throw that state away.  This module persists the hot
state periodically and restores it on startup:

* **What is saved** — the prediction LRU as pickled
  ``(PredictRequest, SizePrediction)`` pairs in LRU→MRU order (not the
  encoded wire text an entry may hold: a restored service rebuilds it
  on the entry's next hit), the plan
  LRU as bare ``(machine, nprocs)`` keys (plans are rebuilt
  deterministically on restore — cheaper and safer than pickling
  platform objects), and a ``served`` cursor: how many stream requests
  the responses on disk already cover.  The cursor is what makes a
  kill-mid-stream restart **bit-identical** to an uninterrupted run:
  resuming truncates the response file to the cursor and replays from
  exactly the state the snapshot froze.
* **How it is written** — tmp + fsync + ``os.replace`` (the store's
  compaction idiom), with a JSON header carrying a sha256 checksum of
  the pickled payload.  A torn or corrupt snapshot — including one torn
  by the ``REPRO_FAULTS_SNAPSHOT_TORN`` injection site — fails the
  checksum on restore and falls back to a **cold start with a named
  warning** (:class:`SnapshotCorruptionWarning`), never a crash and
  never a silently wrong cache.

Snapshots are trusted local state (they are pickle-encoded): point the
service only at snapshot paths it wrote itself.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..faults import active as _faults_active

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from .engine import PredictionService

__all__ = [
    "SnapshotCorruptionWarning",
    "SnapshotInfo",
    "SnapshotManager",
    "load_snapshot",
    "save_snapshot",
]

SNAPSHOT_FORMAT = 1


class SnapshotCorruptionWarning(UserWarning):
    """A warm-cache snapshot was unusable (torn, corrupt, or written by
    another code version) and the service fell back to a cold start.

    Named, never silent: a cold start after a crash is safe but slow,
    and an operator should know the snapshot did not land.
    """


@dataclass(frozen=True)
class SnapshotInfo:
    """What a restore recovered: cache entries and the stream cursor."""

    restored: int = 0  # prediction-cache entries restored
    served: int = 0  # stream requests the snapshot's responses cover


def _code_version() -> str:
    from .. import __version__

    return __version__


def save_snapshot(service: "PredictionService", path: str,
                  served: int = 0) -> str:
    """Atomically persist the service's warm caches to ``path``.

    One JSON header line (format, payload checksum, byte count) followed
    by the pickled payload, written tmp + fsync + ``os.replace`` so a
    crash mid-save leaves the previous snapshot intact.  ``served`` is
    the stream cursor stored alongside (see the module docstring).
    Returns ``path``.
    """
    if served < 0:
        raise ValueError(f"save_snapshot served must be >= 0, got {served}")
    payload = pickle.dumps(
        {
            "code_version": _code_version(),
            "served": int(served),
            "predictions": [(req, entry.prediction)
                            for req, entry in service._predictions.items()],
            "plans": list(service._plans),
        },
        protocol=4,
    )
    header = json.dumps(
        {
            "format": SNAPSHOT_FORMAT,
            "checksum": hashlib.sha256(payload).hexdigest(),
            "n_bytes": len(payload),
        },
        separators=(",", ":"),
    ).encode("utf-8") + b"\n"
    data = header + payload
    injector = _faults_active()
    if injector is not None and injector.snapshot_torn(os.path.basename(path)):
        # injected tear: the landed snapshot loses its tail, as if the
        # disk dropped the final blocks — restore must detect it via the
        # checksum and cold-start with a named warning
        data = data[: max(len(header), (2 * len(data)) // 3)]
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    return path


def load_snapshot(service: "PredictionService", path: str) -> SnapshotInfo:
    """Restore warm caches from ``path``; cold start on any defect.

    A missing file is a normal first boot (no warning, nothing
    restored).  Anything else that prevents a full restore — torn
    payload, checksum mismatch, unpicklable bytes, another code
    version — raises no exception: the service's caches are cleared
    back to cold and a :class:`SnapshotCorruptionWarning` names the
    reason.  Restored predictions re-enter the LRU in their saved
    order, so eviction behavior replays identically.
    """
    if not os.path.exists(path):
        return SnapshotInfo()
    try:
        with open(path, "rb") as fh:
            header_line = fh.readline()
            payload = fh.read()
        header = json.loads(header_line.decode("utf-8"))
        if header.get("format") != SNAPSHOT_FORMAT:
            raise ValueError(f"unknown snapshot format {header.get('format')!r}")
        if len(payload) != header.get("n_bytes"):
            raise ValueError(
                f"payload is {len(payload)} bytes, header says "
                f"{header.get('n_bytes')} (torn write)")
        digest = hashlib.sha256(payload).hexdigest()
        if digest != header.get("checksum"):
            raise ValueError("payload checksum mismatch (corrupt snapshot)")
        data = pickle.loads(payload)
        version = data.get("code_version")
        if version != _code_version():
            raise ValueError(
                f"snapshot was written by code version {version!r}, "
                f"this is {_code_version()!r}")
        for machine, nprocs in data["plans"]:
            service._plan(machine, nprocs)  # rebuilt, not unpickled
        for req, prediction in data["predictions"]:
            service._remember(req, prediction)  # wire text rebuilt on a hit
        return SnapshotInfo(restored=len(data["predictions"]),
                            served=int(data["served"]))
    except Exception as exc:
        service.invalidate()  # drop any partial restore: cold means cold
        warnings.warn(
            SnapshotCorruptionWarning(
                f"{path}: warm-cache snapshot unusable "
                f"({type(exc).__name__}: {exc}); falling back to a cold "
                f"start"),
            stacklevel=2,
        )
        return SnapshotInfo()


class SnapshotManager:
    """Periodic snapshot schedule for a serving loop.

    ``maybe_save(served)`` is called once per served batch and persists
    every ``every``-th call — the knob trading restart warmth against
    snapshot I/O.  :meth:`load` restores at startup and remembers the
    recovered stream cursor (``manager.served``) for resume.
    """

    def __init__(self, service: "PredictionService", path: str,
                 every: int = 1) -> None:
        if every < 1:
            raise ValueError(f"SnapshotManager every must be >= 1, got {every}")
        self.service = service
        self.path = path
        self.every = every
        self.restored = 0
        self.served = 0
        self.n_saves = 0
        self._calls = 0

    def load(self) -> SnapshotInfo:
        """Restore the snapshot (if any); see :func:`load_snapshot`."""
        info = load_snapshot(self.service, self.path)
        self.restored = info.restored
        self.served = info.served
        return info

    def save(self, served: int) -> str:
        """Persist now, unconditionally; updates the saved cursor."""
        path = save_snapshot(self.service, self.path, served=served)
        self.served = served
        self.n_saves += 1
        return path

    def maybe_save(self, served: int) -> bool:
        """Persist if this call lands on the ``every`` cadence."""
        self._calls += 1
        if self._calls % self.every:
            return False
        self.save(served)
        return True
