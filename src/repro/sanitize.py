"""Runtime cache/aliasing sanitizer for the plan-cache era.

The static side of the correctness tooling (``tools/lint``) proves
cached buffers are *frozen at the source*; this module is the dynamic
side: with ``REPRO_SANITIZE=1`` in the environment, the plan caches,
the service LRU and the hydro workspace actively defend their
invariants at runtime —

- every ndarray entering a cached payload is made read-only at insert,
  so aliasing writes fault at the write site instead of corrupting a
  future replay;
- plan payloads are checksummed when built and re-verified when
  replayed, so any drift between build and replay raises
  :class:`SanitizeError` at the replay site;
- the LRU asserts its size bound on every insert;
- the serve layer re-encodes every ``cached: true`` predict answer it
  writes from a prediction-LRU entry's kept wire text and checks the two
  agree, so a stale or corrupted entry fails instead of shipping;
- the hydro kernel's ``Workspace.take`` fills every scratch view it
  hands out with NaN (``True`` for bool buffers), so a stage that reads
  scratch before writing it fails the bit-identity oracle instead of
  passing on a stale value that happens to be right;
- the storage model's even-split burst law re-times the first and last
  non-idle dump of every series through ``burst_time`` and checks both;
- every ``CastroSim`` fine step, which advances only the box where the
  mesh is not uniform, rescans the whole ghosted array and checks that
  its scan window's box contains the box that scan finds, and runs the
  dense full-mesh step beside it (second workspace) and checks that the
  CFL values and the whole valid state agree bit for bit.

The freeze helpers (:func:`frozen`, :func:`freeze_payload`) are safe to
call unconditionally — freezing is a flag flip, not a copy — and some
call sites do; only the *checksum* and *assert* layers are gated on
:func:`enabled` because they cost real time on hot paths.

Everything here is stdlib + numpy; importing this module never reads
the environment at import time (``enabled()`` is a live check, so tests
can flip ``REPRO_SANITIZE`` per-case with ``monkeypatch``).
"""

from __future__ import annotations

import os
import zlib
from typing import Any, Optional, Set

import numpy as np

__all__ = [
    "SanitizeError",
    "enabled",
    "frozen",
    "freeze_payload",
    "checksum",
    "check",
]


class SanitizeError(AssertionError):
    """A sanitizer invariant failed (cache drift, aliasing, size bound).

    Subclasses ``AssertionError`` on purpose: a tripped sanitizer means
    the *program* is wrong, not the input, and existing ``except
    Exception`` recovery paths in the campaign layer still record it
    with a full traceback.
    """


def enabled() -> bool:
    """True when ``REPRO_SANITIZE`` is set to anything but ``''``/``0``."""
    return os.environ.get("REPRO_SANITIZE", "") not in ("", "0")


def frozen(arr: np.ndarray) -> np.ndarray:
    """Make ``arr`` read-only in place and return it.

    The ``setflags(write=False)`` idiom from ``BoxArray.corners()`` and
    ``iosim.darshan._readonly`` as a one-word wrapper, so plan
    constructors read ``self.sizes = frozen(np.add.reduceat(...))``.
    """
    arr.setflags(write=False)
    return arr


_FREEZE_MAX_DEPTH = 4


def freeze_payload(obj: Any, _depth: int = 0,
                   _seen: Optional[Set[int]] = None) -> Any:
    """Recursively freeze every ndarray reachable from ``obj``.

    Walks tuples/lists/dicts and plain-object ``__dict__``/``__slots__``
    attributes to a small fixed depth; cycles and repeats are skipped.
    Returns ``obj`` (freezing is in place, nothing is copied).
    """
    if _seen is None:
        _seen = set()
    if id(obj) in _seen or _depth > _FREEZE_MAX_DEPTH:
        return obj
    _seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        obj.setflags(write=False)
        return obj
    if isinstance(obj, (tuple, list)):
        for item in obj:
            freeze_payload(item, _depth + 1, _seen)
        return obj
    if isinstance(obj, dict):
        for value in obj.values():
            freeze_payload(value, _depth + 1, _seen)
        return obj
    state = getattr(obj, "__dict__", None)
    if isinstance(state, dict):
        for value in state.values():
            freeze_payload(value, _depth + 1, _seen)
    for slot in getattr(type(obj), "__slots__", ()):
        try:
            freeze_payload(getattr(obj, slot), _depth + 1, _seen)
        except AttributeError:
            continue
    return obj


def checksum(obj: Any) -> int:
    """Cheap structural fingerprint of a plan payload (crc32).

    ndarrays hash their raw bytes; containers hash element-wise; other
    values hash their ``repr``.  Collisions are astronomically unlikely
    for the "did someone mutate this cached plan" question this answers
    — it is a tripwire, not a cryptographic commitment.
    """
    return _crc(obj, 0)


def _crc(obj: Any, acc: int) -> int:
    if isinstance(obj, np.ndarray):
        acc = zlib.crc32(str(obj.shape).encode(), acc)
        acc = zlib.crc32(obj.dtype.str.encode(), acc)
        return zlib.crc32(np.ascontiguousarray(obj).tobytes(), acc)
    if isinstance(obj, (tuple, list)):
        acc = zlib.crc32(b"(", acc)
        for item in obj:
            acc = _crc(item, acc)
        return zlib.crc32(b")", acc)
    if isinstance(obj, dict):
        acc = zlib.crc32(b"{", acc)
        for key in sorted(obj, key=repr):
            acc = _crc(key, acc)
            acc = _crc(obj[key], acc)
        return zlib.crc32(b"}", acc)
    return zlib.crc32(repr(obj).encode(), acc)


def check(cond: bool, message: str) -> None:
    """Raise :class:`SanitizeError` with ``message`` unless ``cond``.

    Call only under :func:`enabled` — the caller owns the gate so that
    the condition expression itself is never evaluated in normal runs.
    """
    if not cond:
        raise SanitizeError(message)
