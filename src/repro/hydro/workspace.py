"""Named, reusable scratch buffers for the Godunov kernel.

Every stage of the hydro chain (``cons_to_prim`` → ``interface_states``
→ Riemann solver → flux divergence) writes its temporaries and results
with ``out=`` ufuncs into buffers it takes from a :class:`Workspace` by
name.  A buffer is one flat array grown to the largest size ever asked
for under its name, and :meth:`Workspace.take` hands out a view of its
leading elements in the requested shape.  So the x and y sweeps, which
ask for the same names at the face shapes ``(nx+3, ny)`` and
``(nx, ny+3)``, share memory, and a caller that keeps one workspace
for a whole run (``CastroSim`` does) allocates nothing after its first
step.

A view from :meth:`take` is valid until the next request for the same
name on the same workspace; the workspace is mutable scratch, not a
store of results.  Called without a workspace, each stage builds a
throwaway one, so every result is a fresh array as before.

Under ``REPRO_SANITIZE=1`` every view is filled with NaN (``True`` for
bool buffers) when it is handed out, so a stage that reads scratch
before writing it produces NaN instead of a stale value that happens to
be right.
"""

from __future__ import annotations

import math
from typing import Dict, Tuple

import numpy as np

from .. import sanitize

__all__ = ["Workspace"]


class Workspace:
    """Flat scratch buffers keyed by name, each grown on demand."""

    def __init__(self) -> None:
        self._buffers: Dict[str, np.ndarray] = {}

    def take(self, name: str, shape: Tuple[int, ...], dtype=np.float64) -> np.ndarray:
        """A writable ``shape`` view of the buffer called ``name``.

        The buffer is reallocated only when it is too small for
        ``shape`` or holds another dtype; views handed out earlier under
        the same name may then point at the old memory.
        """
        size = math.prod(shape)
        buf = self._buffers.get(name)
        if buf is None or buf.size < size or buf.dtype != dtype:
            buf = np.empty(size, dtype=dtype)
            self._buffers[name] = buf
        view = buf[:size].reshape(shape)
        if sanitize.enabled():
            view.fill(True if view.dtype == np.bool_ else np.nan)
        return view

    @property
    def nbytes(self) -> int:
        """Bytes held by all buffers together."""
        return sum(buf.nbytes for buf in self._buffers.values())
