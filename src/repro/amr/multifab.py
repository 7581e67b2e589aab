"""Level data container (AMReX ``MultiFab`` analogue).

A :class:`MultiFab` stores one numpy array ("FAB") per box of a
:class:`~repro.amr.boxarray.BoxArray`, each with a fixed number of
components and ghost cells.  Ownership follows a
:class:`~repro.amr.distribution.DistributionMapping`, so per-rank byte
accounting (the quantity the paper measures) falls out of the container.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional

import numpy as np

from .box import Box
from .boxarray import BoxArray
from .distribution import DistributionMapping

__all__ = ["Fab", "MultiFab"]


class Fab:
    """A single box's data: array of shape ``(ncomp, nx+2g, ny+2g)``."""

    def __init__(self, box: Box, ncomp: int, nghost: int = 0, dtype=np.float64) -> None:
        self.box = box
        self.ncomp = int(ncomp)
        self.nghost = int(nghost)
        nx, ny = box.shape
        self.data = np.zeros((self.ncomp, nx + 2 * self.nghost, ny + 2 * self.nghost), dtype=dtype)

    @property
    def grown_box(self) -> Box:
        """The box including ghost cells."""
        return self.box.grow(self.nghost)

    def interior(self, comp: Optional[int] = None) -> np.ndarray:
        """View of valid (non-ghost) cells; one comp or all."""
        g = self.nghost
        nx, ny = self.box.shape
        sl = (slice(g, g + nx), slice(g, g + ny))
        if comp is None:
            return self.data[(slice(None),) + sl]
        return self.data[(comp,) + sl]

    def view(self, region: Box, comp: int) -> np.ndarray:
        """View of ``region`` (index space, may touch ghosts) for ``comp``."""
        gb = self.grown_box
        if not gb.contains(region):
            raise ValueError(f"region {region} not inside grown box {gb}")
        sl = region.slices(gb.lo)
        return self.data[comp][sl]

    def nbytes_valid(self) -> int:
        """Bytes of valid-region data (what gets written to plotfiles)."""
        return self.box.numpts * self.ncomp * self.data.dtype.itemsize


class MultiFab:
    """Distributed collection of Fabs over a BoxArray.

    In this single-process simulation every rank's data lives in one
    address space; the distribution mapping still records logical
    ownership so that I/O accounting is per-rank faithful.
    """

    def __init__(
        self,
        ba: BoxArray,
        dm: DistributionMapping,
        ncomp: int,
        nghost: int = 0,
        dtype=np.float64,
    ) -> None:
        if len(ba) != len(dm):
            raise ValueError(
                f"BoxArray has {len(ba)} boxes but mapping has {len(dm)} entries"
            )
        self.boxarray = ba
        self.distribution = dm
        self.ncomp = int(ncomp)
        self.nghost = int(nghost)
        self.fabs: List[Fab] = [Fab(b, ncomp, nghost, dtype) for b in ba]

    def __len__(self) -> int:
        return len(self.fabs)

    def __iter__(self) -> Iterator[Fab]:
        return iter(self.fabs)

    def __getitem__(self, k: int) -> Fab:
        return self.fabs[k]

    # ------------------------------------------------------------------
    # setters / math
    # ------------------------------------------------------------------
    def set_val(self, value: float, comp: Optional[int] = None) -> None:
        # lint: allow-loop(init-path setter, not per-step; fabs are ragged)
        for fab in self.fabs:
            if comp is None:
                fab.data[...] = value
            else:
                fab.data[comp, ...] = value

    def fill_from_function(
        self, fn: Callable[[np.ndarray, np.ndarray], np.ndarray], comp: int, geom
    ) -> None:
        """Set component ``comp`` from ``fn(X, Y)`` at valid cell centers."""
        # lint: allow-loop(initial-condition fill, once per run; ragged shapes)
        for fab in self.fabs:
            X, Y = geom.cell_centers(fab.box)
            fab.interior(comp)[...] = fn(X, Y)

    def min(self, comp: int) -> float:
        if not self.fabs:
            raise ValueError("empty MultiFab")
        return min(float(fab.interior(comp).min()) for fab in self.fabs)

    def max(self, comp: int) -> float:
        if not self.fabs:
            raise ValueError("empty MultiFab")
        return max(float(fab.interior(comp).max()) for fab in self.fabs)

    def sum(self, comp: int) -> float:
        return sum(float(fab.interior(comp).sum()) for fab in self.fabs)

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def bytes_per_rank(self) -> np.ndarray:
        """Valid-region bytes owned by each rank (one vectorized pass)."""
        out = np.zeros(self.distribution.nprocs, dtype=np.int64)
        if not self.fabs:
            return out
        itemsize = self.fabs[0].data.dtype.itemsize
        nbytes = self.boxarray.box_sizes() * (self.ncomp * itemsize)
        np.add.at(out, np.asarray(self.distribution.ranks, dtype=np.intp), nbytes)
        return out

    def total_bytes(self) -> int:
        return int(sum(fab.nbytes_valid() for fab in self.fabs))
