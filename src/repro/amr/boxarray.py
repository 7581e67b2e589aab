"""Collections of boxes (AMReX ``BoxArray`` analogue).

A :class:`BoxArray` is an ordered list of disjoint boxes that together
describe the region covered by one AMR level.  It knows how to answer
coverage queries, intersect against other box arrays, and compute basic
statistics that feed the I/O accounting (cells per box, cells total).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .box import Box

__all__ = ["BoxArray"]


class BoxArray:
    """An ordered collection of disjoint 2-D boxes.

    Parameters
    ----------
    boxes:
        The member boxes.  Disjointness is the caller's responsibility
        for performance; :meth:`validate_disjoint` checks it explicitly.
    """

    def __init__(self, boxes: Iterable[Box] = ()) -> None:
        self._boxes: List[Box] = list(boxes)
        # Data derived from the boxes lives as long as the array, like
        # the ``corners()`` cache (BoxArrays are immutable after
        # construction).  Each consumer keys its own entries: the
        # plotfile writer's level plans ``(ranks, nvars)`` and their
        # sanitizer checksums, and the Header's per-box block ``(geom,)``.
        self.memo: Dict[tuple, object] = {}
        self._corners: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._numpts: Optional[int] = None

    # ------------------------------------------------------------------
    # container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._boxes)

    def __iter__(self) -> Iterator[Box]:
        return iter(self._boxes)

    def __getitem__(self, i: int) -> Box:
        return self._boxes[i]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BoxArray):
            return NotImplemented
        return self._boxes == other._boxes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BoxArray(n={len(self)}, cells={self.numpts})"

    @property
    def boxes(self) -> Sequence[Box]:
        return tuple(self._boxes)

    def same_boxes(self, other: "BoxArray") -> bool:
        """Content equality with an identity fast path.

        Used by the regrid amortization: comparing identity first makes
        the common "layout unchanged, same object threaded through"
        case O(1) instead of an O(n) box-list compare.
        """
        return self is other or self._boxes == other._boxes

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    @property
    def numpts(self) -> int:
        """Total cell count across all boxes."""
        if self._numpts is None:
            self._numpts = int(self.box_sizes().sum())
        return self._numpts

    def corners(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(los, his)``: cached ``(n, 2)`` int64 corner arrays.

        Built once per instance (BoxArrays are immutable) — the
        substrate for vectorized per-box accounting such as
        :func:`repro.plotfile.fab.fab_nbytes_array`.  Callers must not
        mutate the returned arrays.
        """
        if self._corners is None:
            n = len(self._boxes)
            los = np.empty((n, 2), dtype=np.int64)
            his = np.empty((n, 2), dtype=np.int64)
            for k, b in enumerate(self._boxes):
                los[k] = b.lo
                his[k] = b.hi
            los.setflags(write=False)
            his.setflags(write=False)
            self._corners = (los, his)
        return self._corners

    def box_sizes(self) -> np.ndarray:
        """Array of per-box cell counts (int64)."""
        los, his = self.corners()
        return (his - los + 1).prod(axis=1)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def contains_point(self, pt: Tuple[int, int]) -> bool:
        return any(b.contains_point(pt) for b in self._boxes)

    def intersects(self, box: Box) -> bool:
        return any(b.intersects(box) for b in self._boxes)

    def intersections(self, box: Box) -> List[Tuple[int, Box]]:
        """All ``(index, overlap)`` pairs of member boxes meeting ``box``."""
        out: List[Tuple[int, Box]] = []
        for idx, b in enumerate(self._boxes):
            inter = b.intersection(box)
            if inter is not None:
                out.append((idx, inter))
        return out

    def covered_cells(self, box: Box) -> int:
        """Number of cells of ``box`` covered by this array.

        Member boxes are assumed disjoint, so overlaps add exactly once.
        """
        return sum(inter.numpts for _, inter in self.intersections(box))

    # ------------------------------------------------------------------
    # transformations
    # ------------------------------------------------------------------
    def coarsen(self, ratio: int) -> "BoxArray":
        return BoxArray(b.coarsen(ratio) for b in self._boxes)

    def refine(self, ratio: int) -> "BoxArray":
        return BoxArray(b.refine(ratio) for b in self._boxes)

    def grow(self, n: int) -> "BoxArray":
        return BoxArray(b.grow(n) for b in self._boxes)

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate_disjoint(self) -> None:
        """Raise ``ValueError`` if any two member boxes overlap."""
        # O(n^2) but only used in tests / debug paths.
        for i in range(len(self._boxes)):
            for j in range(i + 1, len(self._boxes)):
                if self._boxes[i].intersects(self._boxes[j]):
                    raise ValueError(
                        f"boxes {i} and {j} overlap: "
                        f"{self._boxes[i]} & {self._boxes[j]}"
                    )

    def validate_inside(self, domain: Box) -> None:
        """Raise ``ValueError`` if any member box leaves ``domain``."""
        for i, b in enumerate(self._boxes):
            if not domain.contains(b):
                raise ValueError(f"box {i} = {b} not inside domain {domain}")
