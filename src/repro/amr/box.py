"""Index-space rectangles (AMReX ``Box`` analogue).

A :class:`Box` is a half-open axis-aligned rectangle in cell-index space,
``[lo, hi]`` inclusive on both ends, matching AMReX's cell-centered box
convention.  Boxes are the atoms of block-structured AMR: every grid at
every level is a box, and the clustering / chopping / distribution
machinery operates on boxes only.

All coordinates are small Python ints; box algebra is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

__all__ = ["Box", "coarsen_index", "refine_index"]


def coarsen_index(i: int, ratio: int) -> int:
    """Coarsen a cell index by ``ratio`` (floor division, AMReX semantics).

    Works for negative indices too: ``coarsen_index(-1, 2) == -1``.
    """
    if ratio < 1:
        raise ValueError(f"refinement ratio must be >= 1, got {ratio}")
    return i // ratio


def refine_index(i: int, ratio: int) -> int:
    """Refine a cell index by ``ratio`` (lo-side convention)."""
    if ratio < 1:
        raise ValueError(f"refinement ratio must be >= 1, got {ratio}")
    return i * ratio


@dataclass(frozen=True, order=True)
class Box:
    """A 2-D cell-centered index box, inclusive bounds ``[lo, hi]``.

    Parameters
    ----------
    lo:
        Lower corner ``(i, j)`` in cell indices.
    hi:
        Upper corner ``(i, j)``, inclusive.  ``hi >= lo`` componentwise.
    """

    lo: Tuple[int, int]
    hi: Tuple[int, int]

    def __post_init__(self) -> None:
        if len(self.lo) != 2 or len(self.hi) != 2:
            raise ValueError("Box is 2-D: lo and hi must have length 2")
        if self.hi[0] < self.lo[0] or self.hi[1] < self.lo[1]:
            raise ValueError(f"invalid Box: hi {self.hi} < lo {self.lo}")
        # Normalize to plain int tuples so hashing/eq are stable even if
        # numpy integers are passed in.
        object.__setattr__(self, "lo", (int(self.lo[0]), int(self.lo[1])))
        object.__setattr__(self, "hi", (int(self.hi[0]), int(self.hi[1])))

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @staticmethod
    def from_size(lo: Tuple[int, int], size: Tuple[int, int]) -> "Box":
        """Box with lower corner ``lo`` and ``size`` cells per dimension."""
        if size[0] < 1 or size[1] < 1:
            raise ValueError(f"size must be positive, got {size}")
        return Box(lo, (lo[0] + size[0] - 1, lo[1] + size[1] - 1))

    @staticmethod
    def cell_centered(nx: int, ny: int) -> "Box":
        """The domain box ``[0, nx) x [0, ny)``."""
        return Box((0, 0), (nx - 1, ny - 1))

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, int]:
        """Number of cells per dimension."""
        return (self.hi[0] - self.lo[0] + 1, self.hi[1] - self.lo[1] + 1)

    @property
    def numpts(self) -> int:
        """Total number of cells."""
        nx, ny = self.shape
        return nx * ny

    @property
    def longside(self) -> int:
        return max(self.shape)

    def contains_point(self, pt: Tuple[int, int]) -> bool:
        return (
            self.lo[0] <= pt[0] <= self.hi[0]
            and self.lo[1] <= pt[1] <= self.hi[1]
        )

    def contains(self, other: "Box") -> bool:
        """True if ``other`` is entirely inside this box."""
        return (
            self.lo[0] <= other.lo[0]
            and self.lo[1] <= other.lo[1]
            and self.hi[0] >= other.hi[0]
            and self.hi[1] >= other.hi[1]
        )

    def intersects(self, other: "Box") -> bool:
        return not (
            other.lo[0] > self.hi[0]
            or other.hi[0] < self.lo[0]
            or other.lo[1] > self.hi[1]
            or other.hi[1] < self.lo[1]
        )

    def intersection(self, other: "Box") -> Optional["Box"]:
        """The overlap box, or ``None`` when disjoint."""
        if not self.intersects(other):
            return None
        return Box(
            (max(self.lo[0], other.lo[0]), max(self.lo[1], other.lo[1])),
            (min(self.hi[0], other.hi[0]), min(self.hi[1], other.hi[1])),
        )

    def __and__(self, other: "Box") -> Optional["Box"]:
        return self.intersection(other)

    # ------------------------------------------------------------------
    # transformations
    # ------------------------------------------------------------------
    def shift(self, di: int, dj: int) -> "Box":
        return Box((self.lo[0] + di, self.lo[1] + dj), (self.hi[0] + di, self.hi[1] + dj))

    def grow(self, n: int) -> "Box":
        """Grow (or shrink, for negative ``n``) by ``n`` cells on all sides."""
        return Box(
            (self.lo[0] - n, self.lo[1] - n),
            (self.hi[0] + n, self.hi[1] + n),
        )

    def coarsen(self, ratio: int) -> "Box":
        """The coarse-level image of this box (AMReX ``coarsen``)."""
        return Box(
            (coarsen_index(self.lo[0], ratio), coarsen_index(self.lo[1], ratio)),
            (coarsen_index(self.hi[0], ratio), coarsen_index(self.hi[1], ratio)),
        )

    def refine(self, ratio: int) -> "Box":
        """The fine-level image: each coarse cell becomes ``ratio**2`` cells."""
        return Box(
            (refine_index(self.lo[0], ratio), refine_index(self.lo[1], ratio)),
            (
                refine_index(self.hi[0], ratio) + ratio - 1,
                refine_index(self.hi[1], ratio) + ratio - 1,
            ),
        )

    def is_coarsenable(self, ratio: int) -> bool:
        """True if refine(coarsen(b)) == b, i.e. the box aligns to ``ratio``."""
        return self.coarsen(ratio).refine(ratio) == self

    # ------------------------------------------------------------------
    # decomposition
    # ------------------------------------------------------------------
    def chop(self, axis: int, at: int) -> Tuple["Box", "Box"]:
        """Split into two boxes at cell index ``at`` along ``axis``.

        The first returned box ends at ``at - 1``, the second starts at
        ``at``.  ``at`` must lie strictly inside the box extent.
        """
        if axis not in (0, 1):
            raise ValueError(f"axis must be 0 or 1, got {axis}")
        if not (self.lo[axis] < at <= self.hi[axis]):
            raise ValueError(
                f"chop point {at} outside open interval "
                f"({self.lo[axis]}, {self.hi[axis]}] of axis {axis}"
            )
        if axis == 0:
            left = Box(self.lo, (at - 1, self.hi[1]))
            right = Box((at, self.lo[1]), self.hi)
        else:
            left = Box(self.lo, (self.hi[0], at - 1))
            right = Box((self.lo[0], at), self.hi)
        return left, right

    def difference(self, other: "Box") -> List["Box"]:
        """``self \\ other`` as a disjoint list of boxes (possibly empty)."""
        inter = self.intersection(other)
        if inter is None:
            return [self]
        if inter == self:
            return []
        pieces: List[Box] = []
        remaining = self
        # Peel slabs on each side of the intersection, axis by axis.
        for axis in (0, 1):
            if remaining.lo[axis] < inter.lo[axis]:
                low, remaining = remaining.chop(axis, inter.lo[axis])
                pieces.append(low)
            if remaining.hi[axis] > inter.hi[axis]:
                remaining, high = remaining.chop(axis, inter.hi[axis] + 1)
                pieces.append(high)
        assert remaining == inter
        return pieces

    # ------------------------------------------------------------------
    # iteration
    # ------------------------------------------------------------------
    def cells(self) -> Iterator[Tuple[int, int]]:
        """Iterate all cell indices (row-major: j fastest)."""
        for i in range(self.lo[0], self.hi[0] + 1):
            for j in range(self.lo[1], self.hi[1] + 1):
                yield (i, j)

    def slices(self, origin: Tuple[int, int] = (0, 0)) -> Tuple[slice, slice]:
        """Numpy slices into an array whose [0,0] element is cell ``origin``."""
        return (
            slice(self.lo[0] - origin[0], self.hi[0] - origin[0] + 1),
            slice(self.lo[1] - origin[1], self.hi[1] - origin[1] + 1),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Box({self.lo}, {self.hi})"


def bounding_box(boxes: Iterable[Box]) -> Box:
    """Smallest box containing every box in ``boxes`` (non-empty input)."""
    boxes = list(boxes)
    if not boxes:
        raise ValueError("bounding_box of empty sequence")
    lo0 = min(b.lo[0] for b in boxes)
    lo1 = min(b.lo[1] for b in boxes)
    hi0 = max(b.hi[0] for b in boxes)
    hi1 = max(b.hi[1] for b in boxes)
    return Box((lo0, lo1), (hi0, hi1))


__all__.append("bounding_box")
