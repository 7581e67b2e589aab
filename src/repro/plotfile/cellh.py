"""Per-level ``Cell_H`` metadata files.

``Cell_H`` describes the FABs of one level: the box list and which
``Cell_D_xxxxx`` file holds each FAB at what byte offset.  (AMReX
appends per-FAB component min/max tables when it writes real data; the
accounting writer has no data, so it emits none.)

Two builders render byte-identical text: :func:`build_cellh_text` takes
the seed-style per-box :class:`FabLocation` objects, and
:func:`build_cellh_arrays` consumes the arrays the batched writer
produces (per-box filenames and an offset vector) without materializing
per-box location objects.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..amr.boxarray import BoxArray

__all__ = ["build_cellh_text", "build_cellh_arrays", "FabLocation"]


class FabLocation:
    """Placement of one FAB: which Cell_D file, at which offset."""

    __slots__ = ("filename", "offset")

    def __init__(self, filename: str, offset: int) -> None:
        self.filename = filename
        self.offset = int(offset)


def build_cellh_text(
    ba: BoxArray,
    ncomp: int,
    locations: Sequence[FabLocation],
) -> str:
    """Render a level's ``Cell_H``.

    Parameters
    ----------
    ba:
        The level's box array.
    ncomp:
        Components per FAB.
    locations:
        One :class:`FabLocation` per box (order matches ``ba``).
    """
    if len(locations) != len(ba):
        raise ValueError("need one FabLocation per box")
    lines: List[str] = []
    lines.append("1")  # version
    lines.append("1")  # how (ordering)
    lines.append(str(ncomp))
    lines.append("0")  # nghost on disk
    lines.append(f"({len(ba)} 0")
    for b in ba:
        lines.append(f"(({b.lo[0]},{b.lo[1]}) ({b.hi[0]},{b.hi[1]}) (0,0))")
    lines.append(")")
    lines.append(str(len(ba)))
    for loc in locations:
        lines.append(f"FabOnDisk: {loc.filename} {loc.offset}")
    return "\n".join(lines) + "\n"


def build_cellh_arrays(
    ba: BoxArray,
    ncomp: int,
    filenames: Sequence[str],
    offsets: np.ndarray,
) -> str:
    """Render a level's ``Cell_H`` from the batched writer's arrays.

    ``filenames[k]`` / ``offsets[k]`` place box ``k``.  Output is
    byte-identical to :func:`build_cellh_text` fed the equivalent
    :class:`FabLocation` inputs.
    """
    n = len(ba)
    if len(filenames) != n or len(offsets) != n:
        raise ValueError("need one filename and offset per box")
    los, his = ba.corners()
    lo_l, hi_l = los.tolist(), his.tolist()
    off_l = np.asarray(offsets).tolist()
    lines: List[str] = ["1", "1", str(ncomp), "0", f"({n} 0"]
    lines.extend(
        f"(({lo[0]},{lo[1]}) ({hi[0]},{hi[1]}) (0,0))"
        for lo, hi in zip(lo_l, hi_l)
    )
    lines.append(")")
    lines.append(str(n))
    lines.extend(
        f"FabOnDisk: {fn} {off}" for fn, off in zip(filenames, off_l)
    )
    return "\n".join(lines) + "\n"
