"""Top-level plotfile ``Header`` and ``job_info`` metadata files.

The ``Header`` text format follows AMReX's ``HyperCLaw-V1.1`` layout:
variable names, problem geometry, per-level domains and grid boxes, and
the relative path of each level's ``Cell`` dataset.  ``job_info`` is the
free-form provenance block Castro adds at the plotfile root (visible in
Fig. 2).

The per-box physical-bounds block — two lines per grid, the bulk of the
``Header`` at paper scale — depends only on ``(geometry, boxarray)``:
it is rendered once from vectorized corner arrays and kept in the
BoxArray's ``memo`` per geometry, so repeat dumps of an unchanged
hierarchy reuse the rendered text.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..amr.boxarray import BoxArray
from ..amr.geometry import Geometry

__all__ = ["build_header_text", "build_job_info_text", "PLOTFILE_VERSION"]

PLOTFILE_VERSION = "HyperCLaw-V1.1"


def _grid_block(geom: Geometry, ba: BoxArray) -> str:
    """The two ``xlo xhi`` / ``ylo yhi`` lines per box of one level.

    Vectorized over the cached corner arrays; bit-identical to calling
    ``geom.physical_box`` per box (same float expressions, elementwise).
    """
    key = (geom,)
    block = ba.memo.get(key)
    if block is None:
        dx, dy = geom.cell_size
        los, his = ba.corners()
        xlo = (geom.prob_lo[0] + los[:, 0] * dx).tolist()
        ylo = (geom.prob_lo[1] + los[:, 1] * dy).tolist()
        xhi = (geom.prob_lo[0] + (his[:, 0] + 1) * dx).tolist()
        yhi = (geom.prob_lo[1] + (his[:, 1] + 1) * dy).tolist()
        block = "\n".join(
            f"{a} {b}\n{c} {d}" for a, b, c, d in zip(xlo, xhi, ylo, yhi)
        )
        ba.memo[key] = block
    return block


def build_header_text(
    var_names: Sequence[str],
    geoms: Sequence[Geometry],
    boxarrays: Sequence[BoxArray],
    time: float,
    step: int,
    ref_ratio: int,
) -> str:
    """Render the plotfile ``Header`` for a level hierarchy.

    Parameters
    ----------
    var_names:
        Field names in component order.
    geoms / boxarrays:
        One per level, coarsest first.
    time / step:
        Simulation time and step index of this dump.
    ref_ratio:
        Uniform refinement ratio between levels.
    """
    if len(geoms) != len(boxarrays):
        raise ValueError("geoms and boxarrays must have equal length")
    nlev = len(geoms)
    finest = nlev - 1
    g0 = geoms[0]
    lines: List[str] = []
    lines.append(PLOTFILE_VERSION)
    lines.append(str(len(var_names)))
    lines.extend(var_names)
    lines.append("2")  # spacedim
    lines.append(repr(float(time)))
    lines.append(str(finest))
    lines.append(f"{g0.prob_lo[0]} {g0.prob_lo[1]}")
    lines.append(f"{g0.prob_hi[0]} {g0.prob_hi[1]}")
    lines.append(" ".join([str(ref_ratio)] * max(finest, 0)))
    # Per-level index domains.
    lines.append(
        " ".join(
            f"(({g.domain.lo[0]},{g.domain.lo[1]}) "
            f"({g.domain.hi[0]},{g.domain.hi[1]}) (0,0))"
            for g in geoms
        )
    )
    lines.append(" ".join([str(step)] * nlev))
    for g in geoms:
        lines.append(f"{g.dx} {g.dy}")
    lines.append(str(g0.coord_sys))
    lines.append("0")  # boundary width
    for lev, (g, ba) in enumerate(zip(geoms, boxarrays)):
        lines.append(f"{lev} {len(ba)} {float(time)!r}")
        lines.append(str(step))
        if len(ba):
            lines.append(_grid_block(g, ba))
        lines.append(f"Level_{lev}/Cell")
    return "\n".join(lines) + "\n"


def build_job_info_text(
    job_name: str,
    nprocs: int,
    nnodes: int,
    inputs_echo: Sequence[Tuple[str, str]] = (),
) -> str:
    """Render the ``job_info`` provenance file (Castro-style)."""
    lines = [
        "==============================================================================",
        f" {job_name} Job Information",
        "==============================================================================",
        f"number of MPI processes: {nprocs}",
        f"number of nodes: {nnodes}",
        "",
        "==============================================================================",
        " Inputs File Parameters",
        "==============================================================================",
    ]
    for key, val in inputs_echo:
        lines.append(f"{key} = {val}")
    return "\n".join(lines) + "\n"
