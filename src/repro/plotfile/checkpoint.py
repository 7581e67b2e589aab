"""Checkpoint-restart output (``amr.check_file`` / ``amr.check_int``).

The paper: "AMReX also supports the generation of checkpoint-restart
data in a similar manner, but we focused on only the plot files for
this particular study."  We implement the checkpoint path too so the
proxy methodology extends to it: same N-to-N layout, but checkpoints
carry the raw *state* vector (not the derived plot set) plus ghost
metadata, making them smaller per cell yet restart-complete.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..amr.boxarray import BoxArray
from ..amr.distribution import DistributionMapping
from ..amr.geometry import Geometry
from ..iosim.darshan import IOTrace
from ..iosim.filesystem import FileSystem
from .header import build_header_text
from .varlist import STATE_VARS
from .writer import _check_levels, _write_level_data

__all__ = ["CheckpointSpec", "write_checkpoint", "checkpoint_name"]


def checkpoint_name(prefix: str, step: int) -> str:
    """Directory name ``<check_file><step:05d>`` (Listing 2 default
    prefix: ``sedov_2d_cyl_in_cart_chk``)."""
    return f"{prefix}{step:05d}"


@dataclass(frozen=True)
class CheckpointSpec:
    """Checkpoint naming and contents."""

    prefix: str = "sedov_2d_cyl_in_cart_chk"
    nprocs: int = 1
    # Checkpoints store the conserved state vector only.
    nvars: int = len(STATE_VARS)


def write_checkpoint(
    fs: FileSystem,
    spec: CheckpointSpec,
    step: int,
    time: float,
    geoms: Sequence[Geometry],
    boxarrays: Sequence[BoxArray],
    distributions: Sequence[DistributionMapping],
    ref_ratio: int = 2,
    trace: Optional[IOTrace] = None,
) -> str:
    """Write one checkpoint directory (size-accounting mode).

    Layout mirrors the plotfile tree: a ``Header`` holding the restart
    metadata (time-step state included) and per-level ``Level_i/
    Cell_D_xxxxx`` files with the raw state FABs, one per owning task.
    """
    _check_levels(geoms, boxarrays, distributions)
    cdir = checkpoint_name(spec.prefix, step)
    fs.mkdirs(cdir)
    header = build_header_text(
        list(STATE_VARS)[: spec.nvars], geoms, boxarrays, time, step, ref_ratio
    )
    # Restart additions: dt history and level steps (small text block).
    header += f"restart_dt_info {time!r} {step}\n"
    n = fs.write_text(f"{cdir}/Header", header)
    if trace is not None:
        trace.record(step, -1, 0, n, f"{cdir}/Header", kind="metadata")
    # The plotfile writer's per-level data writer: one Cell_D per owning
    # rank, sized by the closed-form per-FAB byte counts (no Cell_H).
    for lev, (ba, dm) in enumerate(zip(boxarrays, distributions)):
        _write_level_data(fs, cdir, step, lev, ba, dm, spec.nvars, trace)
    return cdir
