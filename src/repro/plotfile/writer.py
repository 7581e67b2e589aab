"""N-to-N multi-level plotfile writer (``WriteMultiLevelPlotfile``).

Reproduces the Fig. 2 output structure: per dump a directory
``<plot_file><step:05d>`` containing ``Header`` and ``job_info`` at the
root and, per level, ``Level_i/Cell_H`` plus one ``Cell_D_xxxxx`` per
MPI task *that owns data at that level* (the paper notes a file is only
produced when a task has data at that level).

FAB payloads are accounted, not materialized: the paper measures bytes
per rank, level and step, so the writer works on a
:class:`~repro.iosim.filesystem.VirtualFileSystem` at billions of
cells.  All per-level accounting (file sizes, FAB offsets, the rendered
``Cell_H``) is produced as a vectorized *level plan* — closed-form
:func:`~repro.plotfile.fab.fab_nbytes_array` byte counts, owner
grouping and prefix sums as single array ops — and kept in the level
BoxArray's ``memo`` per ``(distribution, nvars)``, so repeat dumps of an
unchanged layout replay the plan instead of re-deriving it, and the plan
is freed with its layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..amr.boxarray import BoxArray
from ..amr.distribution import DistributionMapping
from ..amr.geometry import Geometry
from ..iosim.darshan import IOTrace
from ..iosim.filesystem import FileSystem
from .. import sanitize
from ..sanitize import frozen
from .cellh import build_cellh_arrays
from .fab import fab_nbytes_array
from .header import build_header_text, build_job_info_text
from .varlist import plot_variables

__all__ = [
    "PlotfileSpec",
    "write_plotfile",
    "plotfile_name",
]


def plotfile_name(prefix: str, step: int) -> str:
    """Directory name of a dump: ``<prefix><step:05d>`` (AMReX Concatenate)."""
    return f"{prefix}{step:05d}"


@dataclass(frozen=True)
class PlotfileSpec:
    """Everything a dump needs besides the mesh itself."""

    prefix: str = "sedov_2d_cyl_in_cart_plt"
    derive_all: bool = True
    nprocs: int = 1
    nnodes: int = 1
    job_name: str = "Castro"

    @property
    def var_names(self) -> List[str]:
        return plot_variables(self.derive_all)


# ----------------------------------------------------------------------
# Per-level dump plan: everything about one (layout, distribution, nvars)
# combination that does not depend on the dump's step/time.
# ----------------------------------------------------------------------
class _LevelPlan:
    """Vectorized size accounting for one level's N-to-N burst.

    Derived once per ``(distribution ranks, nvars)`` of a BoxArray and
    kept in its ``memo``: the ranks that own data, their ``Cell_D`` file
    names and sizes, and the rendered size-mode ``Cell_H`` text (which
    places each box's FAB in its owner's file at its byte offset).
    """

    __slots__ = ("ranks", "fnames", "sizes", "cellh", "__weakref__")

    def __init__(self, ba: BoxArray, dm: DistributionMapping, nvars: int) -> None:
        n = len(ba)
        ranks_arr = np.fromiter(dm.ranks, dtype=np.int64, count=n)
        los, his = ba.corners()
        nbytes = fab_nbytes_array(los, his, ba.box_sizes(), nvars)
        if n == 0:
            self.ranks = frozen(np.empty(0, dtype=np.int64))
            self.fnames: List[str] = []
            self.sizes = frozen(np.empty(0, dtype=np.int64))
            offsets = np.empty(0, dtype=np.int64)
            fname_of_box: List[str] = []
        else:
            # Stable sort by owner: boxes stay in index order within each
            # rank's file — the same order the per-fab loop produced.
            order = np.argsort(ranks_arr, kind="stable")
            bsort = nbytes[order]
            starts = np.cumsum(bsort) - bsort
            uniq, first = np.unique(ranks_arr[order], return_index=True)
            self.ranks = frozen(uniq)
            self.sizes = frozen(np.add.reduceat(bsort, first))
            counts = np.diff(np.append(first, n))
            rel = starts - np.repeat(starts[first], counts)
            offsets = np.empty(n, dtype=np.int64)
            offsets[order] = rel
            self.fnames = [f"Cell_D_{int(r):05d}" for r in uniq]
            which = np.searchsorted(uniq, ranks_arr)
            fname_of_box = [self.fnames[i] for i in which.tolist()]
        self.cellh = build_cellh_arrays(ba, nvars, fname_of_box, offsets)


def _plan_fingerprint(plan: _LevelPlan) -> int:
    """Sanitizer checksum over the replayed buffers of a level plan."""
    return sanitize.checksum((plan.ranks, plan.sizes, plan.fnames))


def _level_plan(ba: BoxArray, dm: DistributionMapping, nvars: int) -> _LevelPlan:
    key = (dm.ranks, nvars)
    plan = ba.memo.get(key)
    if plan is None:
        plan = ba.memo[key] = _LevelPlan(ba, dm, nvars)
    if sanitize.enabled():
        # The first sanitized dump of a plan records its checksum; every
        # later one must still match it.
        crc = _plan_fingerprint(plan)
        want = ba.memo.setdefault((dm.ranks, nvars, "crc"), crc)
        sanitize.check(
            crc == want,
            f"level plan for {len(ba)} boxes, nvars {nvars} drifted since "
            "it was built (a consumer mutated a plan buffer)",
        )
    return plan


def _check_levels(
    geoms: Sequence[Geometry],
    boxarrays: Sequence[BoxArray],
    distributions: Sequence[DistributionMapping],
) -> None:
    """Reject a hierarchy whose per-level inputs do not line up: one
    geometry, box array and distribution per level, and one rank per box."""
    if not (len(boxarrays) == len(distributions) == len(geoms)):
        raise ValueError("geoms/boxarrays/distributions length mismatch")
    for lev, (ba, dm) in enumerate(zip(boxarrays, distributions)):
        if len(dm) != len(ba):
            raise ValueError(
                f"distributions[{lev}] maps {len(dm)} boxes but "
                f"boxarrays[{lev}] holds {len(ba)}"
            )


def _write_level_data(
    fs: FileSystem,
    root: str,
    step: int,
    lev: int,
    ba: BoxArray,
    dm: DistributionMapping,
    nvars: int,
    trace: Optional[IOTrace],
) -> Tuple[str, _LevelPlan]:
    """Write one level's ``Cell_D`` files under ``root/Level_<lev>``.

    The whole level's N-to-N burst is one batched filesystem call
    replaying the level plan.  Returns the level directory and the plan.
    """
    ldir = f"{root}/Level_{lev}"
    fs.mkdirs(ldir)
    plan = _level_plan(ba, dm, nvars)
    paths = [f"{ldir}/{fn}" for fn in plan.fnames]
    fs.write_many(paths, plan.sizes)
    if trace is not None and len(plan.ranks):
        trace.record_batch(step, lev, plan.ranks, plan.sizes, paths, kind="data")
    return ldir, plan


def write_plotfile(
    fs: FileSystem,
    spec: PlotfileSpec,
    step: int,
    time: float,
    geoms: Sequence[Geometry],
    boxarrays: Sequence[BoxArray],
    distributions: Sequence[DistributionMapping],
    ref_ratio: int = 2,
    trace: Optional[IOTrace] = None,
) -> str:
    """Write one dump; returns the plotfile directory path.

    Parameters
    ----------
    fs:
        Target filesystem (virtual or real).
    spec:
        Naming / variable configuration.
    step, time:
        Dump identity.
    geoms, boxarrays, distributions:
        Per-level mesh and ownership (coarsest first, equal lengths; one
        rank per box).
    trace:
        Optional I/O trace receiving one record per file written.
    """
    _check_levels(geoms, boxarrays, distributions)
    var_names = spec.var_names
    nvars = len(var_names)
    pdir = plotfile_name(spec.prefix, step)
    fs.mkdirs(pdir)

    # ------------------------------------------------------------------
    # top-level metadata
    # ------------------------------------------------------------------
    header = build_header_text(var_names, geoms, boxarrays, time, step, ref_ratio)
    n = fs.write_text(f"{pdir}/Header", header)
    if trace is not None:
        trace.record(step, -1, 0, n, f"{pdir}/Header", kind="metadata")
    job_info = build_job_info_text(spec.job_name, spec.nprocs, spec.nnodes)
    n = fs.write_text(f"{pdir}/job_info", job_info)
    if trace is not None:
        trace.record(step, -1, 0, n, f"{pdir}/job_info", kind="metadata")

    # ------------------------------------------------------------------
    # per-level data
    # ------------------------------------------------------------------
    for lev, (ba, dm) in enumerate(zip(boxarrays, distributions)):
        ldir, plan = _write_level_data(fs, pdir, step, lev, ba, dm, nvars, trace)
        n = fs.write_text(f"{ldir}/Cell_H", plan.cellh)
        if trace is not None:
            trace.record(step, lev, 0, n, f"{ldir}/Cell_H", kind="metadata")
    return pdir
