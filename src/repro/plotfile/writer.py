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
grouping and prefix sums as single array ops — and cached per
``(BoxArray identity, distribution, nvars)``, so repeat dumps of an
unchanged layout replay the plan instead of re-deriving it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

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
    "clear_plan_cache",
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

    Derived once per ``(BoxArray.token, distribution ranks, nvars)`` and
    cached: per-FAB on-disk byte counts, owner grouping (which ranks own
    data, which boxes land in which ``Cell_D`` file at which offset),
    per-file sizes, and the rendered size-mode ``Cell_H`` text.
    """

    __slots__ = (
        "ranks",
        "fnames",
        "sizes",
        "nbytes",
        "offsets",
        "order",
        "bounds",
        "fname_of_box",
        "cellh",
    )

    def __init__(self, ba: BoxArray, dm: DistributionMapping, nvars: int) -> None:
        n = len(ba)
        ranks_arr = np.fromiter(dm.ranks, dtype=np.int64, count=n)
        los, his = ba.corners()
        self.nbytes = frozen(fab_nbytes_array(los, his, ba.box_sizes(), nvars))
        if n == 0:
            self.ranks = frozen(np.empty(0, dtype=np.int64))
            self.fnames: List[str] = []
            self.sizes = frozen(np.empty(0, dtype=np.int64))
            self.offsets = frozen(np.empty(0, dtype=np.int64))
            self.order = frozen(np.empty(0, dtype=np.int64))
            self.bounds = frozen(np.zeros(1, dtype=np.int64))
            self.fname_of_box: List[str] = []
        else:
            # Stable sort by owner: boxes stay in index order within each
            # rank's file — the same order the per-fab loop produced.
            order = np.argsort(ranks_arr, kind="stable")
            bsort = self.nbytes[order]
            starts = np.cumsum(bsort) - bsort
            uniq, first = np.unique(ranks_arr[order], return_index=True)
            self.ranks = frozen(uniq)
            self.sizes = frozen(np.add.reduceat(bsort, first))
            self.order = frozen(order)
            self.bounds = frozen(np.append(first, n).astype(np.int64))
            counts = np.diff(self.bounds)
            rel = starts - np.repeat(starts[first], counts)
            offsets = np.empty(n, dtype=np.int64)
            offsets[order] = rel
            self.offsets = frozen(offsets)
            self.fnames = [f"Cell_D_{int(r):05d}" for r in uniq]
            which = np.searchsorted(uniq, ranks_arr)
            self.fname_of_box = [self.fnames[i] for i in which.tolist()]
        self.cellh = build_cellh_arrays(ba, nvars, self.fname_of_box, self.offsets)


_PLAN_CACHE: Dict[Tuple[int, Tuple[int, ...], int], _LevelPlan] = {}
_PLAN_CRC: Dict[Tuple[int, Tuple[int, ...], int], int] = {}
_PLAN_CACHE_MAX = 256


def clear_plan_cache() -> None:
    """Drop all cached level plans (tests / memory pressure)."""
    _PLAN_CACHE.clear()
    _PLAN_CRC.clear()


def _plan_fingerprint(plan: _LevelPlan) -> int:
    """Sanitizer checksum over the replayed parts of a level plan."""
    return sanitize.checksum((
        plan.nbytes, plan.ranks, plan.sizes, plan.offsets,
        plan.order, plan.bounds, plan.fnames, plan.fname_of_box,
    ))


def _level_plan(ba: BoxArray, dm: DistributionMapping, nvars: int) -> _LevelPlan:
    key = (ba.token, dm.ranks, nvars)
    plan = _PLAN_CACHE.get(key)
    if plan is None:
        if len(_PLAN_CACHE) >= _PLAN_CACHE_MAX:
            _PLAN_CACHE.clear()
            _PLAN_CRC.clear()
        plan = _PLAN_CACHE[key] = _LevelPlan(ba, dm, nvars)
        if sanitize.enabled():
            _PLAN_CRC[key] = _plan_fingerprint(plan)
    elif sanitize.enabled():
        want = _PLAN_CRC.setdefault(key, _plan_fingerprint(plan))
        sanitize.check(
            _plan_fingerprint(plan) == want,
            f"cached level plan for key {key} drifted since it was built "
            "(a consumer mutated a plan buffer)",
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
    for lev in range(len(geoms)):
        ba = boxarrays[lev]
        dm = distributions[lev]
        ldir = f"{pdir}/Level_{lev}"
        fs.mkdirs(ldir)
        plan = _level_plan(ba, dm, nvars)
        paths = [f"{ldir}/{fn}" for fn in plan.fnames]
        # The whole level's N-to-N burst is one batched filesystem call
        # replaying the cached plan.
        fs.write_many(paths, plan.sizes)
        if trace is not None and len(plan.ranks):
            trace.record_batch(step, lev, plan.ranks, plan.sizes, paths, kind="data")
        n = fs.write_text(f"{ldir}/Cell_H", plan.cellh)
        if trace is not None:
            trace.record(step, lev, 0, n, f"{ldir}/Cell_H", kind="metadata")
    return pdir
