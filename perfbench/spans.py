"""Span recorder for the traced run, and the per-layer reduction.

The traced run wraps public entry points of each layer at the module
attribute its caller looks them up through (its *import site*), so the
program itself is unchanged: ``sim.castro.advance_patch``,
``workload.annulus.berger_rigoutsos``, ``IOTrace.record_batch`` and so
on.  Every call becomes one span ``(name, start, end, parent, count)``
kept in memory; the run writes them out once it ends and the driver
reduces them to per-layer metrics.  ``count`` is an optional per-call
size (cells updated, boxes clustered, files written ...).

Self time is a span's duration minus the durations of its direct
children.  Top-level spans (no parent) never overlap, because the
traced run is single-threaded, so their total is the share of the run
that some layer span covers.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["Recorder", "install", "reduce_spans", "PER_LAYER"]

_clock = time.perf_counter


class Recorder:
    """In-memory span store (parallel lists, appended per call)."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.names: List[str] = []
        self.start: List[float] = []
        self.end: List[float] = []
        self.parent: List[int] = []
        self.count: List[int] = []
        self._stack: List[int] = []

    def wrap(self, name: str, fn: Callable,
             count: Optional[Callable] = None) -> Callable:
        """``fn`` timed as span ``name``; ``count(args, kwargs, out)``
        gives the span's size when set."""
        names, start, end, parent, counts, stack = (
            self.names, self.start, self.end, self.parent, self.count,
            self._stack)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parent.append(stack[-1] if stack else -1)
            counts.append(0)
            end.append(0.0)
            stack.append(idx)
            start.append(_clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = _clock()
                stack.pop()
            if count is not None:
                counts[idx] = int(count(args, kwargs, out))
            return out

        return traced

    def add(self, name: str, t0: float, t1: float, count: int = 0) -> None:
        """A span measured by the caller (top level, no children)."""
        self.names.append(name)
        self.start.append(t0)
        self.end.append(t1)
        self.parent.append(-1)
        self.count.append(int(count))

    def dump(self, path: str, t0: float, t1: float) -> None:
        """Write every span out, with the timed window ``[t0, t1]``."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "run_id": self.run_id,
                "window": [t0, t1],
                "names": self.names,
                "start": self.start,
                "end": self.end,
                "parent": self.parent,
                "count": self.count,
            }, fh)


def _arg(args: Sequence, kwargs: Dict, pos: int, key: str):
    return args[pos] if len(args) > pos else kwargs[key]


def _batch_records(args, kwargs, out) -> int:
    # record_batch broadcasts scalar columns against its sequences
    cols = list(args[1:6]) + [kwargs[k] for k in
                              ("step", "level", "rank", "nbytes", "paths")
                              if k in kwargs]
    lens = [len(c) for c in cols if not isinstance(c, str) and np.ndim(c)]
    return max(lens, default=1)


def _interior_cells(args, kwargs, out) -> int:
    return int(np.prod(np.shape(out)[-2:]))


def _clip_pairs(args, kwargs, out) -> int:
    return len(_arg(args, kwargs, 0, "ba")) * len(_arg(args, kwargs, 1, "allowed"))


# (module, attribute, span name, count) — "Class.method" attributes are
# patched on the class; "NAME[key]" patches one entry of a dict.
ENTRY_POINTS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    # hydro (solver engine)
    ("repro.sim.castro", "advance_patch", "hydro.advance", _interior_cells),
    ("repro.hydro.riemann", "RIEMANN_SOLVERS[hllc]", "hydro.riemann", None),
    ("repro.hydro.flux", "interface_states", "hydro.reconstruct", None),
    ("repro.hydro.flux", "cons_to_prim", "hydro.cons_to_prim", None),
    ("repro.sim.castro", "cons_to_prim", "hydro.cons_to_prim", None),
    ("repro.sim.castro", "cfl_timestep", "hydro.timestep", None),
    ("repro.sim.castro", "apply_boundary", "hydro.boundary", None),
    # amr
    ("repro.amr.hierarchy", "AmrHierarchy.regrid", "amr.regrid", None),
    ("repro.sim.castro", "tag_gradient", "amr.tag", None),
    ("repro.amr.hierarchy", "berger_rigoutsos", "amr.cluster",
     lambda a, k, out: len(out)),
    ("repro.workload.annulus", "berger_rigoutsos", "amr.cluster",
     lambda a, k, out: len(out)),
    ("repro.amr.grid", "clip_boxarray", "amr.clip", _clip_pairs),
    ("repro.workload.generator", "clip_boxarray", "amr.clip", _clip_pairs),
    ("repro.amr.hierarchy", "make_distribution", "amr.distribute", None),
    ("repro.workload.generator", "make_distribution", "amr.distribute:gen",
     None),
    # workload engine
    ("repro.workload.generator", "SedovWorkloadGenerator.level_layout",
     "workload.layout", lambda a, k, out: len(out)),
    ("repro.workload.annulus", "refined_region_mask", "workload.mask",
     lambda a, k, out: out.size),
    # plotfile writer
    ("repro.sim.castro", "write_plotfile", "plotfile.write",
     lambda a, k, out: len(_arg(a, k, 4, "geoms"))),
    ("repro.workload.generator", "write_plotfile", "plotfile.write",
     lambda a, k, out: len(_arg(a, k, 4, "geoms"))),
    ("repro.plotfile.writer", "fab_nbytes_array", "plotfile.plan", None),
    # iosim
    ("repro.iosim.darshan", "IOTrace.record", "iosim.trace_append",
     lambda a, k, out: 1),
    ("repro.iosim.darshan", "IOTrace.record_batch", "iosim.trace_append",
     _batch_records),
    ("repro.iosim.filesystem", "VirtualFileSystem.write_many",
     "iosim.fs_write", lambda a, k, out: len(_arg(a, k, 1, "paths"))),
) + tuple(
    ("repro.iosim.darshan", f"IOTrace.{m}", "iosim.trace_aggregate", None)
    for m in ("bytes_per_step", "bytes_per_level", "bytes_per_rank",
              "bytes_step_level_rank", "cumulative_bytes_by_step",
              "total_bytes", "columns")
) + (
    # core / macsio / analysis
    ("repro.core.calibration", "calibrate_from_result", "core.calibrate",
     None),
    ("repro.core.calibration", "calibrate_growth", "core.growth",
     lambda a, k, out: out.n_iterations),
    ("repro.core.calibration", "run_macsio", "macsio.run", None),
    ("repro.analysis.loadbalance", "per_level_loads", "analysis.loads",
     None),
    ("repro.analysis.loadbalance", "imbalance_report", "analysis.loads",
     None),
    # campaign
    ("repro.campaign.shard", "ShardedResultStore.put", "campaign.store_put",
     None),
    ("repro.campaign.executor", "record_from_result", "campaign.record",
     None),
    # service
    ("repro.service.serve", "serve_lines", "service.serve", None),
    ("repro.service.serve", "request_from_dict", "service.parse", None),
    ("repro.service.serve", "response_to_dict", "service.encode", None),
    ("repro.service.engine", "PredictionService.predict_many",
     "service.predict", None),
    ("repro.service.engine", "PredictionService.lookup_many",
     "service.lookup", None),
    ("repro.service.plans", "PlatformPlan.burst_series",
     "service.plan_burst", None),
    ("repro.campaign.shard", "ShardedResultStore.refresh",
     "service.store_refresh", None),
)


def install(rec: Recorder,
            entry_points: Sequence = ENTRY_POINTS) -> int:
    """Wrap every entry point in place; returns how many were wrapped."""
    n = 0
    for module_name, attr, name, count in entry_points:
        module = importlib.import_module(module_name)
        if attr.endswith("]"):
            table, key = attr[:-1].split("[")
            mapping = getattr(module, table)
            mapping[key] = rec.wrap(name, mapping[key], count)
        elif "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, meth, rec.wrap(name, cls.__dict__[meth], count))
        else:
            setattr(module, attr, rec.wrap(name, getattr(module, attr), count))
        n += 1
    return n


# ----------------------------------------------------------------------
# reduction: spans (+ the worker's counters) -> per-layer metrics

def _self_times(spans: Dict) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    start = np.asarray(spans["start"], dtype=np.float64)
    end = np.asarray(spans["end"], dtype=np.float64)
    parent = np.asarray(spans["parent"], dtype=np.int64)
    dur = end - start
    has = parent >= 0
    child = np.bincount(parent[has], weights=dur[has], minlength=len(dur))
    return dur, dur - child, parent


# metric -> (unit, how): "self:<prefix,...>" sums self times of spans
# whose name starts with a prefix; "calls:<prefix>" counts spans;
# "sum:<prefix>" sums span counts; "x:<key>" is a counter the worker
# reported directly.
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "hydro.advance_s": ("s", "self:hydro.advance"),
    "hydro.riemann_s": ("s", "self:hydro.riemann"),
    "hydro.reconstruct_s": ("s", "self:hydro.reconstruct"),
    "hydro.cons_to_prim_s": ("s", "self:hydro.cons_to_prim"),
    "hydro.timestep_s": ("s", "self:hydro.timestep"),
    "hydro.boundary_s": ("s", "self:hydro.boundary"),
    "hydro.fine_steps": ("count", "calls:hydro.advance"),
    "hydro.cell_updates": ("count", "sum:hydro.advance"),
    "amr.regrid_s": ("s", "self:amr.regrid"),
    "amr.regrids": ("count", "calls:amr.regrid"),
    "amr.level_reuse_frac": ("frac", "x:amr.level_reuse_frac"),
    "amr.tag_s": ("s", "self:amr.tag"),
    "amr.cluster_s": ("s", "self:amr.cluster"),
    "amr.cluster_boxes": ("count", "sum:amr.cluster"),
    "amr.clip_s": ("s", "self:amr.clip"),
    "amr.clip_pairs": ("count", "sum:amr.clip"),
    "amr.distribute_s": ("s", "self:amr.distribute"),
    "amr.distribute_calls": ("count", "calls:amr.distribute"),
    "workload.layout_s": ("s", "self:workload.layout"),
    "workload.mask_s": ("s", "self:workload.mask"),
    "workload.mask_tiles": ("count", "sum:workload.mask"),
    "workload.layout_reuse_frac": ("frac", "x:workload.layout_reuse_frac"),
    "plotfile.write_s": ("s", "self:plotfile"),
    "plotfile.dumps": ("count", "calls:plotfile.write"),
    "plotfile.plan_builds": ("count", "calls:plotfile.plan"),
    "plotfile.plan_hit_frac": ("frac", "x:plotfile.plan_hit_frac"),
    "iosim.trace_append_s": ("s", "self:iosim.trace_append"),
    "iosim.trace_records": ("count", "sum:iosim.trace_append"),
    "iosim.fs_write_s": ("s", "self:iosim.fs_write"),
    "iosim.fs_files": ("count", "sum:iosim.fs_write"),
    "iosim.trace_aggregate_s": ("s", "self:iosim.trace_aggregate"),
    "iosim.trace_aggregate_calls": ("count", "calls:iosim.trace_aggregate"),
    "core.calibrate_s": ("s", "self:core"),
    "core.growth_evals": ("count", "sum:core.growth"),
    "macsio.run_s": ("s", "self:macsio"),
    "analysis.loads_s": ("s", "self:analysis"),
    "campaign.cases": ("count", "x:campaign.cases"),
    "campaign.busy_frac": ("frac", "x:campaign.busy_frac"),
    "campaign.queue_wait_s": ("s", "x:campaign.queue_wait_s"),
    "campaign.retries": ("count", "x:campaign.retries"),
    "campaign.store_put_s": ("s", "self:campaign.store_put"),
    "campaign.store_puts": ("count", "calls:campaign.store_put"),
    "campaign.store_bytes": ("bytes", "x:campaign.store_bytes"),
    "campaign.record_s": ("s", "self:campaign.record"),
    "service.parse_s": ("s", "self:service.parse,service.serve"),
    "service.predict_s": ("s", "self:service.predict"),
    "service.plan_burst_s": ("s", "self:service.plan_burst"),
    "service.lookup_s": ("s", "self:service.lookup"),
    "service.store_refresh_s": ("s", "self:service.store_refresh"),
    "service.encode_s": ("s", "self:service.encode"),
    "service.wire_s": ("s", "self:service.wire"),
    "service.lru_hit_frac": ("frac", "x:service.lru_hit_frac"),
    "service.lru_evictions": ("count", "x:service.lru_evictions"),
    "service.predicted": ("count", "x:service.predicted"),
    "service.store_hit_frac": ("frac", "x:service.store_hit_frac"),
    "service.resp_bytes": ("bytes", "x:service.resp_bytes"),
    "bench.trace_overhead_frac": ("frac", "x:bench.trace_overhead_frac"),
    "bench.unattributed_frac": ("frac", "x:bench.unattributed_frac"),
}


def _match(names: np.ndarray, prefixes: str) -> np.ndarray:
    mask = np.zeros(len(names), dtype=bool)
    for p in prefixes.split(","):
        mask |= np.char.startswith(names, p)
    return mask


def reduce_spans(spans: Dict, counters: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics of one traced run (every :data:`PER_LAYER` key).

    Only spans inside the timed window count (set-up calls the same entry
    points).  ``counters`` carries the values the worker read off program
    objects (``x:`` metrics).  A layer the workload never enters reads 0.
    """
    t0, t1 = spans["window"]
    dur, self_t, parent = _self_times(spans)
    inside = ((np.asarray(spans["start"]) >= t0)
              & (np.asarray(spans["end"]) <= t1))
    names = np.asarray(spans["names"], dtype=str)[inside]
    counts = np.asarray(spans["count"], dtype=np.int64)[inside]
    dur, self_t, parent = dur[inside], self_t[inside], parent[inside]
    covered = float(dur[parent < 0].sum())
    values = dict(counters)
    values["bench.unattributed_frac"] = max(0.0, 1.0 - covered / (t1 - t0))
    # plan reuse: one plan build per (layout, ownership) the writer had
    # not seen; layout reuse: generator levels that replayed the memoized
    # distribution instead of calling make_distribution again
    levels_written = counts[names == "plotfile.write"].sum()
    if levels_written:
        values["plotfile.plan_hit_frac"] = (
            1.0 - np.count_nonzero(names == "plotfile.plan") / levels_written)
    levels_laid = counts[names == "workload.layout"].sum()
    if levels_laid:
        values["workload.layout_reuse_frac"] = (
            1.0 - np.count_nonzero(names == "amr.distribute:gen") / levels_laid)
    out: Dict[str, float] = {}
    for metric, (_, how) in PER_LAYER.items():
        kind, arg = how.split(":", 1)
        if kind == "x":
            out[metric] = float(values.get(arg, 0.0))
            continue
        mask = _match(names, arg)
        if kind == "self":
            out[metric] = float(self_t[mask].sum())
        elif kind == "calls":
            out[metric] = int(mask.sum())
        else:
            out[metric] = int(counts[mask].sum())
    return out
