"""Comparison helpers: AMReX-vs-MACSio (Figs. 10 & 11) and cross-machine.

The second half is the platform side of the predictive-tool story: a
recorded campaign (from any machine) can be replayed through every
registered :class:`~repro.platform.Platform`'s storage model to compare
burst totals across machines without re-running anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from ..campaign.records import RunRecord
from ..core.calibration import ProxyVerification, score_proxy
from ..macsio.params import MacsioParams
from ..platform import get_platform
from .report import format_table, human_bytes

__all__ = [
    "compare_record_to_macsio",
    "classify_linearity",
    "MachineBurstRow",
    "record_burst_seconds",
    "compare_machines",
    "format_machine_comparison",
]


def compare_record_to_macsio(
    record: RunRecord, params: MacsioParams, nprocs: Optional[int] = None
) -> ProxyVerification:
    """Run MACSio with ``params`` and score it against a recorded run."""
    return score_proxy(params, nprocs or record.nprocs, record.step_bytes)


@dataclass(frozen=True)
class MachineBurstRow:
    """Per-machine burst totals of a campaign (one comparison row)."""

    machine: str
    n_runs: int
    total_bytes: float
    burst_seconds: float
    slowest_case: str
    slowest_seconds: float


def record_burst_seconds(
    record: RunRecord,
    machine=None,
    variability: float = 0.0,
    seed: int = 12345,
) -> np.ndarray:
    """Modeled per-dump burst times of one recorded run on a platform.

    ``machine`` defaults to the record's own; naming another replays the
    recorded byte series through that machine's storage model (the
    zero-run what-if).  The final dump uses the recorded per-task byte
    vector (real imbalance); earlier dumps split evenly across ranks,
    the same approximation :func:`~repro.core.predictor.predict_sizes`
    makes.  ``variability=0`` keeps machines comparable by default.
    """
    p = get_platform(machine if machine is not None else record.machine)
    topo = p.topology(record.nprocs, min(record.nnodes, p.total_nodes))
    storage = p.storage_model(variability=variability, seed=seed)
    nodes = topo.node_map()
    per_rank = np.empty(record.nprocs, dtype=np.int64)
    last = len(record.step_bytes) - 1
    out = []
    for k, nb in enumerate(record.step_bytes):
        if k == last and len(record.task_bytes_last) == record.nprocs:
            per_rank[:] = np.asarray(record.task_bytes_last, dtype=np.int64)
        else:
            per_rank[:] = int(nb) // record.nprocs
        out.append(storage.burst_time(per_rank, nodes))
    return np.asarray(out, dtype=np.float64)


def compare_machines(
    records: Sequence[RunRecord],
    machines: Optional[Iterable] = None,
    variability: float = 0.0,
    seed: int = 12345,
) -> List[MachineBurstRow]:
    """Per-machine burst totals, sorted by machine name.

    Two modes:

    * ``machines=None`` — group the records by the machine they ran
      against (the shape of a multi-machine campaign's results);
    * ``machines=[...]`` — replay *every* record on each named machine
      (the zero-run cross-machine what-if for a single-machine campaign).
    """
    if machines is None:
        groups: Dict[str, List[RunRecord]] = {}
        for r in records:
            groups.setdefault(r.machine, []).append(r)
        items = list(groups.items())
    else:
        items = [(get_platform(m).name, list(records)) for m in machines]
    rows: List[MachineBurstRow] = []
    for machine, recs in items:
        total_b = 0.0
        total_s = 0.0
        slowest = ("", 0.0)
        for r in recs:
            s = float(
                record_burst_seconds(
                    r, machine=machine, variability=variability, seed=seed
                ).sum()
            )
            total_s += s
            total_b += float(sum(r.step_bytes))
            if s > slowest[1]:
                slowest = (r.name, s)
        rows.append(
            MachineBurstRow(
                machine=machine,
                n_runs=len(recs),
                total_bytes=total_b,
                burst_seconds=total_s,
                slowest_case=slowest[0],
                slowest_seconds=slowest[1],
            )
        )
    rows.sort(key=lambda row: row.machine)
    return rows


def format_machine_comparison(rows: Sequence[MachineBurstRow]) -> str:
    """ASCII table of :func:`compare_machines` rows."""
    return format_table(
        ["machine", "runs", "total output", "burst total", "slowest case"],
        [
            (
                row.machine,
                row.n_runs,
                human_bytes(row.total_bytes),
                f"{row.burst_seconds:.3f}s",
                f"{row.slowest_case} ({row.slowest_seconds:.3f}s)",
            )
            for row in rows
        ],
        title="per-machine burst totals",
    )


def classify_linearity(x: Sequence[float], y: Sequence[float], tol: float = 0.02) -> str:
    """Label a cumulative curve "linear" or "non-linear".

    Fits y ~ a*x and examines the relative residual; the Fig. 5
    discussion separates near-linear runs from runs that "deviate from
    this linear behavior".
    """
    xv = np.asarray(x, dtype=np.float64)
    yv = np.asarray(y, dtype=np.float64)
    if xv.shape != yv.shape or xv.size < 3:
        raise ValueError("x and y must be equal-length with >= 3 paired points")
    denom = float(xv @ xv)
    if denom == 0:
        raise ValueError("degenerate x values")
    a = float(xv @ yv) / denom
    resid = yv - a * xv
    rel = float(np.sqrt(np.mean(resid**2))) / float(np.mean(np.abs(yv)))
    return "linear" if rel <= tol else "non-linear"
