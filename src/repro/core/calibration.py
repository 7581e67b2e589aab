"""End-to-end calibration pipeline (Fig. 1's ``g`` construction).

Chains the full methodology: run (or accept) an AMReX-style Sedov
workload, build the Eq.-1/2 series, anchor ``part_size`` via Eq. (3),
minimize ``dataset_growth`` (Fig. 9), and return a
:class:`~repro.core.translator.ProxyModel` ready to drive MACSio —
optionally verifying the proxy against the source run (Fig. 10).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..iosim.darshan import IOTrace
from ..macsio.dump import MacsioRun, run_macsio
from ..macsio.params import MacsioParams
from ..sim.castro import SimResult
from ..sim.inputs import CastroInputs
from .errors import final_cumulative_error, mean_relative_error, shape_correlation
from .growth import GrowthCalibration, calibrate_growth
from .part_size import fit_correction_factor, part_size_model
from .translator import ProxyModel, translate
from .variables import ModelSeries, build_series

__all__ = ["CalibrationReport", "calibrate_from_result", "score_proxy", "verify_proxy"]


@dataclass
class CalibrationReport:
    """Everything the calibration of one case produces."""

    inputs: CastroInputs
    nprocs: int
    series: ModelSeries
    f: float
    growth: GrowthCalibration
    model: ProxyModel
    macsio_params: MacsioParams

    def summary(self) -> str:
        return (
            f"case {self.inputs.n_cell[0]}x{self.inputs.n_cell[1]} "
            f"maxlev={self.inputs.max_level} cfl={self.inputs.cfl} "
            f"np={self.nprocs}: f={self.f:.2f}, "
            f"dataset_growth={self.growth.growth:.6f} "
            f"({self.growth.n_iterations} evals)"
        )


def calibrate_from_result(
    result: SimResult,
    compute_time: float = 0.0,
    include_metadata: bool = True,
    growth_bounds: Tuple[float, float] = (0.95, 1.25),
) -> CalibrationReport:
    """Calibrate the proxy model against one simulated run."""
    inp = result.inputs
    series = build_series(result.trace, inp.ncells_l0, include_metadata)
    f = fit_correction_factor(
        series.y_step, inp.n_cell[0], inp.n_cell[1], result.nprocs
    )
    growth = calibrate_growth(series.y_step, bounds=growth_bounds)
    # meta_size: what the simulation wrote beyond data payloads, per task
    # per dump — a "runtime" parameter in the paper's wording.
    meta_total = result.trace.total_bytes(kind="metadata")
    meta_per_task_dump = int(
        meta_total / max(1, series.n_outputs) / max(1, result.nprocs)
    )
    model = ProxyModel(
        f=f,
        dataset_growth=growth.growth,
        compute_time=compute_time,
        meta_size=meta_per_task_dump,
    )
    params = translate(inp, result.nprocs, model)
    return CalibrationReport(
        inputs=inp,
        nprocs=result.nprocs,
        series=series,
        f=f,
        growth=growth,
        model=model,
        macsio_params=params,
    )


@dataclass(frozen=True)
class ProxyVerification:
    """Proxy-vs-simulation comparison metrics (the Fig. 10 check)."""

    mean_rel_error: float
    final_cumulative_rel_error: float
    shape_corr: float
    macsio_step_bytes: Tuple[float, ...]
    observed_step_bytes: Tuple[float, ...]


def score_proxy(
    params: MacsioParams, nprocs: int, observed_step_bytes: Sequence[float]
) -> ProxyVerification:
    """Run the MACSio proxy and score its per-dump bytes against an
    observed series, both cut to the shorter of the two."""
    run = run_macsio(params, nprocs)
    model_steps = np.asarray(run.bytes_per_dump, dtype=np.float64)
    obs = np.asarray(observed_step_bytes, dtype=np.float64)
    n = min(len(model_steps), len(obs))
    model_steps, obs = model_steps[:n], obs[:n]
    return ProxyVerification(
        mean_rel_error=mean_relative_error(model_steps, obs),
        final_cumulative_rel_error=final_cumulative_error(model_steps, obs),
        shape_corr=shape_correlation(model_steps, obs),
        macsio_step_bytes=tuple(model_steps),
        observed_step_bytes=tuple(obs),
    )


def verify_proxy(report: CalibrationReport) -> ProxyVerification:
    """Run the MACSio proxy with the calibrated parameters and compare."""
    return score_proxy(report.macsio_params, report.nprocs, report.series.y_step)


__all__.append("ProxyVerification")
