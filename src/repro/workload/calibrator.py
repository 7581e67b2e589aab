"""Fitting the annulus workload model against real solver runs.

The analytic generator's :class:`~repro.workload.annulus.
AnnulusCoefficients` are *physical* parameters (band widths, core size).
This module closes the validation loop: run the PDE solver at small
scale, measure the per-level refined-cell counts, and fit the
coefficients so the generator reproduces them — the procedure that
justifies trusting the generator at the paper scales the solver cannot
reach.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..sim.castro import CastroSim, SimResult
from ..sim.inputs import CastroInputs
from .annulus import AnnulusCoefficients
from .generator import SedovWorkloadGenerator

__all__ = ["CoefficientFit", "measure_level_cells", "fit_coefficients"]


def measure_level_cells(result: SimResult) -> Dict[int, List[int]]:
    """Per-level refined-cell counts at each dump of a run."""
    out: Dict[int, List[int]] = {}
    nlev = max(len(ev.cells_per_level) for ev in result.outputs)
    for lev in range(nlev):
        out[lev] = [
            ev.cells_per_level[lev] if lev < len(ev.cells_per_level) else 0
            for ev in result.outputs
        ]
    return out


@dataclass(frozen=True)
class CoefficientFit:
    """Fitted coefficients plus the residual diagnostics."""

    coefficients: AnnulusCoefficients
    residual: float  # mean relative cell-count error over levels/dumps
    evaluations: int


def _generator_cells(
    inputs: CastroInputs, nprocs: int, co: AnnulusCoefficients, problem
) -> Dict[int, List[int]]:
    gen = SedovWorkloadGenerator(inputs, nprocs=nprocs, problem=problem,
                                 coefficients=co)
    return measure_level_cells(gen.run())


def _residual(
    target: Dict[int, List[int]], model: Dict[int, List[int]]
) -> float:
    errs: List[float] = []
    for lev, obs in target.items():
        if lev == 0:
            continue  # L0 is input-determined, identical by construction
        mod = model.get(lev, [0] * len(obs))
        n = min(len(obs), len(mod))
        for o, m in zip(obs[:n], mod[:n]):
            if o > 0:
                errs.append(abs(m - o) / o)
            elif m > 0:
                errs.append(1.0)
    if not errs:
        return 0.0
    return float(np.mean(errs))


def fit_coefficients(
    solver_result: SimResult,
    start: AnnulusCoefficients = AnnulusCoefficients(),
    problem=None,
    max_evals: int = 60,
) -> CoefficientFit:
    """Fit (rel_width, core_rel) to a solver run's per-level cell counts.

    Only the two dominant physical knobs are optimized (Nelder–Mead);
    the mesh-floor parameters (``min_cells``, ``core_min``) are left at
    their configured values — they matter only below the scales the
    solver validates.
    """
    # deferred: scipy is the only third-party import outside numpy, and
    # only this fit needs it
    from scipy.optimize import minimize

    target = measure_level_cells(solver_result)
    inputs = solver_result.inputs
    nprocs = solver_result.nprocs
    evals = [0]

    def objective(x: np.ndarray) -> float:
        rel_width, core_rel = float(x[0]), float(x[1])
        if rel_width <= 0.005 or rel_width > 0.5 or core_rel < 0.0 or core_rel > 0.8:
            return 10.0
        evals[0] += 1
        co = replace(start, rel_width=rel_width, core_rel=core_rel)
        model = _generator_cells(inputs, nprocs, co, problem)
        return _residual(target, model)

    res = minimize(
        objective,
        x0=np.array([start.rel_width, start.core_rel]),
        method="Nelder-Mead",
        options={"maxfev": max_evals, "xatol": 1e-3, "fatol": 1e-3},
    )
    fitted = replace(start, rel_width=float(res.x[0]), core_rel=float(res.x[1]))
    return CoefficientFit(
        coefficients=fitted,
        residual=float(res.fun),
        evaluations=evals[0],
    )
