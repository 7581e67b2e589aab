"""``dataset_growth`` calibration (the Fig. 9 minimization).

With the initial data size pinned by Eq. (3), matching MACSio to a
simulation becomes "a single parameter optimization problem": find the
growth factor ``g`` such that

    model_k(g) = base_bytes * g^k,   k = 0..K-1

best fits the observed per-dump sizes.  The paper converges to
``data_growth = 1.013075`` for case4 and reports the useful range
1.0–1.02.  We minimize relative least squares with Brent's bounded
scalar search, keeping every iterate so the convergence plot (Fig. 9)
can be regenerated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["GrowthCalibration", "calibrate_growth", "growth_series", "GROWTH_RANGE_PAPER"]

GROWTH_RANGE_PAPER: Tuple[float, float] = (1.0, 1.02)

_SQRT_EPS = np.sqrt(2.2e-16)
_GOLDEN_MEAN = 0.5 * (3.0 - np.sqrt(5.0))
_MAX_EVALS = 500


def growth_series(base_bytes: float, growth: float, n_dumps: int) -> np.ndarray:
    """Model per-dump bytes: ``base_bytes * growth^k``."""
    if n_dumps < 1:
        raise ValueError("n_dumps must be >= 1")
    if base_bytes <= 0:
        raise ValueError("base_bytes must be positive")
    if growth <= 0:
        raise ValueError("growth must be positive")
    return base_bytes * growth ** np.arange(n_dumps, dtype=np.float64)


@dataclass
class GrowthCalibration:
    """Result of the single-parameter minimization, with trace."""

    growth: float
    base_bytes: float
    objective: float
    iterations: List[Tuple[float, float]] = field(default_factory=list)
    # Each entry: (growth value tried, objective value).

    @property
    def n_iterations(self) -> int:
        return len(self.iterations)

    def convergence_curves(self, n_dumps: int) -> List[np.ndarray]:
        """Model series of selected iterates — the curves of Fig. 9.

        Returns at most 8 curves sampled along the convergence path,
        ending with the final solution.
        """
        if not self.iterations:
            return [growth_series(self.base_bytes, self.growth, n_dumps)]
        idx = np.unique(
            np.linspace(0, len(self.iterations) - 1, min(8, len(self.iterations))).astype(int)
        )
        curves = [
            growth_series(self.base_bytes, self.iterations[i][0], n_dumps) for i in idx
        ]
        curves.append(growth_series(self.base_bytes, self.growth, n_dumps))
        return curves


def calibrate_growth(
    observed_step_bytes: Sequence[float],
    base_bytes: Optional[float] = None,
    bounds: Tuple[float, float] = (0.95, 1.25),
    weight: str = "relative",
) -> GrowthCalibration:
    """Fit ``g`` to observed per-dump sizes with ``base`` fixed.

    Parameters
    ----------
    observed_step_bytes:
        Bytes of each dump, in dump order.
    base_bytes:
        The fixed initial size (Eq.-3 anchor); defaults to the first
        observed dump, the paper's convention.
    bounds:
        Search bracket for ``g``.
    weight:
        ``"relative"`` minimizes sum((model/obs - 1)^2) (scale-free,
        what a practitioner matching curves by eye does);
        ``"absolute"`` minimizes sum((model - obs)^2).
    """
    obs = np.asarray(observed_step_bytes, dtype=np.float64)
    if obs.size < 2:
        raise ValueError("need at least two dumps to calibrate growth")
    if (obs <= 0).any():
        raise ValueError("dump sizes must be positive")
    base = float(base_bytes) if base_bytes is not None else float(obs[0])
    k = np.arange(obs.size, dtype=np.float64)
    trace: List[Tuple[float, float]] = []

    if weight == "relative":
        def objective(g: float) -> float:
            model = base * g**k
            val = float(np.sum((model / obs - 1.0) ** 2))
            trace.append((g, val))
            return val
    elif weight == "absolute":
        def objective(g: float) -> float:
            model = base * g**k
            val = float(np.sum((model - obs) ** 2))
            trace.append((g, val))
            return val
    else:
        raise ValueError(f"unknown weight {weight!r}")

    x, fx = _minimize_bounded(objective, bounds, xatol=1e-7)
    return GrowthCalibration(
        growth=float(x),
        base_bytes=base,
        objective=float(fx),
        iterations=trace,
    )


def _minimize_bounded(
    func: Callable[[float], float], bounds: Tuple[float, float], xatol: float
) -> Tuple[float, float]:
    """Brent's bounded scalar minimizer (Brent 1973; Forsythe, Malcolm
    and Moler 1977, ``fmin``); returns ``(x, func(x))`` at the best point.

    The operations, their order and their numpy scalar types are those of
    ``scipy.optimize.minimize_scalar(method="bounded")``, so every
    evaluated point and the result are the same floats: Fig. 9 plots the
    iterates and the ``model_longrun`` digest holds the result.  Stops
    when the bracket is within ``xatol`` (plus a relative ``sqrt(eps)``)
    of the best point, or after 500 evaluations.
    """
    a, b = bounds
    if not (np.isfinite(a) and np.isfinite(b)):
        raise ValueError(f"bounds must be finite, got {bounds!r}")
    if a > b:
        raise ValueError(f"bounds must have lower <= upper, got {bounds!r}")
    # xf: best point so far; nfc: second best; fulc: the previous nfc
    fulc = a + _GOLDEN_MEAN * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    fx = func(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * np.abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while np.abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        if np.abs(e) > tol1:  # try a parabola through the three points
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = np.abs(q)
            r = e
            e = rat
            if ((np.abs(p) < np.abs(0.5 * q * r)) and (p > q * (a - xf))
                    and (p < q * (b - xf))):
                rat = (p + 0.0) / q
                x = xf + rat
                if ((x - a) < tol2) or ((b - x) < tol2):
                    si = np.sign(xm - xf) + ((xm - xf) == 0)
                    rat = tol1 * si
            else:
                golden = True
        if golden:  # a golden-section step into the larger half
            if xf >= xm:
                e = a - xf
            else:
                e = b - xf
            rat = _GOLDEN_MEAN * e

        si = np.sign(rat) + (rat == 0)
        x = xf + si * np.maximum(np.abs(rat), tol1)
        fu = func(x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if (fu <= fnfc) or (nfc == xf):
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif (fu <= ffulc) or (fulc == xf) or (fulc == nfc):
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * np.abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1

        if num >= _MAX_EVALS:
            break
    return xf, fx
