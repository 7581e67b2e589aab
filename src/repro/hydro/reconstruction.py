"""Second-order slope reconstruction with limiters (MUSCL).

Castro's CTU/PPM machinery is approximated by a MUSCL–Hancock scheme:
limited piecewise-linear slopes reconstruct left/right interface states.
Three classic limiters are provided; minmod is the default for
robustness at the Sedov shock.
"""

from __future__ import annotations

import numpy as np

__all__ = ["minmod", "mc_limiter", "superbee", "limited_slopes", "interface_states", "LIMITERS"]


def minmod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Minmod of two slope candidates."""
    out = np.where(np.abs(a) < np.abs(b), a, b)
    return np.where(a * b > 0.0, out, 0.0)


def mc_limiter(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Monotonized-central limiter (van Leer's MC)."""
    c = 0.5 * (a + b)
    limited = np.minimum(np.abs(c), 2.0 * np.minimum(np.abs(a), np.abs(b)))
    return np.where(a * b > 0.0, np.sign(c) * limited, 0.0)


def superbee(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Superbee limiter (most compressive of the three)."""
    s1 = minmod(2.0 * a, b)
    s2 = minmod(a, 2.0 * b)
    pick = np.where(np.abs(s1) > np.abs(s2), s1, s2)
    return np.where(a * b > 0.0, pick, 0.0)


LIMITERS = {"minmod": minmod, "mc": mc_limiter, "superbee": superbee}


def _along(ndim: int, axis: int, sl: slice) -> tuple:
    """Index tuple selecting ``sl`` along ``axis`` of an ``ndim`` array."""
    idx = [slice(None)] * ndim
    idx[axis] = sl
    return tuple(idx)


def _grid_axis(W: np.ndarray, axis: int) -> int:
    """Normalize ``axis`` and reject the component axis (axis 0)."""
    ax = axis + W.ndim if axis < 0 else axis
    if not 1 <= ax < W.ndim:
        raise ValueError(
            f"axis must be a grid axis in [1, {W.ndim - 1}] "
            f"(or negative equivalent), got {axis}"
        )
    return ax


def limited_slopes(W: np.ndarray, axis: int, limiter: str = "minmod") -> np.ndarray:
    """Limited slope per cell along a grid ``axis`` of a (4, ...) array.

    ``axis`` is any axis but the leading component axis (negative
    indices count from the end, so ``-2``/``-1`` are the x/y grid axes
    of a patch).  The outermost cells get zero slope (they only feed
    ghost regions).
    """
    try:
        lim = LIMITERS[limiter]
    except KeyError:
        raise ValueError(f"unknown limiter {limiter!r}; choose from {sorted(LIMITERS)}") from None
    ax = _grid_axis(W, axis)
    mid = _along(W.ndim, ax, slice(1, -1))
    lo = _along(W.ndim, ax, slice(None, -2))
    hi = _along(W.ndim, ax, slice(2, None))
    dW = np.zeros_like(W)
    dW[mid] = lim(W[mid] - W[lo], W[hi] - W[mid])
    return dW


def interface_states(W: np.ndarray, axis: int, limiter: str = "minmod"):
    """Left/right states at interfaces normal to ``axis``.

    For ``n`` cells along the axis there are ``n - 1`` interior
    interfaces; interface ``k`` separates cells ``k`` and ``k+1``:
    ``WL[k] = W[k] + dW[k]/2``, ``WR[k] = W[k+1] - dW[k+1]/2``.
    """
    dW = limited_slopes(W, axis, limiter)
    ax = _grid_axis(W, axis)
    lo = _along(W.ndim, ax, slice(None, -1))
    hi = _along(W.ndim, ax, slice(1, None))
    WL = W[lo] + 0.5 * dW[lo]
    WR = W[hi] - 0.5 * dW[hi]
    return WL, WR
