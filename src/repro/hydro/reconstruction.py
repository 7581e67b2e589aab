"""Piecewise-linear slope reconstruction with the minmod limiter.

Castro's CTU/PPM machinery is approximated by second-order
piecewise-linear reconstruction: limited slopes of the primitive
variables at the old time level give the left/right interface states
directly, with no Hancock half-step predictor.  The limiter is minmod,
for robustness at the Sedov shock.

Every function takes a keyword-only :class:`~repro.hydro.workspace.Workspace`
``ws`` whose named buffers receive its temporaries and results (see
that module); without one it uses a throwaway workspace.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .workspace import Workspace

__all__ = ["minmod", "limited_slopes", "interface_states"]


def minmod(a: np.ndarray, b: np.ndarray, *, ws: Optional[Workspace] = None,
           out: Optional[np.ndarray] = None) -> np.ndarray:
    """Minmod of two slope candidates.

    The smaller-magnitude candidate where ``a * b > 0``, else ``+0.0``
    (NaN products included).  ``out`` receives the result when given;
    it must not alias ``a`` or ``b``.
    """
    ws = Workspace() if ws is None else ws
    shape = np.broadcast_shapes(np.shape(a), np.shape(b))
    if out is None:
        out = ws.take("minmod", shape)
    abs_a = ws.take("minmod.abs_a", shape)
    mask = ws.take("minmod.mask", shape, np.bool_)
    np.abs(a, out=abs_a)
    np.abs(b, out=out)  # |b|, until out takes b below
    np.less(abs_a, out, out=mask)
    np.copyto(out, b)
    np.copyto(out, a, where=mask)
    np.multiply(a, b, out=abs_a)
    np.greater(abs_a, 0.0, out=mask)
    np.logical_not(mask, out=mask)
    np.copyto(out, 0.0, where=mask)
    return out


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


def limited_slopes(W: np.ndarray, axis: int, *,
                   ws: Optional[Workspace] = None) -> np.ndarray:
    """Limited slope per cell along a grid ``axis`` of a (4, ...) array.

    ``axis`` is any axis but the leading component axis (negative
    indices count from the end, so ``-2``/``-1`` are the x/y grid axes
    of a patch).  The outermost cells get zero slope (they only feed
    ghost regions).  The result is ``ws``'s ``"dW"`` buffer.
    """
    ws = Workspace() if ws is None else ws
    ax = _grid_axis(W, axis)
    n = W.shape[ax]

    def along(start, stop):
        return _along(W.ndim, ax, slice(start, stop))

    dW = ws.take("dW", W.shape)
    dW[along(0, 1)] = 0.0
    dW[along(n - 1, n)] = 0.0
    # One difference per adjacent pair: cell k's backward difference
    # W[k] - W[k-1] is cell k-1's forward one.
    diff = ws.take("slopes.diff", W[along(1, None)].shape)
    np.subtract(W[along(1, None)], W[along(None, -1)], out=diff)
    minmod(diff[along(None, -1)], diff[along(1, None)], ws=ws, out=dW[along(1, -1)])
    return dW


def interface_states(W: np.ndarray, axis: int, *, ws: Optional[Workspace] = None):
    """Left/right states at interfaces normal to ``axis``.

    For ``n`` cells along the axis there are ``n - 1`` interior
    interfaces; interface ``k`` separates cells ``k`` and ``k+1``:
    ``WL[k] = W[k] + dW[k]/2``, ``WR[k] = W[k+1] - dW[k+1]/2``.
    The results are ``ws``'s ``"WL"`` and ``"WR"`` buffers.
    """
    ws = Workspace() if ws is None else ws
    dW = limited_slopes(W, axis, ws=ws)
    ax = _grid_axis(W, axis)
    lo = _along(W.ndim, ax, slice(None, -1))
    hi = _along(W.ndim, ax, slice(1, None))
    np.multiply(0.5, dW, out=dW)
    WL = ws.take("WL", W[lo].shape)
    WR = ws.take("WR", W[hi].shape)
    np.add(W[lo], dW[lo], out=WL)
    np.subtract(W[hi], dW[hi], out=WR)
    return WL, WR
