"""On-disk FAB sizes (AMReX ``FArrayBox`` binary format).

Each grid's data is stored in a ``Cell_D_xxxxx`` file as an ASCII FAB
header line followed by ``ncomp * numpts`` raw doubles.  We reproduce
the real header format so that the byte accounting matches what Castro
produces on Summit; the payload itself is never materialized.

Size accounting is *closed form*: :func:`fab_nbytes` computes the header
length arithmetically (digit counts of the box corners and component
count) instead of rendering and encoding the header text, and
:func:`fab_nbytes_array` does the same for a whole level of boxes in one
vectorized pass.  ``fab_header`` renders the authoritative header line;
the equivalence suite pins the arithmetic byte-exact against it.
"""

from __future__ import annotations

import numpy as np

from ..amr.box import Box

__all__ = [
    "fab_header",
    "fab_nbytes",
    "fab_nbytes_array",
]

# The native-double descriptor AMReX writes on little-endian machines.
_REAL_DESCRIPTOR = (
    "FAB ((8, (64 11 52 0 1 12 0 1023)),(8, (8 7 6 5 4 3 2 1)))"
)
_DESC_LEN = len(_REAL_DESCRIPTOR)

# Fixed characters of the box spec ``(({a},{b}) ({c},{d}) (0,0))``
# besides the four corner numbers: "((" + "," + ") (" + "," + ") (0,0))".
_BOXSTR_FIXED = 2 + 1 + 3 + 1 + 8

# Powers of ten for vectorized decimal digit counting (int64 range).
_POW10 = 10 ** np.arange(1, 19, dtype=np.int64)


def fab_header(box: Box, ncomp: int) -> str:
    """ASCII header line for one FAB (AMReX ``FArrayBox::writeOn``)."""
    lo = box.lo
    hi = box.hi
    # AMReX box format: ((lo) (hi) (type)) with cell-centered type (0,0).
    boxstr = f"(({lo[0]},{lo[1]}) ({hi[0]},{hi[1]}) (0,0))"
    return f"{_REAL_DESCRIPTOR}{boxstr} {ncomp}\n"


def fab_nbytes(box: Box, ncomp: int) -> int:
    """Total on-disk bytes of one FAB: header + ncomp*numpts doubles.

    Computed arithmetically — no header text is rendered.  ``len(str(n))``
    counts decimal digits (including a ``-`` sign for negative corners).
    """
    header_len = (
        _DESC_LEN
        + _BOXSTR_FIXED
        + len(str(box.lo[0]))
        + len(str(box.lo[1]))
        + len(str(box.hi[0]))
        + len(str(box.hi[1]))
        + 1  # space before ncomp
        + len(str(int(ncomp)))
        + 1  # trailing newline
    )
    return header_len + box.numpts * ncomp * 8


def _ndigits(a: np.ndarray) -> np.ndarray:
    """Decimal character count of each int (``-`` sign included)."""
    a = np.asarray(a, dtype=np.int64)
    return 1 + np.searchsorted(_POW10, np.abs(a), side="right") + (a < 0)


def fab_nbytes_array(
    los: np.ndarray, his: np.ndarray, numpts: np.ndarray, ncomp: int
) -> np.ndarray:
    """On-disk bytes of a whole level's FABs in one vectorized pass.

    Parameters
    ----------
    los / his:
        ``(n, 2)`` int arrays of box corners (``BoxArray.corners()``).
    numpts:
        ``(n,)`` per-box cell counts (``BoxArray.box_sizes()``).
    ncomp:
        Components per FAB.

    Returns ``(n,)`` int64; entry ``k`` equals ``fab_nbytes(ba[k], ncomp)``.
    """
    los = np.asarray(los, dtype=np.int64).reshape(-1, 2)
    his = np.asarray(his, dtype=np.int64).reshape(-1, 2)
    header_len = (
        _DESC_LEN
        + _BOXSTR_FIXED
        + 2  # space before ncomp + trailing newline
        + len(str(int(ncomp)))
        + _ndigits(los[:, 0])
        + _ndigits(los[:, 1])
        + _ndigits(his[:, 0])
        + _ndigits(his[:, 1])
    )
    return header_len + np.asarray(numpts, dtype=np.int64) * (int(ncomp) * 8)

