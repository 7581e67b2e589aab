"""Darshan-like I/O trace recorder (columnar, in RAM).

Carns et al. (the paper's ref. [19]) characterize application I/O by
recording per-file counters rather than event lists.  :class:`IOTrace`
is the equivalent here: writers report each (virtual) file operation
and the trace accumulates the counters the analysis layer consumes —
bytes and file counts per step / level / rank, plus burst timings when
a storage model is attached.

Storage is *columnar*: one amortized-doubling ``int64`` array per field
(step / level / rank / nbytes / kind / path), with paths and kinds
interned to integer ids.  The public API is unchanged from the
event-list implementation — :class:`IORecord` objects are materialized
lazily for iteration — and every aggregation returns byte-identical
results.

Every aggregation is one vectorized pass over the live columns: a
``np.bincount`` (or sort-based ``np.unique``) grouping with exact
integer sums instead of a Python loop over records, which is what makes
paper-scale (10^6-record, 131072^2-mesh) campaigns tractable.

Single :meth:`IOTrace.record` calls append one Python tuple (ids
interned inline) to a pending list and flush to the numpy columns in
bulk, so scalar-append-heavy writers pay no per-call numpy overhead.
Every read entry point syncs the buffer first; the buffering is
invisible to consumers.

:meth:`IOTrace.columns` returns zero-copy read-only views.  Recorded
rows never move — appends write past them, and growth copies into a
new buffer — so a view stays a valid snapshot.

Error contract: :meth:`IOTrace.bytes_per_rank` raises ``ValueError``
(naming the offending rank) when a recorded rank falls outside a
caller-supplied ``nprocs``, instead of corrupting the vector or dying
with a bare ``IndexError``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = ["IORecord", "IOTrace", "TraceColumns"]

_INITIAL_CAPACITY = 256

# Pending rows flush to the numpy columns in blocks of this many; the
# value only bounds the buffer (reads sync eagerly), it is not a tuning
# knob consumers see.
_PENDING_FLUSH = 4096

_FIELDS = ("step", "level", "rank", "nbytes", "kind", "path")

_IntOrSeq = Union[int, Sequence[int], np.ndarray]


@dataclass(frozen=True)
class IORecord:
    """One recorded write: who wrote how much, where, and when."""

    step: int
    level: int
    rank: int
    nbytes: int
    path: str
    kind: str = "data"  # "data" | "metadata"


def _check_rank_bound(ranks: np.ndarray, nprocs: int) -> None:
    """Raise the ``bytes_per_rank`` error contract for out-of-range ranks."""
    if len(ranks) and int(ranks.max()) >= nprocs:
        bad = int(ranks[ranks >= nprocs][0])
        raise ValueError(
            f"trace contains rank {bad} but nprocs={nprocs}; "
            "pass nprocs > the largest recorded rank"
        )


@dataclass(frozen=True)
class TraceColumns:
    """Read-only column views of a trace (step/level/rank are int64).

    ``path`` and ``kind`` hold interned ids; ``paths[path[i]]`` and
    ``kinds[kind[i]]`` recover the strings.  Consumers that need custom
    vectorized aggregations (``repro.core.variables``, the analysis
    layer) work on these instead of looping over :class:`IORecord`s.
    """

    step: np.ndarray
    level: np.ndarray
    rank: np.ndarray
    nbytes: np.ndarray
    kind: np.ndarray
    path: np.ndarray
    kinds: Tuple[str, ...]
    paths: Tuple[str, ...]

    def kind_is(self, kind: str) -> np.ndarray:
        """Boolean mask of records of ``kind`` (all-False if never seen)."""
        if kind in self.kinds:
            return self.kind == self.kinds.index(kind)
        return np.zeros(len(self.kind), dtype=bool)

    def check_rank_bound(self, nprocs: int, mask: Optional[np.ndarray] = None) -> None:
        """Raise the ``bytes_per_rank`` error contract for out-of-range ranks."""
        _check_rank_bound(self.rank if mask is None else self.rank[mask], nprocs)


def _readonly(arr: np.ndarray) -> np.ndarray:
    view = arr.view()
    view.flags.writeable = False
    return view


def _int_bincount(idx: np.ndarray, weights: np.ndarray, minlength: int) -> np.ndarray:
    """Exact int64 ``bincount(idx, weights)``.

    ``np.bincount`` accumulates weights in float64, which is exact as
    long as every partial sum stays below 2^53; ``max * count`` bounds
    them all.  Failing that, splitting each weight into 32-bit halves
    restores the bound for up to 2^21 records per bin; truly huge
    inputs fall back to ``np.add.at`` (slower, natively integer).
    """
    if len(idx) == 0:
        return np.zeros(minlength, dtype=np.int64)
    if int(weights.max()) * len(idx) < (1 << 53):
        return np.bincount(idx, weights=weights, minlength=minlength).astype(np.int64)
    if len(idx) < (1 << 21):
        lo = np.bincount(idx, weights=(weights & 0xFFFFFFFF).astype(np.float64),
                         minlength=minlength)
        hi = np.bincount(idx, weights=(weights >> 32).astype(np.float64),
                         minlength=minlength)
        return lo.astype(np.int64) + (hi.astype(np.int64) << 32)
    out = np.zeros(minlength, dtype=np.int64)
    np.add.at(out, idx, weights)
    return out


# A dense bincount beats a sort-based np.unique until the key span gets
# much larger than the record count (sparse keys => wasted memory).
_DENSE_SPAN_CAP = 4


def _grouped_sums(keys: np.ndarray, nbytes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(unique keys, int64 byte sums per key) — exact integer arithmetic."""
    if len(keys) == 0:
        return keys.astype(np.int64), np.zeros(0, dtype=np.int64)
    k0 = int(keys.min())
    span = int(keys.max()) - k0 + 1
    if span <= max(1024, _DENSE_SPAN_CAP * len(keys)):
        idx = keys - k0
        counts = np.bincount(idx, minlength=span)
        sums = _int_bincount(idx, nbytes, span)
        present = np.nonzero(counts)[0]
        return present + k0, sums[present]
    uniq, inverse = np.unique(keys, return_inverse=True)
    return uniq, _int_bincount(inverse, nbytes, len(uniq))


def _distinct_sorted(vals: np.ndarray) -> List[int]:
    """Sorted distinct values, bincount-based when the range is dense."""
    if len(vals) == 0:
        return []
    v0 = int(vals.min())
    span = int(vals.max()) - v0 + 1
    if span <= max(1024, _DENSE_SPAN_CAP * len(vals)):
        return (np.nonzero(np.bincount(vals - v0, minlength=span))[0] + v0).tolist()
    return np.unique(vals).tolist()


def _triple_sums(
    step: np.ndarray, level: np.ndarray, rank: np.ndarray, nbytes: np.ndarray
) -> Dict[Tuple[int, int, int], int]:
    """Exact byte sums grouped by (step, level, rank)."""
    if len(step) == 0:
        return {}
    # Composite int64 key: offset each column to >= 0, mix by range.
    s0, l0, r0 = int(step.min()), int(level.min()), int(rank.min())
    sspan = int(step.max()) - s0 + 1
    lspan = int(level.max()) - l0 + 1
    rspan = int(rank.max()) - r0 + 1
    if sspan * lspan * rspan >= 2**63:
        # Composite key would overflow int64: group row-wise instead.
        rows = np.stack([step, level, rank], axis=1)
        uniq_rows, inverse = np.unique(rows, axis=0, return_inverse=True)
        sums = _int_bincount(inverse, nbytes, len(uniq_rows))
        return {
            (int(s), int(l), int(r)): int(v)
            for (s, l, r), v in zip(uniq_rows, sums)
        }
    key = (step - s0).astype(np.int64)  # new array; in-place ops below
    key *= lspan
    key += level
    key -= l0
    key *= rspan
    key += rank
    key -= r0
    uniq, sums = _grouped_sums(key, nbytes)
    # Decode composite keys back to (step, level, rank).
    q, rr = np.divmod(uniq, rspan)
    ss, ll = np.divmod(q, lspan)
    return {
        (s + s0, l + l0, r + r0): v
        for s, l, r, v in zip(ss.tolist(), ll.tolist(), rr.tolist(), sums.tolist())
    }


class IOTrace:
    """Accumulates write records columnarly and answers aggregate queries.

    Every query is one vectorized pass over the in-RAM columns.
    """

    def __init__(self) -> None:
        self._pending: List[Tuple[int, int, int, int, int, int]] = []
        self._rank_hi = -1  # running max rank over all flushed rows
        self._n = 0
        self._cap = _INITIAL_CAPACITY
        self._step = np.empty(self._cap, dtype=np.int64)
        self._level = np.empty(self._cap, dtype=np.int64)
        self._rank = np.empty(self._cap, dtype=np.int64)
        self._nbytes = np.empty(self._cap, dtype=np.int64)
        self._kind = np.empty(self._cap, dtype=np.int64)
        self._path = np.empty(self._cap, dtype=np.int64)
        self._kind_names: List[str] = []
        self._kind_ids: Dict[str, int] = {}
        self._path_names: List[str] = []
        self._path_ids: Dict[str, int] = {}
        self._burst_seconds: Dict[int, float] = {}

    # ------------------------------------------------------------------
    # append paths
    # ------------------------------------------------------------------
    def _reserve(self, extra: int) -> None:
        need = self._n + extra
        if need <= self._cap:
            return
        while self._cap < need:
            self._cap *= 2
        for name in ("_step", "_level", "_rank", "_nbytes", "_kind", "_path"):
            old = getattr(self, name)
            grown = np.empty(self._cap, dtype=np.int64)
            grown[: self._n] = old[: self._n]
            setattr(self, name, grown)

    def _intern_kind(self, kind: str) -> int:
        kid = self._kind_ids.get(kind)
        if kid is None:
            kid = len(self._kind_names)
            self._kind_ids[kind] = kid
            self._kind_names.append(kind)
        return kid

    def _intern_path(self, path: str) -> int:
        pid = self._path_ids.get(path)
        if pid is None:
            pid = len(self._path_names)
            self._path_ids[path] = pid
            self._path_names.append(path)
        return pid

    def _append(self, n: int, step, level, rank, nbytes, kind, path) -> None:
        """Write ``n`` rows, one array per field (``kind`` may be one
        scalar id)."""
        self._reserve(n)
        lo, hi = self._n, self._n + n
        self._step[lo:hi] = step
        self._level[lo:hi] = level
        self._rank[lo:hi] = rank
        self._nbytes[lo:hi] = nbytes
        self._kind[lo:hi] = kind
        self._path[lo:hi] = path
        self._n = hi
        if n:
            self._rank_hi = max(self._rank_hi, int(rank.max()))

    def record(
        self,
        step: int,
        level: int,
        rank: int,
        nbytes: int,
        path: str,
        kind: str = "data",
    ) -> None:
        if nbytes < 0:
            raise ValueError("nbytes cannot be negative")
        # One tuple append per call; the numpy stores happen in bulk at
        # flush time, so scalar-append writers pay list speed, not
        # six scalar ndarray writes.
        self._pending.append(
            (step, level, rank, nbytes,
             self._intern_kind(kind), self._intern_path(path))
        )
        if len(self._pending) >= _PENDING_FLUSH:
            self._flush_pending()

    def record_batch(
        self,
        step: _IntOrSeq,
        level: _IntOrSeq,
        rank: _IntOrSeq,
        nbytes: _IntOrSeq,
        paths: Union[str, Sequence[str]],
        kind: str = "data",
    ) -> None:
        """Append many records in one call (the writers' fast path).

        ``step``/``level``/``rank``/``nbytes`` may be scalars or
        sequences; scalars broadcast against the longest sequence.
        ``paths`` is one path per record (a single string broadcasts —
        the SIF shared-file pattern).  Equivalent to calling
        :meth:`record` in a loop, in order.
        """
        self._flush_pending()  # keep global record order
        single_path = isinstance(paths, str)
        cols = [np.atleast_1d(np.asarray(c, dtype=np.int64))
                for c in (step, level, rank, nbytes)]
        n = max([len(c) for c in cols] + ([1] if single_path else [len(paths)]))
        if single_path:
            path_ids = np.full(n, self._intern_path(paths), dtype=np.int64)
        else:
            if len(paths) != n and len(paths) != 1:
                raise ValueError(
                    f"paths has {len(paths)} entries, batch length is {n}"
                )
            intern = self._intern_path
            path_ids = np.fromiter(
                (intern(p) for p in paths), dtype=np.int64, count=len(paths)
            )
            if len(paths) == 1:
                path_ids = np.full(n, path_ids[0], dtype=np.int64)
        try:
            cols = [np.broadcast_to(c, (n,)) for c in cols]
        except ValueError:
            raise ValueError(
                "step/level/rank/nbytes batch lengths do not broadcast to "
                f"{n}"
            ) from None
        if len(cols[3]) and int(cols[3].min()) < 0:
            raise ValueError("nbytes cannot be negative")
        self._append(n, *cols, self._intern_kind(kind), path_ids)

    def record_burst_time(self, step: int, seconds: float) -> None:
        self._burst_seconds[step] = self._burst_seconds.get(step, 0.0) + seconds

    # ------------------------------------------------------------------
    # pending flush + filtered reads
    # ------------------------------------------------------------------
    def _flush_pending(self) -> None:
        pend = self._pending
        if not pend:
            return
        rows = np.array(pend, dtype=np.int64)
        pend.clear()
        self._append(len(rows), *rows.T)

    def _filtered(
        self,
        names: Tuple[str, ...],
        step: Optional[int] = None,
        level: Optional[int] = None,
        kind: Optional[str] = None,
    ) -> Optional[List[np.ndarray]]:
        """The ``names`` columns of the rows passing every filter.

        Syncs the pending rows first; every read entry point goes through
        here.  Returns ``None`` for a ``kind`` that was never recorded,
        which matches no row.
        """
        self._flush_pending()
        kind_id = None
        if kind is not None:
            kind_id = self._kind_ids.get(kind)
            if kind_id is None:
                return None
        n = self._n
        mask = None
        for name, value in (("step", step), ("level", level), ("kind", kind_id)):
            if value is not None:
                m = getattr(self, "_" + name)[:n] == value
                mask = m if mask is None else mask & m
        cols = [getattr(self, "_" + name)[:n] for name in names]
        if mask is not None:
            # Scan the mask once; gathering each column by index is then
            # cheaper than a boolean index re-scanning it.
            rows = np.flatnonzero(mask)
            cols = [col[rows] for col in cols]
        return cols

    # ------------------------------------------------------------------
    # record access (compatibility with the event-list implementation)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._n + len(self._pending)

    def __iter__(self) -> Iterator[IORecord]:
        step, level, rank, nbytes, kind, path = self._filtered(_FIELDS)
        kinds, paths = self._kind_names, self._path_names
        return (
            IORecord(int(step[i]), int(level[i]), int(rank[i]),
                     int(nbytes[i]), paths[path[i]], kinds[kind[i]])
            for i in range(len(step))
        )

    @property
    def records(self) -> Tuple[IORecord, ...]:
        return tuple(self)

    def columns(self) -> TraceColumns:
        """Zero-copy read-only views of the recorded rows, for custom
        vectorized aggregations."""
        return TraceColumns(
            *map(_readonly, self._filtered(_FIELDS)),
            kinds=tuple(self._kind_names),
            paths=tuple(self._path_names),
        )

    # ------------------------------------------------------------------
    # aggregations — the (timestep, level, task) hierarchy of Fig. 2
    # ------------------------------------------------------------------
    def steps(self) -> List[int]:
        (step,) = self._filtered(("step",))
        return _distinct_sorted(step)

    def levels(self) -> List[int]:
        (lev,) = self._filtered(("level",))
        return _distinct_sorted(lev[lev >= 0])

    def total_bytes(self, kind: Optional[str] = None) -> int:
        cols = self._filtered(("nbytes",), kind=kind)
        return 0 if cols is None else int(cols[0].sum())

    def bytes_per_step(self, kind: Optional[str] = None) -> Dict[int, int]:
        cols = self._filtered(("step", "nbytes"), kind=kind)
        if cols is None:
            return {}
        uniq, sums = _grouped_sums(*cols)
        return dict(zip(uniq.tolist(), sums.tolist()))

    def bytes_per_level(
        self, step: Optional[int] = None, kind: Optional[str] = None
    ) -> Dict[int, int]:
        cols = self._filtered(("level", "nbytes"), step=step, kind=kind)
        if cols is None:
            return {}
        uniq, sums = _grouped_sums(*cols)
        # Grouping by level already separates the negative (metadata)
        # levels — drop them from the result instead of pre-masking.
        return {l: v for l, v in zip(uniq.tolist(), sums.tolist()) if l >= 0}

    def bytes_per_rank(
        self,
        step: Optional[int] = None,
        level: Optional[int] = None,
        nprocs: Optional[int] = None,
        kind: Optional[str] = None,
    ) -> np.ndarray:
        """Per-rank byte vector of length ``nprocs`` (or max rank + 1).

        Raises ``ValueError`` naming the offending rank when a selected
        record's rank is outside ``range(nprocs)`` — a trace recorded
        with more ranks than the caller claims is a caller bug, not an
        index fault.
        """
        cols = self._filtered(("rank", "nbytes"), step, level, kind)
        # Default width covers every recorded rank (filtered or not),
        # matching the event-list implementation.
        width = max(nprocs if nprocs is not None else self._rank_hi + 1, 0)
        if cols is None or not len(cols[0]):
            return np.zeros(width, dtype=np.int64)
        ranks, nb = cols
        if int(ranks.min()) < 0:
            bad = int(ranks[ranks < 0][0])
            raise ValueError(f"record has negative rank {bad}")
        if nprocs is not None:
            _check_rank_bound(ranks, nprocs)
        return _int_bincount(ranks, nb, width)

    def bytes_step_level_rank(self) -> Dict[Tuple[int, int, int], int]:
        """The full (timestep, level, task) -> bytes mapping (Eq. 2's y)."""
        return _triple_sums(*self._filtered(("step", "level", "rank", "nbytes")))

    def file_count(self, step: Optional[int] = None) -> int:
        (paths,) = self._filtered(("path",), step=step)
        # Path ids are dense by construction: count distinct via bincount.
        return int(np.count_nonzero(np.bincount(paths)))

    def cumulative_bytes_by_step(self) -> Tuple[np.ndarray, np.ndarray]:
        """(steps, cumulative bytes) series — the y-axis of Fig. 5."""
        per_step = self.bytes_per_step()  # already sorted by step
        steps = np.fromiter(per_step.keys(), dtype=np.int64, count=len(per_step))
        sums = np.fromiter(per_step.values(), dtype=np.int64, count=len(per_step))
        return steps, np.cumsum(sums.astype(np.float64))

    def burst_seconds(self) -> Dict[int, float]:
        return dict(self._burst_seconds)
