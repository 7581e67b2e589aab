"""Equivalence suite: columnar IOTrace vs the seed event-list semantics.

The columnar rewrite of :mod:`repro.iosim.darshan` must answer every
aggregation byte-identically to the original ``List[IORecord]``
implementation.  ``LegacyIOTrace`` below *is* that original
implementation (copied verbatim from the seed); the tests replay
randomized record streams — duplicate (step, level, rank) keys,
negative-level metadata records, shared paths, empty traces — into
both and compare every query.  The pending-row buffer behind scalar
``record`` calls must be invisible to every reader, and the
kind-filtered aggregations (which the reference cannot answer) are
checked against a plain loop over the input rows.
"""

from collections import defaultdict

import numpy as np
import pytest

from repro.iosim.darshan import IORecord, IOTrace
from repro.iosim.filesystem import VirtualFileSystem
from repro.iosim.storage import StorageModel


class LegacyIOTrace:
    """The seed's event-list trace, kept as the behavioral reference."""

    def __init__(self):
        self._records = []

    def record(self, step, level, rank, nbytes, path, kind="data"):
        if nbytes < 0:
            raise ValueError("nbytes cannot be negative")
        self._records.append(IORecord(step, level, rank, nbytes, path, kind))

    def __len__(self):
        return len(self._records)

    def __iter__(self):
        return iter(self._records)

    def steps(self):
        return sorted({r.step for r in self._records})

    def levels(self):
        return sorted({r.level for r in self._records if r.level >= 0})

    def total_bytes(self, kind=None):
        return sum(r.nbytes for r in self._records if kind is None or r.kind == kind)

    def bytes_per_step(self):
        out = defaultdict(int)
        for r in self._records:
            out[r.step] += r.nbytes
        return dict(out)

    def bytes_per_level(self, step=None):
        out = defaultdict(int)
        for r in self._records:
            if r.level < 0:
                continue
            if step is None or r.step == step:
                out[r.level] += r.nbytes
        return dict(out)

    def bytes_per_rank(self, step=None, level=None, nprocs=None):
        n = nprocs if nprocs is not None else (
            max((r.rank for r in self._records), default=-1) + 1
        )
        out = np.zeros(max(n, 0), dtype=np.int64)
        for r in self._records:
            if step is not None and r.step != step:
                continue
            if level is not None and r.level != level:
                continue
            out[r.rank] += r.nbytes
        return out

    def bytes_step_level_rank(self):
        out = defaultdict(int)
        for r in self._records:
            out[(r.step, r.level, r.rank)] += r.nbytes
        return dict(out)

    def file_count(self, step=None):
        return len({r.path for r in self._records if step is None or r.step == step})

    def cumulative_bytes_by_step(self):
        per = self.bytes_per_step()
        steps = np.array(sorted(per), dtype=np.int64)
        sizes = np.array([per[s] for s in steps], dtype=np.float64)
        return steps, np.cumsum(sizes)


def random_stream(seed, n=400):
    """A messy record stream: duplicates, metadata, shared paths."""
    rng = np.random.default_rng(seed)
    shared_paths = [f"plt{i:05d}/Level_{j}/Cell_D_{k:05d}"
                    for i in range(4) for j in range(3) for k in range(4)]
    out = []
    for i in range(n):
        step = int(rng.integers(0, 12)) * 5
        if rng.random() < 0.15:
            # metadata record: level -1, rank 0
            out.append((step, -1, 0, int(rng.integers(0, 5000)),
                        f"plt{step:05d}/Header", "metadata"))
        else:
            out.append((
                step,
                int(rng.integers(0, 4)),
                int(rng.integers(0, 16)),
                int(rng.integers(0, 1_000_000)),
                shared_paths[int(rng.integers(0, len(shared_paths)))],
                "data",
            ))
    return out


def fill(trace, stream):
    for rec in stream:
        trace.record(*rec)
    return trace


def assert_equivalent(new: IOTrace, ref: LegacyIOTrace):
    assert len(new) == len(ref)
    assert new.steps() == ref.steps()
    assert new.levels() == ref.levels()
    for kind in (None, "data", "metadata", "never-used"):
        assert new.total_bytes(kind) == ref.total_bytes(kind)
    assert new.bytes_per_step() == ref.bytes_per_step()
    assert new.bytes_per_level() == ref.bytes_per_level()
    assert new.bytes_step_level_rank() == ref.bytes_step_level_rank()
    assert new.file_count() == ref.file_count()
    for step in ref.steps()[:5] + [99999]:
        assert new.bytes_per_level(step=step) == ref.bytes_per_level(step=step)
        assert new.file_count(step=step) == ref.file_count(step=step)
        np.testing.assert_array_equal(
            new.bytes_per_rank(step=step), ref.bytes_per_rank(step=step)
        )
    np.testing.assert_array_equal(new.bytes_per_rank(), ref.bytes_per_rank())
    np.testing.assert_array_equal(
        new.bytes_per_rank(nprocs=64), ref.bytes_per_rank(nprocs=64)
    )
    np.testing.assert_array_equal(
        new.bytes_per_rank(step=ref.steps()[0] if ref.steps() else None, level=2),
        ref.bytes_per_rank(step=ref.steps()[0] if ref.steps() else None, level=2),
    )
    s_new, c_new = new.cumulative_bytes_by_step()
    s_ref, c_ref = ref.cumulative_bytes_by_step()
    np.testing.assert_array_equal(s_new, s_ref)
    assert s_new.dtype == s_ref.dtype
    np.testing.assert_array_equal(c_new, c_ref)
    assert c_new.dtype == c_ref.dtype
    assert list(new) == list(ref)


class TestColumnarEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_randomized_streams(self, seed):
        stream = random_stream(seed)
        assert_equivalent(fill(IOTrace(), stream), fill(LegacyIOTrace(), stream))

    def test_empty_trace(self):
        assert_equivalent(IOTrace(), LegacyIOTrace())

    def test_empty_trace_shapes(self):
        tr = IOTrace()
        assert tr.bytes_per_rank().shape == (0,)
        assert list(tr.bytes_per_rank(nprocs=4)) == [0, 0, 0, 0]
        steps, cum = tr.cumulative_bytes_by_step()
        assert len(steps) == 0 and len(cum) == 0

    def test_duplicate_step_level_rank_keys(self):
        stream = [(0, 1, 2, 10, "a", "data")] * 7
        new, ref = fill(IOTrace(), stream), fill(LegacyIOTrace(), stream)
        assert new.bytes_step_level_rank() == ref.bytes_step_level_rank() == {
            (0, 1, 2): 70
        }

    def test_python_int_values(self):
        # JSON-serializability: aggregation dicts hold python ints.
        tr = fill(IOTrace(), random_stream(7, n=50))
        for value in tr.bytes_per_step().values():
            assert type(value) is int
        for value in tr.bytes_step_level_rank().values():
            assert type(value) is int
        assert type(tr.total_bytes()) is int

    def test_growth_beyond_initial_capacity(self):
        stream = random_stream(11, n=3000)  # force several doublings
        assert_equivalent(fill(IOTrace(), stream), fill(LegacyIOTrace(), stream))


class TestRecordBatch:
    def test_batch_equals_looped_records(self):
        looped, batched = IOTrace(), IOTrace()
        steps = [3, 3, 3, 3]
        levels = [0, 0, 1, 1]
        ranks = [0, 1, 0, 1]
        sizes = [10, 20, 30, 40]
        paths = [f"plt/L{l}/Cell_D_{r:05d}" for l, r in zip(levels, ranks)]
        for s, l, r, n, p in zip(steps, levels, ranks, sizes, paths):
            looped.record(s, l, r, n, p)
        batched.record_batch(steps, levels, ranks, sizes, paths)
        assert list(batched) == list(looped)
        assert batched.bytes_step_level_rank() == looped.bytes_step_level_rank()
        assert batched.file_count() == looped.file_count()

    def test_scalar_broadcast(self):
        tr = IOTrace()
        tr.record_batch(2, 0, [0, 1, 2], [5, 6, 7],
                        ["f0", "f1", "f2"], kind="data")
        np.testing.assert_array_equal(tr.bytes_per_rank(), [5, 6, 7])
        assert tr.steps() == [2]

    def test_single_path_broadcast_sif(self):
        # SIF: every rank records against the one shared file.
        tr = IOTrace()
        tr.record_batch(0, 0, [0, 1, 2, 3], [100, 100, 100, 100], "data/sif0")
        assert tr.file_count() == 1
        assert tr.total_bytes() == 400

    def test_negative_nbytes_rejected(self):
        with pytest.raises(ValueError):
            IOTrace().record_batch(0, 0, [0, 1], [5, -2], ["a", "b"])

    def test_path_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            IOTrace().record_batch(0, 0, [0, 1, 2], [1, 2, 3], ["a", "b"])

    def test_mixed_batch_and_single_records(self):
        tr = IOTrace()
        tr.record(0, -1, 0, 9, "Header", kind="metadata")
        tr.record_batch(0, 0, [0, 1], [10, 20], ["a", "b"])
        tr.record(1, 0, 0, 5, "a")
        assert tr.total_bytes() == 44
        assert tr.total_bytes("metadata") == 9
        assert tr.bytes_per_step() == {0: 39, 1: 5}


class TestBytesPerRankContract:
    def test_rank_out_of_nprocs_raises_named_valueerror(self):
        tr = IOTrace()
        tr.record(0, 0, 5, 100, "f")
        with pytest.raises(ValueError, match="rank 5"):
            tr.bytes_per_rank(nprocs=4)

    def test_nprocs_padding_beyond_max_rank(self):
        tr = IOTrace()
        tr.record(0, 0, 1, 100, "f")
        vec = tr.bytes_per_rank(nprocs=6)
        assert list(vec) == [0, 100, 0, 0, 0, 0]

    def test_filter_avoids_spurious_error(self):
        # The offending rank sits at another step: a filtered query
        # that never selects it must not raise.
        tr = IOTrace()
        tr.record(0, 0, 9, 10, "f")
        tr.record(1, 0, 0, 20, "g")
        assert list(tr.bytes_per_rank(step=1, nprocs=2)) == [20, 0]
        with pytest.raises(ValueError, match="rank 9"):
            tr.bytes_per_rank(step=0, nprocs=2)


class TestSmallAppendPath:
    """The pending-row buffer must be invisible to every consumer."""

    def test_record_then_immediate_read(self):
        tr = IOTrace()
        tr.record(3, 1, 2, 100, "a/b", "data")
        assert len(tr) == 1
        assert tr.total_bytes() == 100
        assert list(tr) == [IORecord(3, 1, 2, 100, "a/b", "data")]

    def test_negative_nbytes_rejected_before_buffering(self):
        tr = IOTrace()
        with pytest.raises(ValueError):
            tr.record(0, 0, 0, -1, "bad")
        assert len(tr) == 0

    def test_columns_reflect_pending_rows(self):
        tr = IOTrace()
        for i in range(10):
            tr.record(i, 0, i % 3, i * 10, f"p{i}")
        cols = tr.columns()
        assert np.array_equal(cols.step, np.arange(10))
        assert cols.paths == tuple(f"p{i}" for i in range(10))

    def test_flush_threshold_crossing_preserves_order(self):
        from repro.iosim.darshan import _PENDING_FLUSH

        tr = IOTrace()
        n = _PENDING_FLUSH + 17
        for i in range(n):
            tr.record(i, 0, 0, 1, "p")
        assert len(tr) == n
        assert np.array_equal(tr.columns().step, np.arange(n))


def random_rows(n, seed):
    """Uniform record tuples over 12 steps, levels -1..2 and 32 ranks,
    about a fifth of them metadata."""
    rng = np.random.default_rng(seed)
    steps = rng.integers(0, 12, n)
    levels = rng.integers(-1, 3, n)  # includes metadata level -1
    ranks = rng.integers(0, 32, n)
    nbytes = rng.integers(0, 1 << 20, n)
    kinds = np.where(rng.random(n) < 0.2, "metadata", "data")
    return [
        (int(s), int(l), int(r), int(nb),
         f"plt{s:05d}/Level_{max(l, 0)}/Cell_D_{r % 8:05d}", str(k))
        for s, l, r, nb, k in zip(steps, levels, ranks, nbytes, kinds)
    ]


KINDS = ("data", "metadata", "never-seen")


class TestKindFilteredOracle:
    """Kind-filtered aggregations against a plain loop over the input rows.

    ``LegacyIOTrace`` answers most queries without a kind filter, so the
    oracle here never touches a trace.
    """

    ROWS = random_rows(700, seed=11)

    @pytest.fixture
    def trace(self):
        return fill(IOTrace(), self.ROWS)

    def rows(self, step=None, level=None, kind=None):
        for s, l, r, nb, _, k in self.ROWS:
            if ((step is None or s == step) and (level is None or l == level)
                    and (kind is None or k == kind)):
                yield s, l, r, nb

    @pytest.mark.parametrize("kind", KINDS)
    def test_total_bytes(self, trace, kind):
        assert trace.total_bytes(kind) == sum(nb for *_, nb in self.rows(kind=kind))

    @pytest.mark.parametrize("kind", KINDS)
    def test_bytes_per_step(self, trace, kind):
        want = {}
        for s, _, _, nb in self.rows(kind=kind):
            want[s] = want.get(s, 0) + nb
        assert list(trace.bytes_per_step(kind=kind).items()) == sorted(want.items())

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("step", [None, 0, 5])
    def test_bytes_per_level(self, trace, step, kind):
        want = {}
        for _, l, _, nb in self.rows(step=step, kind=kind):
            if l >= 0:
                want[l] = want.get(l, 0) + nb
        got = trace.bytes_per_level(step=step, kind=kind)
        assert list(got.items()) == sorted(want.items())

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("step,level,nprocs", [
        (None, None, None), (3, None, 40), (3, 1, 40), (None, -1, None),
    ])
    def test_bytes_per_rank(self, trace, step, level, nprocs, kind):
        # Without nprocs the width covers every recorded rank, filtered or not.
        width = nprocs if nprocs is not None else max(r for _, _, r, *_ in self.ROWS) + 1
        want = [0] * width
        for _, _, r, nb in self.rows(step=step, level=level, kind=kind):
            want[r] += nb
        got = trace.bytes_per_rank(step=step, level=level, nprocs=nprocs, kind=kind)
        assert got.dtype == np.int64
        assert got.tolist() == want


class TestWriteMany:
    def test_equals_looped_write_size(self):
        a, b = VirtualFileSystem(), VirtualFileSystem()
        paths = [f"plt/Level_0/Cell_D_{r:05d}" for r in range(8)]
        sizes = [100 * (r + 1) for r in range(8)]
        total = 0
        for p, n in zip(paths, sizes):
            total += a.write_size(p, n)
        assert b.write_many(paths, sizes) == total
        assert a.sizes() == b.sizes()
        assert a.files() == b.files()

    def test_duplicate_paths_last_write_wins(self):
        a, b = VirtualFileSystem(), VirtualFileSystem()
        paths, sizes = ["f", "f"], [10, 30]
        for p, n in zip(paths, sizes):
            a.write_size(p, n)
        assert b.write_many(paths, sizes) == 40  # both writes counted
        assert a.sizes() == b.sizes() == {"f": 30}

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            VirtualFileSystem().write_many(["a"], [1, 2])

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            VirtualFileSystem().write_many(["a", "b"], [1, -1])

    def test_keep_content_mode(self):
        # Size-only writes never materialize payload bytes (a fig-11
        # scale file would allocate GBs of zeros); reading one back in
        # content mode raises a clear error instead.
        fs = VirtualFileSystem(keep_content=True)
        fs.write_many(["x/a", "x/b"], [3, 0])
        assert fs.size("x/a") == 3
        assert fs.size("x/b") == 0
        with pytest.raises(RuntimeError, match="size-only"):
            fs.read_bytes("x/a")


class TestBurstNoiseStability:
    def test_idle_rank_padding_does_not_change_noise(self):
        nb = [200_000_000, 150_000_000, 90_000_000]
        nodes = [0, 0, 1]
        t_base = StorageModel(variability=0.3, seed=99).burst_time(nb, nodes)
        # Same seed, one extra idle rank on its own node: the modeled
        # time must be bit-identical (rank-indexed noise draws).
        t_padded = StorageModel(variability=0.3, seed=99).burst_time(
            nb + [0], nodes + [2]
        )
        assert t_padded == t_base

    def test_noise_reproducible_per_seed(self):
        nb, nodes = [1_000_000, 2_000_000], [0, 1]
        t1 = StorageModel(variability=0.2, seed=5).burst_time(nb, nodes)
        t2 = StorageModel(variability=0.2, seed=5).burst_time(nb, nodes)
        assert t1 == t2
        assert t1 != StorageModel(variability=0.2, seed=6).burst_time(nb, nodes)

    def test_variability_zero_matches_seed_model(self):
        # Legacy scalar path, replayed here: per-rank write_time with
        # per-node active contention, max over ranks.
        m = StorageModel(stream_bandwidth=1.5e9, node_bandwidth=12.5e9,
                         metadata_latency=2e-3, variability=0.0)
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(1, 40))
            nb = rng.integers(0, 1_000_000_000, size=n)
            nodes = rng.integers(0, 5, size=n)
            active = nb > 0
            expected = 0.0
            per_node = {
                int(node): max(1, int(active[nodes == node].sum()))
                for node in np.unique(nodes)
            }
            for r in range(n):
                if not active[r]:
                    continue
                cost = m.write_time(int(nb[r]), per_node[int(nodes[r])])
                expected = max(expected, cost.seconds)
            assert m.burst_time(nb, nodes) == expected
