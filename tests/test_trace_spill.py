"""IOTrace chunk-spill suite: bit-identity with the in-RAM trace.

A spill-enabled trace must be observationally identical to the in-RAM
trace fed the same records — every aggregation, the record iterator,
and the materialized columns — at chunk boundaries (n = k*chunk and
k*chunk ± 1), with record/record_batch interleaving, and under
``REPRO_SANITIZE=1`` where sealed chunk files are crc-verified on every
re-open.  Both share one aggregation path, so their kind-filtered
aggregations are also checked against a plain loop over the input rows.
Spill isolation is pinned too: a ``columns()`` snapshot survives a later
seal, and a second trace cannot seal into a used ``spill_dir``.
"""

import os
import pickle

import numpy as np
import pytest

from repro.iosim.darshan import IORecord, IOTrace
from repro.sanitize import SanitizeError


def random_rows(n, seed=0, nranks=32, nsteps=12, nlevels=3):
    rng = np.random.default_rng(seed)
    steps = rng.integers(0, nsteps, n)
    levels = rng.integers(-1, nlevels, n)  # includes metadata level -1
    ranks = rng.integers(0, nranks, n)
    nbytes = rng.integers(0, 1 << 20, n)
    paths = [f"plt{s:05d}/Level_{max(l, 0)}/Cell_D_{r % 8:05d}"
             for s, l, r in zip(steps, levels, ranks)]
    kinds = np.where(rng.random(n) < 0.2, "metadata", "data")
    return steps, levels, ranks, nbytes, paths, kinds


def fill_looped(tr, rows):
    for step, level, rank, nb, path, kind in zip(*rows):
        tr.record(int(step), int(level), int(rank), int(nb), path, str(kind))
    return tr


def assert_equivalent(spilled, ram, nprocs=32):
    assert len(spilled) == len(ram)
    assert spilled.total_bytes() == ram.total_bytes()
    assert spilled.total_bytes("metadata") == ram.total_bytes("metadata")
    assert spilled.total_bytes("never-seen") == ram.total_bytes("never-seen")
    assert spilled.bytes_per_step() == ram.bytes_per_step()
    assert spilled.bytes_per_step("data") == ram.bytes_per_step("data")
    assert spilled.steps() == ram.steps()
    assert spilled.levels() == ram.levels()
    for step in [None] + ram.steps()[:3]:
        assert spilled.bytes_per_level(step=step) == ram.bytes_per_level(step=step)
        assert spilled.file_count(step=step) == ram.file_count(step=step)
    assert np.array_equal(spilled.bytes_per_rank(), ram.bytes_per_rank())
    assert np.array_equal(
        spilled.bytes_per_rank(step=1, level=0, nprocs=nprocs, kind="data"),
        ram.bytes_per_rank(step=1, level=0, nprocs=nprocs, kind="data"),
    )
    assert spilled.bytes_step_level_rank() == ram.bytes_step_level_rank()
    sa, sb = spilled.cumulative_bytes_by_step(), ram.cumulative_bytes_by_step()
    assert np.array_equal(sa[0], sb[0])
    assert np.array_equal(sa[1], sb[1])
    ca, cb = spilled.columns(), ram.columns()
    for name in ("step", "level", "rank", "nbytes", "kind", "path"):
        assert np.array_equal(getattr(ca, name), getattr(cb, name)), name
    assert ca.kinds == cb.kinds and ca.paths == cb.paths
    assert list(spilled) == list(ram)


class TestSpillEquivalence:
    # 3*chunk exactly, one short of a boundary, one past a boundary.
    @pytest.mark.parametrize("n", [1500, 1499, 1501, 499, 500, 501])
    def test_chunk_boundaries_bit_identical(self, n, tmp_path):
        rows = random_rows(n, seed=n)
        ram = fill_looped(IOTrace(), rows)
        spilled = fill_looped(
            IOTrace(spill_dir=tmp_path, chunk_records=500), rows
        )
        assert_equivalent(spilled, ram)
        assert spilled.spilled_chunks == (n // 500 if n >= 500 else 0)
        assert spilled.spilled_records == spilled.spilled_chunks * 500

    def test_batch_and_loop_interleaving(self, tmp_path):
        ram, spilled = IOTrace(), IOTrace(spill_dir=tmp_path, chunk_records=100)
        rng = np.random.default_rng(5)
        for batch in range(8):
            n = int(rng.integers(30, 220))
            rows = random_rows(n, seed=batch)
            for tr in (ram, spilled):
                # half the rows one-by-one, half in one batch call
                half = n // 2
                fill_looped(tr, tuple(c[:half] for c in rows))
                steps, levels, ranks, nbytes, paths, _ = rows
                tr.record_batch(steps[half:], levels[half:], ranks[half:],
                                nbytes[half:], paths[half:])
                tr.record_batch(batch, 0, list(range(4)), 77,
                                "plt/shared.sif", kind="metadata")
        assert_equivalent(spilled, ram)
        assert spilled.spilled_chunks > 0

    def test_reads_between_appends(self, tmp_path):
        """Interleaved queries sync pending rows and keep streaming exact."""
        ram, spilled = IOTrace(), IOTrace(spill_dir=tmp_path, chunk_records=64)
        for i in range(5):
            rows = random_rows(100, seed=i)
            fill_looped(ram, rows)
            fill_looped(spilled, rows)
            assert spilled.total_bytes() == ram.total_bytes()
            assert spilled.bytes_per_step() == ram.bytes_per_step()
        assert_equivalent(spilled, ram)

    def test_spilled_trace_is_picklable(self, tmp_path):
        spilled = fill_looped(
            IOTrace(spill_dir=tmp_path, chunk_records=50), random_rows(180)
        )
        spilled.total_bytes()  # seal everything flushed
        clone = pickle.loads(pickle.dumps(spilled))
        assert_equivalent(clone, spilled)

    def test_len_counts_pending_and_sealed(self, tmp_path):
        tr = IOTrace(spill_dir=tmp_path, chunk_records=10)
        for i in range(25):
            tr.record(0, 0, 0, 1, "p")
            assert len(tr) == i + 1
        tr.total_bytes()
        assert len(tr) == 25
        assert tr.spilled_records == 20

    def test_chunk_records_validation(self, tmp_path):
        with pytest.raises(ValueError):
            IOTrace(spill_dir=tmp_path, chunk_records=0)

    def test_spill_files_are_raw_int64(self, tmp_path):
        tr = IOTrace(spill_dir=tmp_path, chunk_records=8)
        rows = random_rows(16, seed=2)
        fill_looped(tr, rows)
        tr.total_bytes()
        assert tr.spilled_chunks == 2
        nb = np.fromfile(tmp_path / "chunk-000000.nbytes.i64", dtype=np.int64)
        assert np.array_equal(nb, np.asarray(rows[3][:8], dtype=np.int64))


class TestSpillIsolation:
    def test_columns_snapshot_survives_later_seal(self, tmp_path):
        # Sealing shifts the unsealed tail down inside the live arrays; a
        # snapshot taken before the seal must not see that shift.
        tr = IOTrace(spill_dir=tmp_path, chunk_records=4)
        for i in range(3):
            tr.record(i, 0, 0, 1, "p")
        cols = tr.columns()
        for i in range(3, 6):
            tr.record(i, 0, 0, 1, "p")
        tr.total_bytes()
        assert tr.spilled_chunks == 1
        assert cols.step.tolist() == [0, 1, 2]

    def test_shared_spill_dir_is_refused(self, tmp_path):
        a = IOTrace(spill_dir=tmp_path, chunk_records=2)
        a.record_batch(0, 0, 0, [100, 100], "a")
        assert a.spilled_chunks == 1
        b = IOTrace(spill_dir=tmp_path, chunk_records=2)
        with pytest.raises(FileExistsError, match="chunk-000000"):
            b.record_batch(0, 0, 0, [7, 7], "b")
        assert a.total_bytes() == 200


class TestSpillSanitize:
    def fill_sealed(self, tmp_path):
        tr = IOTrace(spill_dir=tmp_path, chunk_records=32)
        fill_looped(tr, random_rows(100, seed=9))
        tr.total_bytes()  # flush + seal (chunks carry crcs under sanitize)
        assert tr.spilled_chunks == 3
        return tr

    def test_corrupt_chunk_trips_on_read(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        tr = self.fill_sealed(tmp_path)
        path = tmp_path / "chunk-000001.nbytes.i64"
        data = bytearray(path.read_bytes())
        data[8] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(SanitizeError, match="spill chunk drifted"):
            tr.total_bytes()

    def test_lazy_crc_adoption_then_trip(self, tmp_path, monkeypatch):
        # Sealed without the sanitizer: crcs are adopted on the first
        # sanitized read, and drift after that still trips.
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        tr = self.fill_sealed(tmp_path)
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        total = tr.total_bytes()  # adopts on-disk crcs
        path = tmp_path / "chunk-000000.rank.i64"
        data = bytearray(path.read_bytes())
        data[0] ^= 0x01
        path.write_bytes(bytes(data))
        with pytest.raises(SanitizeError, match="spill chunk drifted"):
            tr.bytes_per_rank()
        del total

    def test_clean_spill_passes_under_sanitize(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        rows = random_rows(100, seed=9)
        ram = fill_looped(IOTrace(), rows)
        spilled = fill_looped(IOTrace(spill_dir=tmp_path, chunk_records=32), rows)
        assert_equivalent(spilled, ram)


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


KINDS = ("data", "metadata", "never-seen")


class TestKindFilteredOracle:
    """Kind-filtered aggregations against a plain loop over the input rows.

    Spilled and unspilled traces share one aggregation path, so checking
    one against the other cannot catch a defect in it; the oracle here
    never touches a trace.
    """

    ROWS = random_rows(700, seed=11)

    @pytest.fixture(params=["unspilled", "spilled"])
    def trace(self, request, tmp_path):
        spill_dir = tmp_path if request.param == "spilled" else None
        tr = fill_looped(IOTrace(spill_dir=spill_dir, chunk_records=128), self.ROWS)
        tr.total_bytes()
        assert tr.spilled_chunks == (5 if spill_dir else 0)
        return tr

    def rows(self, step=None, level=None, kind=None):
        for s, l, r, nb, _, k in zip(*self.ROWS):
            if ((step is None or s == step) and (level is None or l == level)
                    and (kind is None or k == kind)):
                yield int(s), int(l), int(r), int(nb)

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
        width = nprocs if nprocs is not None else int(max(self.ROWS[2])) + 1
        want = [0] * width
        for _, _, r, nb in self.rows(step=step, level=level, kind=kind):
            want[r] += nb
        got = trace.bytes_per_rank(step=step, level=level, nprocs=nprocs, kind=kind)
        assert got.dtype == np.int64
        assert got.tolist() == want
