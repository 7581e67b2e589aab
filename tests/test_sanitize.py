"""Runtime sanitizer (``REPRO_SANITIZE=1``): cached buffers freeze at
insert, plan replays verify their checksums, and deliberate corruption
of either trips a loud :class:`SanitizeError` instead of silently
poisoning later answers."""

import numpy as np
import pytest

from repro import sanitize
from repro.amr.box import Box
from repro.amr.boxarray import BoxArray
from repro.amr.distribution import round_robin_map
from repro.amr.geometry import Geometry
from repro.iosim.filesystem import VirtualFileSystem
from repro.plotfile import writer as plotwriter
from repro.plotfile.writer import PlotfileSpec, clear_plan_cache, write_plotfile
from repro.sanitize import SanitizeError, checksum, freeze_payload, frozen
from repro.service.lru import LRUCache
from repro.service.plans import PlatformPlan


@pytest.fixture
def sanitized(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")


@pytest.fixture
def unsanitized(monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)


class TestHelpers:
    def test_enabled_reads_env_live(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert not sanitize.enabled()
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert sanitize.enabled()
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        assert not sanitize.enabled()

    def test_frozen_blocks_writes(self):
        arr = frozen(np.arange(4))
        with pytest.raises(ValueError):
            arr[0] = 9

    def test_freeze_payload_recurses_containers(self):
        a, b, c = np.zeros(2), np.zeros(2), np.zeros(2)
        freeze_payload({"x": a, "nest": [(b,), {"deep": c}]})
        for arr in (a, b, c):
            assert not arr.flags.writeable

    def test_freeze_payload_handles_objects_and_cycles(self):
        class Holder:
            pass

        h = Holder()
        h.arr = np.zeros(3)
        h.me = h  # cycle
        freeze_payload(h)
        assert not h.arr.flags.writeable

    def test_checksum_tracks_content(self):
        plan = [(0, 1, (slice(None), slice(0, 2)), (slice(None), slice(2, 4)))]
        before = checksum(plan)
        assert checksum(plan) == before  # stable
        plan[0] = (1, 0) + plan[0][2:]
        assert checksum(plan) != before

    def test_checksum_sees_array_bytes_and_dtype(self):
        a = np.arange(4, dtype=np.int64)
        b = a.copy()
        assert checksum(a) == checksum(b)
        assert checksum(a) != checksum(a.astype(np.float64))
        b_mut = a.copy()
        b_mut[0] = 7
        assert checksum(a) != checksum(b_mut)

    def test_check_raises_sanitize_error(self):
        sanitize.check(True, "fine")
        with pytest.raises(SanitizeError, match="boom"):
            sanitize.check(False, "boom")

    def test_sanitize_error_is_an_assertion_error(self):
        assert issubclass(SanitizeError, AssertionError)


class TestLRUFreezing:
    def test_put_freezes_ndarray_payloads(self, sanitized):
        cache = LRUCache(maxsize=4)
        arr = np.arange(5.0)
        cache.put("k", {"series": arr})
        with pytest.raises(ValueError):
            arr[0] = -1.0

    def test_cached_buffer_mutation_trips(self, sanitized):
        """The headline case: mutate a buffer fetched from the cache."""
        cache = LRUCache(maxsize=4)
        cache.put("k", np.arange(5.0))
        fetched = cache.get("k")
        with pytest.raises(ValueError):
            fetched += 1.0

    def test_put_leaves_payloads_writable_without_sanitize(self, unsanitized):
        cache = LRUCache(maxsize=4)
        arr = np.arange(5.0)
        cache.put("k", arr)
        arr[0] = -1.0  # fine: sanitizer off
        assert cache.get("k")[0] == -1.0

    def test_eviction_invariant_holds_under_sanitize(self, sanitized):
        cache = LRUCache(maxsize=2)
        for i in range(10):
            cache.put(i, np.full(2, float(i)))
        assert len(cache) == 2 and cache.evictions == 8


def one_level_dump_args(nprocs=3):
    geom = Geometry(Box.cell_centered(16, 16))
    ba = BoxArray([Box((0, 0), (7, 15)), Box((8, 0), (15, 15))])
    dm = round_robin_map(ba, nprocs)
    return [geom], [ba], [dm]


class TestWriterPlanCache:
    def test_cached_level_plan_arrays_are_read_only(self, unsanitized):
        clear_plan_cache()
        geoms, bas, dms = one_level_dump_args()
        spec = PlotfileSpec(prefix="plt", nprocs=3)
        write_plotfile(VirtualFileSystem(), spec, 0, 0.0, geoms, bas, dms)
        (plan,) = plotwriter._PLAN_CACHE.values()
        for name in ("nbytes", "ranks", "sizes", "offsets", "order", "bounds"):
            arr = getattr(plan, name)
            assert not arr.flags.writeable, name

    def test_mutated_dump_plan_trips_on_replay(self, sanitized):
        clear_plan_cache()
        geoms, bas, dms = one_level_dump_args()
        spec = PlotfileSpec(prefix="plt", nprocs=3)
        fs = VirtualFileSystem()
        write_plotfile(fs, spec, 0, 0.0, geoms, bas, dms)
        (plan,) = plotwriter._PLAN_CACHE.values()
        plan.fnames[0] = "Cell_D_99999"  # the arrays are frozen; lists are not
        with pytest.raises(SanitizeError, match="drifted"):
            write_plotfile(fs, spec, 1, 1.0, geoms, bas, dms)
        clear_plan_cache()

    def test_clean_replay_passes_under_sanitize(self, sanitized):
        clear_plan_cache()
        geoms, bas, dms = one_level_dump_args()
        spec = PlotfileSpec(prefix="plt", nprocs=3)
        fs = VirtualFileSystem()
        write_plotfile(fs, spec, 0, 0.0, geoms, bas, dms)
        write_plotfile(fs, spec, 1, 1.0, geoms, bas, dms)
        clear_plan_cache()


class TestPlatformPlanFreezing:
    def test_node_map_is_read_only(self):
        plan = PlatformPlan("summit", nprocs=8)
        assert not plan.node_map.flags.writeable
        with pytest.raises(ValueError):
            plan.node_map[0] = 5


class TestEvenSplitLawCrossCheck:
    STEPS = np.asarray([0.0, 8e9, 8e13])  # idle, fitting, overflowing

    def test_drifted_law_trips_against_burst_time(self, sanitized):
        plan = PlatformPlan("burst-buffer", nprocs=8)
        plan.burst_series(self.STEPS)  # the law and burst_time agree
        plan.law.bandwidth = frozen(plan.law.bandwidth * 2)
        with pytest.raises(SanitizeError, match="timed dump 1 at"):
            plan.burst_series(self.STEPS)

    def test_unsanitized_law_does_not_re_time(self, unsanitized, monkeypatch):
        plan = PlatformPlan("burst-buffer", nprocs=8)
        monkeypatch.setattr(plan.law.storage, "burst_time",
                            lambda *args: pytest.fail("re-timed a dump"))
        assert plan.burst_series(self.STEPS)[0] == 0.0
