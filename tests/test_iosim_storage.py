"""Tests for the storage performance model, trace, bursts, Summit."""

import numpy as np
import pytest

from repro.iosim.burst import BurstSchedule
from repro.iosim.darshan import IOTrace
from repro.iosim.storage import StorageModel
from repro.parallel.topology import JobTopology
from repro.platform import get_platform

SUMMIT = get_platform("summit")


class TestStorageModel:
    def test_deterministic_write_time(self):
        m = StorageModel(stream_bandwidth=1e9, node_bandwidth=1e12,
                         metadata_latency=1e-3, variability=0.0)
        cost = m.write_time(1_000_000_000)
        assert cost.transfer_seconds == pytest.approx(1.0)
        assert cost.metadata_seconds == pytest.approx(1e-3)
        assert cost.seconds == pytest.approx(1.001)

    def test_node_sharing_slows_streams(self):
        m = StorageModel(stream_bandwidth=1e9, node_bandwidth=2e9,
                         metadata_latency=0.0, variability=0.0)
        solo = m.write_time(1e9, concurrent_on_node=1).seconds
        shared = m.write_time(1e9, concurrent_on_node=4).seconds
        assert shared == pytest.approx(2 * solo)  # 2e9/4 = 0.5e9 < 1e9

    def test_validation(self):
        with pytest.raises(ValueError):
            StorageModel(stream_bandwidth=-1)
        m = StorageModel()
        with pytest.raises(ValueError):
            m.write_time(-5)
        with pytest.raises(ValueError):
            m.write_time(10, concurrent_on_node=0)

    def test_variability_reproducible(self):
        a = StorageModel(variability=0.2, seed=7).write_time(1e6).seconds
        b = StorageModel(variability=0.2, seed=7).write_time(1e6).seconds
        assert a == b

    def test_burst_time_max_of_ranks(self):
        m = StorageModel.ideal()
        # ideal: 1e9 B/s per stream, no metadata; nodes huge
        t = m.burst_time([1e9, 2e9, 5e8], [0, 1, 2])
        assert t == pytest.approx(2.0)

    def test_burst_inactive_ranks_free(self):
        m = StorageModel(stream_bandwidth=1e9, node_bandwidth=1e9,
                         metadata_latency=0.0, variability=0.0)
        # rank 1 writes nothing => doesn't contend on its node
        t = m.burst_time([1e9, 0], [0, 0])
        assert t == pytest.approx(1.0)

    def test_burst_length_mismatch(self):
        with pytest.raises(ValueError):
            StorageModel.ideal().burst_time([1, 2], [0])

    def test_empty_burst(self):
        assert StorageModel.ideal().burst_time([]) == 0.0


class TestIOTrace:
    def test_record_and_aggregate(self):
        tr = IOTrace()
        tr.record(0, 0, 0, 100, "p0/L0/a")
        tr.record(0, 1, 1, 50, "p0/L1/b")
        tr.record(10, 0, 0, 200, "p1/L0/a")
        assert len(tr) == 3
        assert tr.total_bytes() == 350
        assert tr.bytes_per_step() == {0: 150, 10: 200}
        assert tr.bytes_per_level(step=0) == {0: 100, 1: 50}
        assert tr.steps() == [0, 10]
        assert tr.levels() == [0, 1]

    def test_metadata_kind_filter(self):
        tr = IOTrace()
        tr.record(0, -1, 0, 10, "Header", kind="metadata")
        tr.record(0, 0, 0, 90, "data")
        assert tr.total_bytes("metadata") == 10
        assert tr.total_bytes("data") == 90

    def test_bytes_per_rank(self):
        tr = IOTrace()
        tr.record(0, 0, 0, 10, "a")
        tr.record(0, 0, 2, 30, "b")
        vec = tr.bytes_per_rank(nprocs=4)
        assert list(vec) == [10, 0, 30, 0]

    def test_step_level_rank_mapping(self):
        tr = IOTrace()
        tr.record(5, 2, 3, 7, "x")
        tr.record(5, 2, 3, 8, "y")
        assert tr.bytes_step_level_rank() == {(5, 2, 3): 15}

    def test_cumulative_series(self):
        tr = IOTrace()
        tr.record(0, 0, 0, 10, "a")
        tr.record(5, 0, 0, 20, "b")
        steps, cum = tr.cumulative_bytes_by_step()
        assert list(steps) == [0, 5]
        assert list(cum) == [10.0, 30.0]

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            IOTrace().record(0, 0, 0, -1, "bad")

    def test_file_count(self):
        tr = IOTrace()
        tr.record(0, 0, 0, 1, "same")
        tr.record(0, 0, 1, 1, "same")
        tr.record(0, 0, 1, 1, "other")
        assert tr.file_count() == 2

    def test_kind_filters(self):
        tr = IOTrace()
        tr.record(0, -1, 0, 10, "Header", kind="metadata")
        tr.record(0, 0, 1, 90, "d0")
        tr.record(1, 0, 1, 70, "d1")
        assert tr.bytes_per_step(kind="metadata") == {0: 10}
        assert tr.bytes_per_step(kind="data") == {0: 90, 1: 70}
        assert list(tr.bytes_per_rank(kind="data")) == [0, 160]
        assert tr.bytes_per_level(kind="metadata") == {}

    def test_rank_exceeding_nprocs_raises(self):
        tr = IOTrace()
        tr.record(0, 0, 7, 5, "f")
        with pytest.raises(ValueError, match="rank 7"):
            tr.bytes_per_rank(nprocs=4)

    def test_columns_read_only_views(self):
        tr = IOTrace()
        tr.record(0, 0, 0, 10, "a")
        tr.record(1, -1, 0, 3, "H", kind="metadata")
        cols = tr.columns()
        assert list(cols.step) == [0, 1]
        assert list(cols.nbytes) == [10, 3]
        assert cols.kinds[cols.kind[1]] == "metadata"
        assert cols.paths[cols.path[0]] == "a"
        with pytest.raises(ValueError):
            cols.nbytes[0] = 99


class TestBurstSchedule:
    def _sched(self, compute=1.0):
        return BurstSchedule(StorageModel.ideal(), JobTopology(2, 1), compute)

    def test_timeline_accumulates(self):
        s = self._sched(compute=1.0)
        s.add_step(0, [1e9, 1e9])
        ev = s.add_step(1, [1e9, 1e9])
        assert ev.t_start == pytest.approx(2.0)  # 1 compute + 1 io
        assert s.total_seconds == pytest.approx(4.0)
        assert s.io_fraction() == pytest.approx(0.5)

    def test_timeline_array(self):
        s = self._sched(compute=0.5)
        s.add_step(0, [2e9, 0])
        tl = s.timeline()
        assert tl.shape == (1, 3)
        assert tl[0, 1] == pytest.approx(0.5)  # io starts after compute
        assert tl[0, 2] == pytest.approx(2.5)

    def test_wrong_rank_count(self):
        with pytest.raises(ValueError):
            self._sched().add_step(0, [1])

    def test_negative_compute_rejected(self):
        with pytest.raises(ValueError):
            BurstSchedule(StorageModel.ideal(), JobTopology(1, 1), -1.0)


class TestSummit:
    def test_constants(self):
        assert SUMMIT.total_nodes == 4608
        assert SUMMIT.max_fraction_nodes(1 / 9) == 512  # the paper's 1/9

    def test_storage_model_construction(self):
        m = SUMMIT.storage_model()
        assert m.stream_bandwidth > 0

    def test_topology_bounds(self):
        with pytest.raises(ValueError):
            SUMMIT.topology(10_000, 5000)
        topo = SUMMIT.topology(1024, 512)
        assert topo.ranks_per_node == 2
