"""Chaos regression suite: the executor's completion guarantees under
seeded fault injection, and the result store's two on-disk layouts
(one JSONL file, or a sharded multi-writer directory).

Every test drives the real :class:`~repro.campaign.executor.CampaignExecutor`
with ``REPRO_FAULTS`` injection (transient exceptions, worker kills,
hangs, torn/corrupt store writes) and asserts the resilience contract:
every case is accounted for (retried-ok, failed-with-reason, or
poison-quarantined), surviving records are bit-identical to a clean
serial run, and the store stays loadable after crash-signature writes.
"""

import json
import multiprocessing
import os
import time
import warnings
from dataclasses import asdict

import pytest

from repro.campaign import (
    CampaignExecutor,
    ResultStore,
    ShardedResultStore,
    StoreCorruptionWarning,
    StoreFlushWarning,
    StorePersistWarning,
    migrate_to_flat,
    migrate_to_sharded,
    run_campaign,
)
from repro.campaign import store as store_mod
from repro.campaign.records import RunRecord
from repro.campaign.sweep import sweep_cases
from repro.faults import FaultPolicy

ALL_FAULT_KEYS = (
    "REPRO_FAULTS",
    "REPRO_FAULTS_SEED",
    "REPRO_FAULTS_TRANSIENT",
    "REPRO_FAULTS_TRANSIENT_ATTEMPTS",
    "REPRO_FAULTS_SLOW",
    "REPRO_FAULTS_SLOW_S",
    "REPRO_FAULTS_KILL",
    "REPRO_FAULTS_TORN",
    "REPRO_FAULTS_CORRUPT",
)


@pytest.fixture(autouse=True)
def clean_faults_env(monkeypatch):
    """Pin the injection env per test, regardless of the ambient one."""
    for key in ALL_FAULT_KEYS:
        monkeypatch.delenv(key, raising=False)


def small_sweep(n_meshes=2, cfls=(0.3, 0.6)):
    ladder = [(64, 2, 1), (128, 4, 1), (256, 8, 1)][:n_meshes]
    return sweep_cases(mesh_ladder=ladder, cfls=cfls, max_levels=(1,),
                       max_step=20, plot_int=10)


FAST = FaultPolicy(backoff_base=0.001, backoff_max=0.01)


def dumps(record) -> str:
    """Canonical JSON form of a record (tuple/list agnostic) — the
    bit-identity comparison unit."""
    payload = asdict(record) if isinstance(record, RunRecord) else record
    return json.dumps(payload, sort_keys=True)


# ----------------------------------------------------------------------
class TestTransientRetry:
    def test_serial_transient_retried_to_identical_records(self, monkeypatch):
        cases = small_sweep(2)
        clean = run_campaign(cases, jobs=1)
        monkeypatch.setenv("REPRO_FAULTS", "1")
        monkeypatch.setenv("REPRO_FAULTS_TRANSIENT", "1.0")
        chaos = run_campaign(cases, jobs=1, policy=FAST)
        assert not chaos.failures
        assert chaos.records == clean.records
        # every case faulted once on attempt 0 and succeeded on attempt 1
        assert chaos.retries == {c.name: 1 for c in cases}
        assert chaos.n_retries == len(cases)

    def test_retries_exhausted_becomes_failure(self, monkeypatch):
        cases = small_sweep(1)
        monkeypatch.setenv("REPRO_FAULTS", "1")
        monkeypatch.setenv("REPRO_FAULTS_TRANSIENT", "1.0")
        monkeypatch.setenv("REPRO_FAULTS_TRANSIENT_ATTEMPTS", "5")
        policy = FaultPolicy(max_retries=1, backoff_base=0.001)
        chaos = run_campaign(cases, jobs=1, policy=policy)
        assert set(chaos.failures) == {c.name for c in cases}
        assert all("TransientError" in err for err in chaos.failures.values())
        assert chaos.retries == {c.name: 1 for c in cases}

    def test_sweep_wide_retry_budget_caps_recovery(self, monkeypatch):
        cases = small_sweep(1)  # two cases
        monkeypatch.setenv("REPRO_FAULTS", "1")
        monkeypatch.setenv("REPRO_FAULTS_TRANSIENT", "1.0")
        policy = FaultPolicy(retry_budget=1, backoff_base=0.001)
        chaos = run_campaign(cases, jobs=1, policy=policy)
        # one retry allowed sweep-wide: the first faulting case recovers,
        # the second exhausts the budget and fails
        assert chaos.n_retries == 1
        assert len(chaos.failures) == 1
        assert len(chaos.records) == 1

    def test_pool_transient_retry_matches_serial(self, monkeypatch):
        cases = small_sweep(2)
        clean = run_campaign(cases, jobs=1)
        monkeypatch.setenv("REPRO_FAULTS", "1")
        monkeypatch.setenv("REPRO_FAULTS_TRANSIENT", "0.5")
        monkeypatch.setenv("REPRO_FAULTS_SEED", "3")
        chaos = run_campaign(cases, jobs=2, policy=FAST)
        assert not chaos.failures
        assert chaos.records == clean.records
        assert chaos.n_retries > 0  # seed 3 at 50% must select some case
        assert set(chaos.retries) <= {c.name for c in cases}


# ----------------------------------------------------------------------
class TestWorkerDeath:
    def test_killed_worker_recovered_and_records_identical(
            self, monkeypatch, tmp_path):
        cases = small_sweep(2)
        clean = run_campaign(cases, jobs=1)
        victim = cases[1].name
        monkeypatch.setenv("REPRO_FAULTS", "1")
        monkeypatch.setenv("REPRO_FAULTS_KILL", victim)
        store = ResultStore(str(tmp_path / "store.jsonl"))
        chaos = run_campaign(cases, jobs=2, store=store, policy=FAST)
        # every case accounted for: the killed case re-ran on the fresh
        # pool, innocents that broke with it were requeued
        assert not chaos.failures
        assert chaos.records == clean.records
        assert chaos.requeues.get(victim, 0) >= 1
        assert not chaos.quarantined
        # ...and every record was persisted despite the pool death
        reloaded = ResultStore(str(tmp_path / "store.jsonl"))
        assert len(reloaded) == len(cases)
        assert run_campaign(cases, jobs=1, store=reloaded).n_executed == 0

    def test_poison_case_quarantined_not_fatal(self, monkeypatch):
        cases = small_sweep(2)
        clean = run_campaign(cases, jobs=1)
        poison = cases[0].name
        monkeypatch.setenv("REPRO_FAULTS", "1")
        monkeypatch.setenv("REPRO_FAULTS_KILL", f"{poison}:99")
        chaos = run_campaign(cases, jobs=2, policy=FAST)
        # two strikes: the case that kills its worker on every attempt is
        # quarantined as poison instead of breaking the pool forever
        assert chaos.quarantined == [poison]
        assert "poison" in chaos.failures[poison]
        assert set(chaos.failures) == {poison}
        survivors = {r.name: r for r in chaos.records}
        for record in clean.records:
            if record.name != poison:
                assert survivors[record.name] == record


# ----------------------------------------------------------------------
class TestHungWorker:
    def test_heartbeat_reclaims_hung_worker(self, monkeypatch):
        cases = small_sweep(2)
        clean = run_campaign(cases, jobs=1)
        laggard = cases[0].name
        monkeypatch.setenv("REPRO_FAULTS", "1")
        monkeypatch.setenv("REPRO_FAULTS_SLOW", laggard)
        monkeypatch.setenv("REPRO_FAULTS_SLOW_S", "30")
        ex = CampaignExecutor(max_workers=2, heartbeat=1.0, policy=FAST)
        t0 = time.monotonic()
        chaos = ex.run(cases)
        # the sweep must not wait out the 30s sleep: the hung worker is
        # killed at the heartbeat deadline and the case recorded
        assert time.monotonic() - t0 < 20.0
        assert set(chaos.failures) == {laggard}
        assert "heartbeat" in chaos.failures[laggard]
        survivors = {r.name: r for r in chaos.records}
        for record in clean.records:
            if record.name != laggard:
                assert survivors[record.name] == record

    def test_injected_slow_case_trips_sigalrm_timeout(self, monkeypatch):
        cases = small_sweep(1)
        laggard = cases[0].name
        monkeypatch.setenv("REPRO_FAULTS", "1")
        monkeypatch.setenv("REPRO_FAULTS_SLOW", laggard)
        monkeypatch.setenv("REPRO_FAULTS_SLOW_S", "30")
        chaos = run_campaign(cases, jobs=1, timeout=0.3)
        assert "timed out" in chaos.failures[laggard]
        assert set(chaos.failures) == {laggard}

    def test_effective_heartbeat_derivation(self):
        assert CampaignExecutor(heartbeat=7.0).effective_heartbeat == 7.0
        assert CampaignExecutor(timeout=10.0).effective_heartbeat == 35.0
        assert CampaignExecutor().effective_heartbeat is None
        with pytest.raises(ValueError, match="heartbeat"):
            CampaignExecutor(heartbeat=0.0)


# ----------------------------------------------------------------------
class TestStoreFaults:
    def test_torn_write_blast_radius_is_one_record(self, monkeypatch, tmp_path):
        path = str(tmp_path / "store.jsonl")
        cases = small_sweep(2)
        torn = cases[1].name
        monkeypatch.setenv("REPRO_FAULTS", "1")
        monkeypatch.setenv("REPRO_FAULTS_TORN", torn)
        chaos = run_campaign(cases, jobs=1, store=ResultStore(path))
        assert not chaos.failures  # the record itself still came back
        monkeypatch.delenv("REPRO_FAULTS")
        with pytest.warns(StoreCorruptionWarning):
            reloaded = ResultStore(path)
        assert len(reloaded) == len(cases) - 1  # exactly the torn entry lost
        resumed = run_campaign(cases, jobs=1, store=reloaded)
        assert resumed.n_executed == 1  # only the torn case re-runs
        assert set(resumed.cached) == {c.name for c in cases} - {torn}

    def test_corrupt_trailing_line_skipped_entry_intact(
            self, monkeypatch, tmp_path):
        path = str(tmp_path / "store.jsonl")
        cases = small_sweep(1)
        monkeypatch.setenv("REPRO_FAULTS", "1")
        monkeypatch.setenv("REPRO_FAULTS_CORRUPT", cases[0].name)
        run_campaign(cases, jobs=1, store=ResultStore(path))
        monkeypatch.delenv("REPRO_FAULTS")
        with pytest.warns(StoreCorruptionWarning):
            reloaded = ResultStore(path)
        # the garbage line followed the put; the entry itself is intact
        assert len(reloaded) == len(cases)
        assert run_campaign(cases, jobs=1, store=reloaded).n_executed == 0

    def test_failed_put_warns_and_counts(self, tmp_path):
        class BrokenStore(ResultStore):
            def put(self, key, record, seconds=0.0):
                raise RuntimeError("disk on fire")

        cases = small_sweep(1)
        store = BrokenStore(str(tmp_path / "store.jsonl"))
        with pytest.warns(StorePersistWarning):
            result = run_campaign(cases, jobs=1, store=store)
        # the sweep still returns every record; the persist failure is
        # counted so callers can detect the partially-persisted sweep
        assert len(result.records) == len(cases)
        assert result.failed_puts == [c.name for c in cases]

    def test_flush_barrier_timeout_is_reported(self, monkeypatch, tmp_path):
        from repro.campaign import executor as executor_mod

        class GlacialStore(ResultStore):
            def put(self, key, record, seconds=0.0):
                time.sleep(0.4)
                super().put(key, record, seconds)

        cases = small_sweep(1)
        monkeypatch.setenv("REPRO_FAULTS", "1")  # zero rates: forces the pool
        monkeypatch.setattr(executor_mod, "_FLUSH_TIMEOUT_S", 0.05)
        store = GlacialStore(str(tmp_path / "store.jsonl"))
        with pytest.warns(StoreFlushWarning, match="flush barrier"):
            result = run_campaign(cases, jobs=2, store=store, policy=FAST)
        assert len(result.records) == len(cases)
        assert result.unflushed  # the named cases whose puts were unproven
        assert set(result.unflushed) <= {c.name for c in cases}


# ----------------------------------------------------------------------
def _mk_record(name: str) -> RunRecord:
    """A minimal synthetic record for store-level tests."""
    return RunRecord(
        name=name, n_cell=(8, 8), max_level=0, max_step=1, plot_int=1,
        cfl=0.5, nprocs=1, nnodes=1, engine="workload", steps=[1],
        times=[0.0], step_bytes=[64], level_bytes={"0": [64]},
        task_bytes_last=[64], cells_per_level_last=[64], final_time=0.0,
    )


def _shard_writer(root: str, proc_idx: int, n: int) -> None:
    """Child-process body: append ``n`` entries to a shared shard root."""
    store = ShardedResultStore(root)
    for i in range(n):
        store.put(f"key-{proc_idx}-{i:04d}", _mk_record(f"case-{proc_idx}-{i}"))


class TestShardedStore:
    def test_roundtrip_and_cache_hits(self, tmp_path):
        cases = small_sweep(2)
        store = ShardedResultStore(str(tmp_path / "shards"))
        cold = run_campaign(cases, jobs=1, store=store)
        assert cold.n_executed == len(cases)
        warm = run_campaign(cases, jobs=1,
                            store=ShardedResultStore(str(tmp_path / "shards")))
        assert warm.n_executed == 0
        assert warm.records == cold.records

    def test_meta_pins_shard_count(self, tmp_path):
        root = str(tmp_path / "shards")
        first = ShardedResultStore(root, nshards=4)
        assert first.nshards == 4
        assert ShardedResultStore(root, nshards=32).nshards == 4  # pin wins
        with pytest.raises(ValueError, match="nshards"):
            ShardedResultStore(str(tmp_path / "other"), nshards=0)

    def test_keys_spread_across_shard_files(self, tmp_path):
        store = ShardedResultStore(str(tmp_path / "shards"), nshards=8)
        for i in range(64):
            store.put(f"key-{i:04d}", _mk_record(f"case-{i}"))
        files = [f for f in os.listdir(store.root) if f.startswith("shard-")]
        assert len(files) > 1  # crc32 actually spreads the keyspace
        assert len(ShardedResultStore(store.root)) == 64

    def test_refresh_ingests_other_writers_incrementally(self, tmp_path):
        root = str(tmp_path / "shards")
        a = ShardedResultStore(root)
        b = ShardedResultStore(root)
        a.put("k1", _mk_record("one"))
        assert "k1" not in b  # B hasn't polled yet
        assert b.refresh() == 1
        assert b.get("k1").name == "one"
        assert b.refresh() == 0  # nothing new: offsets advanced

    def test_compaction_preserves_and_resets_offsets(self, tmp_path):
        root = str(tmp_path / "shards")
        store = ShardedResultStore(root)
        for i in range(10):
            store.put(f"key-{i}", _mk_record(f"case-{i}"))
        assert store.invalidate("key-3")
        assert not store.invalidate("key-3")
        assert store.refresh() == 0  # compaction must not re-ingest itself
        reopened = ShardedResultStore(root)
        assert len(reopened) == 9 and "key-3" not in reopened

    def test_reader_survives_compaction_under_it(self, tmp_path):
        root = str(tmp_path / "shards")
        a = ShardedResultStore(root, nshards=1)  # one shard: truncation certain
        b = ShardedResultStore(root)
        for i in range(5):
            a.put(f"key-{i}", _mk_record(f"case-{i}"))
        b.refresh()
        a.invalidate("key-0")  # compacts: shard shrinks under B's offset
        b.refresh()
        assert set(b.keys()) >= {f"key-{i}" for i in range(1, 5)}

    def test_torn_shard_line_skipped_with_warning(self, tmp_path):
        root = str(tmp_path / "shards")
        store = ShardedResultStore(root, nshards=1)
        store.put("good", _mk_record("good"))
        with open(store.shard_path(0), "ab") as fh:
            fh.write(b'{"key": "dead", "record": {"na\n')  # crashed writer
        with pytest.warns(StoreCorruptionWarning):
            reloaded = ShardedResultStore(root)
        assert reloaded.keys() == ["good"]

    def test_trailing_fragment_stays_pending(self, tmp_path):
        root = str(tmp_path / "shards")
        store = ShardedResultStore(root, nshards=1)
        store.put("good", _mk_record("good"))
        with open(store.shard_path(0), "ab") as fh:
            fh.write(b'{"key": "half')  # no newline: a writer died mid-line
        # writers lock whole lines, so a fragment pending after the
        # locked open read is reported as torn, and stays buffered
        with pytest.warns(StoreCorruptionWarning, match="interrupted put"):
            fresh = ShardedResultStore(root)
        assert fresh.keys() == ["good"]  # fragment buffered, not an entry

    def test_concurrent_multiprocess_writers(self, tmp_path):
        root = str(tmp_path / "shards")
        ctx = multiprocessing.get_context("fork")
        procs = [ctx.Process(target=_shard_writer, args=(root, p, 25))
                 for p in range(3)]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=60)
            assert p.exitcode == 0
        with warnings.catch_warnings():
            warnings.simplefilter("error", StoreCorruptionWarning)
            merged = ShardedResultStore(root)  # no torn/corrupt lines
        assert len(merged) == 75

    def test_migration_roundtrip_preserves_all_versions(self, tmp_path):
        flat = str(tmp_path / "flat.jsonl")
        foreign = ResultStore(flat, code_version="0.0.0-other")
        foreign.put("foreign-key", _mk_record("foreign"))
        store = ResultStore(flat)
        for i in range(6):
            store.put(f"key-{i}", _mk_record(f"case-{i}"))

        root = str(tmp_path / "shards")
        sharded = migrate_to_sharded(flat, root)
        assert sorted(sharded.keys()) == sorted(store.keys())
        with pytest.raises(ValueError, match="already holds"):
            migrate_to_sharded(flat, root)  # refuses a non-empty target

        back = str(tmp_path / "back.jsonl")
        flat2 = migrate_to_flat(root, back)
        assert sorted(flat2.keys()) == sorted(store.keys())
        for key in store.keys():
            assert dumps(flat2.get(key)) == dumps(store.get(key))
        # the other code version's entry survived both conversions
        assert ResultStore(back, code_version="0.0.0-other").keys() == ["foreign-key"]


# a ``.jsonl`` path is a single file; a path without the suffix a shard
# directory
LAYOUTS = ["store.jsonl", "shards"]


class TestStoreLayouts:
    """The one ``ResultStore`` over both layouts: the layout rule, and
    the writer and reader guarantees the layouts share."""

    @pytest.mark.parametrize("name,existing,is_dir,nshards", [
        ("x.jsonl", None, False, 1),  # a new *.jsonl path: a single file
        ("x", None, True, 8),  # a new suffix-less path: a shard directory
        ("x", "file", False, 1),  # an existing file, whatever its name
        ("x.jsonl", "dir", True, 4),  # an existing directory; its pin wins
    ])
    def test_layout_comes_from_the_path(self, tmp_path, name, existing,
                                        is_dir, nshards):
        path = str(tmp_path / name)
        if existing == "file":
            seed = str(tmp_path / "seed.jsonl")
            ResultStore(seed).put("old", _mk_record("old"))
            os.rename(seed, path)
        elif existing == "dir":
            os.makedirs(path)
            ResultStore(path, nshards=4).put("old", _mk_record("old"))
        store = ResultStore(path, nshards=8)
        store.put("new", _mk_record("new"))
        assert os.path.isdir(path) == is_dir
        assert os.path.exists(os.path.join(path, "_meta.json")) == is_dir
        assert store.nshards == nshards
        expected = ["new"] if existing is None else ["new", "old"]
        assert sorted(ResultStore(path).keys()) == expected

    def test_directory_created_while_the_layout_is_chosen(self, tmp_path,
                                                          monkeypatch):
        """Another process creates the new shard directory right after
        this opener first looks at the path."""
        path = str(tmp_path / "shards")
        real_stat = os.stat
        looked = []

        def racing_stat(target, *args, **kwargs):
            if os.fspath(target) != path or looked:
                return real_stat(target, *args, **kwargs)
            looked.append(target)
            try:
                return real_stat(target, *args, **kwargs)
            finally:
                os.makedirs(path)  # the other process's makedirs lands

        monkeypatch.setattr(os, "stat", racing_stat)
        store = ResultStore(path)
        monkeypatch.undo()
        assert looked
        store.put("k", _mk_record("k"))
        assert store.root == os.path.abspath(path)
        assert ResultStore(path).keys() == ["k"]

    @pytest.mark.parametrize("fault", ["short-write", "fsync-error"])
    @pytest.mark.parametrize("name", LAYOUTS)
    def test_failed_append_is_rolled_back_and_raised(
            self, tmp_path, monkeypatch, name, fault):
        path = str(tmp_path / name)
        store = ResultStore(path, nshards=1)
        store.put("k0", _mk_record("k0"))
        real_write = os.write

        def short_write(fd, data):
            return real_write(fd, data[: len(data) // 2])

        def failing_fsync(fd):
            raise OSError("injected fsync failure")

        with monkeypatch.context() as patch:
            if fault == "short-write":
                patch.setattr(store_mod.os, "write", short_write)
            else:
                patch.setattr(store_mod.os, "fsync", failing_fsync)
            with pytest.raises(OSError, match="rolled back"):
                store.put("k1", _mk_record("k1"))
        assert "k1" not in store  # a failed put indexes nothing
        store.put("k2", _mk_record("k2"))  # not swallowed by a fragment
        with warnings.catch_warnings():
            warnings.simplefilter("error", StoreCorruptionWarning)
            reloaded = ResultStore(path)
        assert sorted(reloaded.keys()) == ["k0", "k2"]

    @pytest.mark.parametrize("name", LAYOUTS)
    def test_dead_writer_fragment_does_not_swallow_next_put(self, tmp_path,
                                                           name):
        path = str(tmp_path / name)
        store = ResultStore(path, nshards=1)
        store.put("good", _mk_record("good"))
        # another writer died mid-line: a fragment with no newline
        with open(store.shard_path(0), "ab") as fh:
            fh.write(b'{"key": "half')
        store.put("next", _mk_record("next"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            reloaded = ResultStore(path)
        assert sorted(reloaded.keys()) == ["good", "next"]
        corrupt = [w for w in caught
                   if issubclass(w.category, StoreCorruptionWarning)]
        assert len(corrupt) == 1  # the fragment alone is lost

    @pytest.mark.parametrize("name", LAYOUTS)
    def test_put_between_probe_and_lock_is_read_once(
            self, tmp_path, monkeypatch, name):
        path = str(tmp_path / name)
        reader = ResultStore(path, nshards=1)
        writer = ResultStore(path)
        writer.put("k0", _mk_record("k0"))
        real_flock = store_mod._flock
        landed = []

        def put_then_flock(fd, lock_path, op):
            if op == store_mod.fcntl.LOCK_SH and not landed:
                # after the reader's stat probe, before its lock
                landed.append(lock_path)
                writer.put("k1", _mk_record("k1"))
            real_flock(fd, lock_path, op)

        monkeypatch.setattr(store_mod, "_flock", put_then_flock)
        assert reader.refresh() == 2
        assert landed
        assert reader.refresh() == 0

    @pytest.mark.parametrize("name", LAYOUTS)
    def test_compaction_then_growth_is_reread(self, tmp_path, name):
        path = str(tmp_path / name)
        writer = ResultStore(path, nshards=1)
        for i in range(3):
            writer.put(f"k{i}", _mk_record(f"k{i}"))
        reader = ResultStore(path)
        writer.invalidate("k0")  # the file is replaced, shorter...
        for i in range(3, 6):  # ...then grows past the reader's offset
            writer.put(f"k{i}", _mk_record(f"k{i}"))
        with warnings.catch_warnings():
            warnings.simplefilter("error", StoreCorruptionWarning)
            reader.refresh()
        assert sorted(reader.keys()) == sorted(writer.keys())


# ----------------------------------------------------------------------
def _partition_sweep():
    return small_sweep(3, cfls=(0.3, 0.5, 0.6))  # 9 cases


def _chaos_child(root: str, lo: int, hi: int, out_path: str, env: dict) -> None:
    """One of N independent executor processes sharing a store root."""
    os.environ.update(env)
    cases = _partition_sweep()[lo:hi]
    store = ShardedResultStore(root)
    result = run_campaign(cases, jobs=2, store=store,
                          policy=FaultPolicy(backoff_base=0.001))
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({
            "records": [asdict(r) for r in result.records],
            "failures": result.failures,
            "retries": result.retries,
            "requeues": result.requeues,
        }, fh)


class TestSharedSweepUnderChaos:
    """The acceptance gate in miniature (full scale: bench_chaos.py): a
    sweep partitioned across two executor processes sharing one sharded
    store, with transient faults, a worker kill, and a torn write."""

    def test_two_executor_processes_share_store_under_faults(self, tmp_path):
        cases = _partition_sweep()
        clean = run_campaign(cases, jobs=1)
        baseline = {r.name: dumps(r) for r in clean.records}

        root = str(tmp_path / "shards")
        env = {
            "REPRO_FAULTS": "1",
            "REPRO_FAULTS_SEED": "42",
            "REPRO_FAULTS_TRANSIENT": "0.3",
            "REPRO_FAULTS_KILL": cases[2].name,
            "REPRO_FAULTS_TORN": cases[6].name,
        }
        outs = [str(tmp_path / f"child{i}.json") for i in range(2)]
        ctx = multiprocessing.get_context("fork")
        half = len(cases) // 2
        procs = [
            ctx.Process(target=_chaos_child, args=(root, 0, half, outs[0], env)),
            ctx.Process(target=_chaos_child,
                        args=(root, half, len(cases), outs[1], env)),
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=120)
            assert p.exitcode == 0

        merged_records = {}
        failures = {}
        for out in outs:
            with open(out, encoding="utf-8") as fh:
                payload = json.load(fh)
            for rec in payload["records"]:
                merged_records[rec["name"]] = dumps(rec)
            failures.update(payload["failures"])

        # every case accounted for, none failed, survivors bit-identical
        assert not failures
        assert set(merged_records) == {c.name for c in cases}
        assert merged_records == baseline

        # the shared store holds everything except the torn write, and a
        # fresh reader is told about the torn line rather than misled
        with pytest.warns(StoreCorruptionWarning):
            store = ShardedResultStore(root)
        assert len(store) == len(cases) - 1
        resumed = run_campaign(cases, jobs=1, store=store)
        assert resumed.n_executed == 1  # only the torn case re-runs
