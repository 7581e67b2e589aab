"""Serving-layer chaos suite: deadlines, backpressure, the store
circuit breaker, and crash-safe warm-cache snapshots.

The contract under test (``docs/SERVICE.md``): every fault surfaces as a
**named per-index response** — ``DeadlineExceeded``, ``ServiceOverloaded``,
a ``degraded`` predict-only answer — never a batch failure; a torn or
corrupt snapshot cold-starts with a named warning; and a serve stream
killed mid-flight and resumed from its snapshot produces **byte-identical**
output to an uninterrupted run (the 10^4-request gate at the bottom).
"""

import json
import os
import subprocess
import sys
import warnings

import pytest

from repro.campaign import store as store_mod
from repro.campaign.cases import CASE_REGISTRY
from repro.campaign.runner import run_campaign
from repro.campaign.store import ResultStore, StoreCorruptionWarning
from repro.cli import serve_main
from repro.service import (
    Deadline,
    DeadlineExceeded,
    PredictionService,
    PredictRequest,
    LookupRequest,
    SnapshotCorruptionWarning,
    SnapshotManager,
    StoreCircuitBreaker,
    load_snapshot,
    response_to_dict,
    save_snapshot,
    serve_lines,
)

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

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
    "REPRO_FAULTS_STORE_SLOW",
    "REPRO_FAULTS_SNAPSHOT_TORN",
)


@pytest.fixture(autouse=True)
def clean_faults_env(monkeypatch):
    """Pin the injection env per test, regardless of the ambient one."""
    for key in ALL_FAULT_KEYS:
        monkeypatch.delenv(key, raising=False)


class FakeClock:
    """A manually-advanced monotonic clock (no wall-clock sleeps)."""

    def __init__(self, step=0.0):
        self.t = 0.0
        self.step = step  # auto-advance per reading

    def __call__(self):
        now = self.t
        self.t += self.step
        return now

    def advance(self, dt):
        self.t += dt


def _warm(path):
    run_campaign([CASE_REGISTRY["case4"]], store=ResultStore(str(path)))
    return str(path)


@pytest.fixture
def warm_store(tmp_path):
    """A flat store holding one finished campaign case (case4)."""
    return _warm(tmp_path / "store.jsonl")


# ----------------------------------------------------------------------
class TestDeadlines:
    def test_batch_deadline_expires_mid_batch_per_index(self):
        # the clock advances 0.3s per reading: with a 1.0s budget the
        # first requests answer and the tail expires — per index, the
        # batch itself never fails
        clock = FakeClock(step=0.3)
        service = PredictionService()
        reqs = [PredictRequest(scenario="case4", nprocs=2 ** i, steps=10)
                for i in range(8)]
        responses = service.predict_many(
            reqs, deadline=Deadline(1.0, clock=clock))
        assert len(responses) == len(reqs)
        assert responses[0].ok
        expired = [r for r in responses if not r.ok]
        assert expired, "the advancing clock must expire the tail"
        for r in expired:
            assert r.error.startswith("DeadlineExceeded:")
        assert service.n_deadline == len(expired)
        # expiry is monotonic: once expired, every later index expired
        oks = [r.ok for r in responses]
        assert oks == sorted(oks, reverse=True)

    def test_per_request_budget_of_zero_expires_every_computed_request(self):
        service = PredictionService()
        reqs = [PredictRequest(scenario="case4", nprocs=2 ** i, steps=10)
                for i in range(3)]
        responses = service.predict_many(reqs, per_request_s=0.0)
        assert [r.ok for r in responses] == [False] * 3
        assert all(r.error.startswith("DeadlineExceeded:") for r in responses)
        assert service.n_deadline == 3

    def test_cached_hits_never_exhaust_the_request_budget(self):
        # the request budget bounds *work*; an LRU hit does none, so a
        # warm repeat answers even under a zero budget
        service = PredictionService()
        req = PredictRequest(scenario="case4", steps=10)
        assert service.predict_many([req])[0].ok  # warm it up
        resp = service.predict_many([req], per_request_s=0.0)[0]
        assert resp.ok and resp.cached

    def test_unbounded_deadline_never_expires(self):
        d = Deadline()
        assert d.remaining() == float("inf")
        d.check("anything")  # no raise
        assert not d.expired()

    def test_lookup_batch_deadline_zero_expires_per_index(self, warm_store):
        service = PredictionService(store=ResultStore(warm_store))
        responses = service.lookup_many(
            [LookupRequest("case4")] * 3, deadline=0.0)
        assert len(responses) == 3
        assert all(not r.ok for r in responses)
        assert all(r.error.startswith("DeadlineExceeded:") for r in responses)

    def test_shared_deadline_spans_predict_and_lookup_phases(self, warm_store):
        # one Deadline object threaded through both phases keeps one
        # budget for the whole batch (the serve_lines contract)
        clock = FakeClock()
        service = PredictionService(store=ResultStore(warm_store))
        shared = Deadline(1.0, clock=clock)
        assert service.predict_many(
            [PredictRequest("case4", steps=10)], deadline=shared)[0].ok
        clock.advance(2.0)  # budget gone before the lookup phase
        resp = service.lookup_many([LookupRequest("case4")],
                                   deadline=shared)[0]
        assert not resp.ok and resp.error.startswith("DeadlineExceeded:")

    def test_deadline_rejects_negative_budget(self):
        with pytest.raises(ValueError):
            Deadline(-1.0)


# ----------------------------------------------------------------------
class TestBackpressure:
    def test_over_capacity_requests_shed_with_named_error(self):
        service = PredictionService()
        lines = [json.dumps({"scenario": "case4", "nprocs": 2 ** i,
                             "steps": 10}) for i in range(6)]
        out, report = serve_lines(service, lines, max_queue=4)
        responses = [json.loads(line) for line in out]
        assert len(responses) == 6
        assert all(r["ok"] for r in responses[:4])
        for payload in responses[4:]:
            assert not payload["ok"] and payload["shed"]
            assert payload["error"].startswith("ServiceOverloaded:")
        assert report.n_shed == 2 and report.n_errors == 2
        assert service.n_shed == 2
        assert service.stats()["shed"] == 2

    def test_under_capacity_sheds_nothing(self):
        service = PredictionService()
        lines = [json.dumps({"scenario": "case4", "steps": 10})] * 3
        out, report = serve_lines(service, lines, max_queue=3)
        responses = [json.loads(line) for line in out]
        assert report.n_shed == 0
        assert all(r["ok"] for r in responses)


# ----------------------------------------------------------------------
class TestCircuitBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        clock = FakeClock()
        br = StoreCircuitBreaker(threshold=3, clock=clock)
        br.record_failure()
        br.record_failure()
        assert br.state == br.CLOSED and br.allow()
        br.record_failure()
        assert br.state == br.OPEN
        assert not br.allow()
        assert br.retry_in() > 0.0

    def test_success_resets_the_consecutive_count(self):
        br = StoreCircuitBreaker(threshold=2)
        br.record_failure()
        br.record_success()
        br.record_failure()
        assert br.state == br.CLOSED  # never two *consecutive* failures

    def test_half_open_probe_success_closes(self):
        clock = FakeClock()
        br = StoreCircuitBreaker(threshold=1, clock=clock)
        br.record_failure()
        assert br.state == br.OPEN and not br.allow()
        clock.advance(br.retry_in() + 0.001)
        assert br.allow()  # the half-open probe
        assert br.state == br.HALF_OPEN and br.n_probes == 1
        br.record_success()
        assert br.state == br.CLOSED and br.allow()

    def test_failed_probe_reopens_with_longer_backoff(self):
        clock = FakeClock()
        br = StoreCircuitBreaker(threshold=1, clock=clock)
        br.record_failure()
        first_backoff = br.retry_in()
        clock.advance(first_backoff + 0.001)
        assert br.allow()
        br.record_failure()  # the probe itself faulted
        assert br.state == br.OPEN and br.n_opens == 2
        assert br.retry_in() > first_backoff  # exponential schedule

    def test_stats_shape(self):
        stats = StoreCircuitBreaker(threshold=4).stats()
        assert stats["state"] == "closed" and stats["threshold"] == 4
        assert {"consecutive_failures", "opens", "probes",
                "retry_in_s"} <= set(stats)

    def test_rejects_nonpositive_threshold(self):
        with pytest.raises(ValueError):
            StoreCircuitBreaker(threshold=0)


# ----------------------------------------------------------------------
class TestDegradedLookups:
    def test_injected_slow_read_degrades_and_trips_breaker(
            self, warm_store, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "1")
        monkeypatch.setenv("REPRO_FAULTS_STORE_SLOW", "case4")
        monkeypatch.setenv("REPRO_FAULTS_SLOW_S", "0.001")
        service = PredictionService(
            store=ResultStore(warm_store),
            breaker=StoreCircuitBreaker(threshold=1))
        resp = service.lookup_many([LookupRequest("case4")])[0]
        assert resp.ok and resp.degraded and not resp.hit
        assert resp.record is None and resp.prediction is not None
        assert service.breaker.state == service.breaker.OPEN
        assert service.n_degraded == 1
        # while open, the next lookup degrades without touching the store
        resp2 = service.lookup_many([LookupRequest("case4")])[0]
        assert resp2.ok and resp2.degraded
        assert service.n_degraded == 2
        assert service.stats()["breaker"]["state"] == "open"

    def test_store_timeout_degrades_and_trips_breaker(
            self, warm_store, monkeypatch):
        service = PredictionService(
            store=ResultStore(warm_store),
            breaker=StoreCircuitBreaker(threshold=1))
        monkeypatch.setattr(
            service.store, "get_labeled",
            lambda *a, **k: (_ for _ in ()).throw(
                TimeoutError("store lock stuck")))
        resp = service.lookup_many([LookupRequest("case4")])[0]
        assert resp.ok and resp.degraded and not resp.hit
        assert service.breaker.state == service.breaker.OPEN

    def test_corrupt_refresh_counts_as_store_fault_and_warns(
            self, warm_store):
        service = PredictionService(
            store=ResultStore(warm_store),
            breaker=StoreCircuitBreaker(threshold=1))
        with open(warm_store, "a", encoding="utf-8") as fh:
            fh.write("{this is not json}\n")
        with pytest.warns(StoreCorruptionWarning):
            responses = service.lookup_many([LookupRequest("case4")])
        # the refresh fault opened the threshold-1 breaker before the
        # loop, so the lookup came back degraded — but it *answered*
        assert responses[0].ok and responses[0].degraded
        assert service.breaker.state == service.breaker.OPEN

    def test_degraded_wire_form_flags_the_answer(self, warm_store,
                                                 monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "1")
        monkeypatch.setenv("REPRO_FAULTS_STORE_SLOW", "case4")
        monkeypatch.setenv("REPRO_FAULTS_SLOW_S", "0.001")
        service = PredictionService(
            store=ResultStore(warm_store),
            breaker=StoreCircuitBreaker(threshold=1))
        payload = response_to_dict(
            service.lookup_many([LookupRequest("case4")])[0])
        assert payload["ok"] and payload["degraded"]
        assert not payload["hit"]
        assert payload["total_bytes"] > 0 and payload["n_dumps"] > 0

    def test_breaker_recovery_restores_store_hits(self, warm_store):
        clock = FakeClock()
        service = PredictionService(
            store=ResultStore(warm_store),
            breaker=StoreCircuitBreaker(threshold=1, clock=clock))
        service.breaker.record_failure()  # open it
        assert service.lookup_many([LookupRequest("case4")])[0].degraded
        clock.advance(service.breaker.retry_in() + 0.001)
        resp = service.lookup_many([LookupRequest("case4")])[0]
        assert resp.hit and not resp.degraded  # probe succeeded
        assert service.breaker.state == service.breaker.CLOSED


# ----------------------------------------------------------------------
class TestStoreRefresh:
    @pytest.fixture(params=["store.jsonl", "shards"])
    def warm_store(self, tmp_path, request):
        """The warm store in each on-disk layout: one JSONL file, or (a
        path without the suffix) a shard directory."""
        return _warm(tmp_path / request.param)

    def test_external_put_becomes_servable_after_refresh(self, warm_store):
        service = PredictionService(store=ResultStore(warm_store))
        assert service.lookup_many([LookupRequest("case27")])[0].hit is False
        # a second opener (another process, in real life) finishes case27
        other = ResultStore(warm_store)
        run_campaign([CASE_REGISTRY["case27"]], store=other)
        resp = service.lookup_many([LookupRequest("case27")])[0]
        assert resp.hit and resp.record.name == "case27"

    def test_warm_path_is_stat_only(self, warm_store, monkeypatch):
        store = ResultStore(warm_store)

        def no_open(*args, **kwargs):
            raise AssertionError("a warm refresh() opened a store file")

        # the tail reader opens files through the store module's ``open``
        monkeypatch.setattr(store_mod, "open", no_open, raising=False)
        assert store.refresh() == 0  # just-loaded: nothing new
        assert store.refresh() == 0

    def test_refresh_survives_compaction_by_another_opener(self, warm_store):
        store = ResultStore(warm_store)
        n_before = len(store)
        other = ResultStore(warm_store)
        run_campaign([CASE_REGISTRY["case27"]], store=other)
        # compaction: invalidating the new entry rewrites the file
        # (tmp + os.replace) — the size shrinks back under our cursor
        assert other.invalidate(next(iter(other._entries)))
        store.refresh()  # shrink/mtime change forces a full re-read
        assert len(store) == len(other)

    def test_refresh_on_pathless_store_is_zero(self):
        assert ResultStore(None).refresh() == 0


# ----------------------------------------------------------------------
class TestSnapshots:
    def _warm_service(self, n=6):
        service = PredictionService()
        reqs = [PredictRequest(scenario="case4", nprocs=2 ** i, steps=10)
                for i in range(n)]
        responses = service.predict_many(reqs)
        assert all(r.ok for r in responses)
        return service, reqs, responses

    def test_roundtrip_restores_warm_cache_bit_identical(self, tmp_path):
        service, reqs, responses = self._warm_service()
        path = str(tmp_path / "caches.snap")
        save_snapshot(service, path, served=len(reqs))
        restored = PredictionService()
        info = load_snapshot(restored, path)
        assert info.restored == len(reqs) and info.served == len(reqs)
        again = restored.predict_many(reqs)
        assert all(r.cached for r in again)  # warm, not recomputed
        assert restored.n_predicted == 0
        for a, b in zip(responses, again):
            want = dict(response_to_dict(a), cached=True)
            assert response_to_dict(b) == want

    def test_missing_snapshot_is_a_silent_cold_start(self, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            info = load_snapshot(PredictionService(),
                                 str(tmp_path / "never-written.snap"))
        assert info.restored == 0 and info.served == 0

    def test_torn_snapshot_cold_starts_with_named_warning(
            self, tmp_path, monkeypatch):
        service, _, _ = self._warm_service()
        path = str(tmp_path / "caches.snap")
        monkeypatch.setenv("REPRO_FAULTS", "1")
        monkeypatch.setenv("REPRO_FAULTS_SNAPSHOT_TORN", "caches.snap")
        save_snapshot(service, path, served=6)
        monkeypatch.delenv("REPRO_FAULTS_SNAPSHOT_TORN")
        restored = PredictionService()
        with pytest.warns(SnapshotCorruptionWarning, match="cold"):
            info = load_snapshot(restored, path)
        assert info.restored == 0 and info.served == 0
        assert restored.stats()["predictions"]["size"] == 0

    def test_corrupt_payload_fails_checksum_and_cold_starts(self, tmp_path):
        service, _, _ = self._warm_service()
        path = str(tmp_path / "caches.snap")
        save_snapshot(service, path, served=6)
        blob = bytearray(open(path, "rb").read())
        blob[-3] ^= 0xFF  # flip one payload byte; header stays intact
        open(path, "wb").write(bytes(blob))
        with pytest.warns(SnapshotCorruptionWarning, match="checksum"):
            info = load_snapshot(PredictionService(), path)
        assert info.restored == 0

    def test_truncated_header_cold_starts(self, tmp_path):
        path = str(tmp_path / "caches.snap")
        open(path, "wb").write(b'{"format":1,"chec')
        with pytest.warns(SnapshotCorruptionWarning):
            assert load_snapshot(PredictionService(), path).restored == 0

    def test_manager_save_cadence(self, tmp_path):
        service, _, _ = self._warm_service()
        mgr = SnapshotManager(service, str(tmp_path / "caches.snap"), every=2)
        assert not mgr.maybe_save(served=1)
        assert mgr.maybe_save(served=2)
        assert not mgr.maybe_save(served=3)
        assert mgr.maybe_save(served=4)
        assert mgr.n_saves == 2 and mgr.served == 4

    def test_save_rejects_negative_cursor(self, tmp_path):
        with pytest.raises(ValueError):
            save_snapshot(PredictionService(),
                          str(tmp_path / "x.snap"), served=-1)


# ----------------------------------------------------------------------
class TestServeExitCodes:
    def test_request_errors_exit_nonzero_with_count_on_stderr(
            self, tmp_path, capsys):
        reqs = tmp_path / "requests.jsonl"
        resps = tmp_path / "responses.jsonl"
        reqs.write_text(json.dumps({"scenario": "case4", "steps": 10}) + "\n"
                        + "not json at all\n")
        rc = serve_main(["--requests", str(reqs), "--responses", str(resps)])
        assert rc == 1
        assert "1 request(s) errored" in capsys.readouterr().err
        # the responses still carry both lines — errors are data too
        lines = [json.loads(l) for l in resps.read_text().splitlines()]
        assert len(lines) == 2 and lines[0]["ok"] and not lines[1]["ok"]

    def test_tolerate_errors_flag_restores_exit_zero(self, tmp_path):
        reqs = tmp_path / "requests.jsonl"
        reqs.write_text("not json at all\n")
        rc = serve_main(["--requests", str(reqs),
                         "--responses", str(tmp_path / "r.jsonl"),
                         "--tolerate-errors"])
        assert rc == 0

    def test_clean_stream_exits_zero_without_the_flag(self, tmp_path):
        reqs = tmp_path / "requests.jsonl"
        reqs.write_text(json.dumps({"scenario": "case4", "steps": 10}) + "\n")
        rc = serve_main(["--requests", str(reqs),
                         "--responses", str(tmp_path / "r.jsonl")])
        assert rc == 0


# ----------------------------------------------------------------------
def _serve_subprocess(argv, env_extra, cwd=REPO):
    """Run repro-serve in a child process (kill sites may os._exit)."""
    env = dict(os.environ)
    for key in ALL_FAULT_KEYS:
        env.pop(key, None)
    env.update(env_extra)
    env["PYTHONPATH"] = os.path.join(cwd, "src")
    code = ("import sys; from repro.cli import serve_main; "
            "sys.exit(serve_main(sys.argv[1:]))")
    return subprocess.run([sys.executable, "-c", code] + argv,
                          cwd=cwd, env=env, capture_output=True, text=True)


N_GATE = 10_000
BATCH = 500


def _gate_requests(store_scenarios=("case4",)):
    """The 10^4-request chaos stream: predicts across a parameter grid,
    lookups (some against the fault-named scenario), malformed lines,
    and unknown scenarios — every flavor of outcome the contract names."""
    lines = []
    for i in range(N_GATE):
        kind = i % 10
        if kind < 6:  # predicts over a small grid → warm LRU traffic
            lines.append(json.dumps({
                "scenario": "case4", "nprocs": 2 ** (i % 5 + 1),
                "steps": 10 + (i % 4) * 5}))
        elif kind < 8:  # store lookups; "case27" stays a clean miss
            lines.append(json.dumps({
                "op": "lookup",
                "scenario": store_scenarios[i % len(store_scenarios)]}))
        elif kind == 8:  # slow-injected lookup → deterministic degraded
            lines.append(json.dumps({"op": "lookup", "scenario": "case27"}))
        else:  # malformed request → named per-index error
            lines.append(json.dumps({"scenario": "no-such-scenario"}))
    return "\n".join(lines) + "\n"


class TestKillRestartBitIdentical:
    """The acceptance gate: a 10^4-request replayed stream under
    injected faults completes with zero batch failures and every
    outcome as a named per-index response; killed mid-stream and
    resumed from the snapshot, the output is byte-identical."""

    FAULT_ENV = {
        "REPRO_FAULTS": "1",
        # every case27 lookup stalls 1ms and answers degraded —
        # non-consecutive in the stream, so the default threshold-3
        # breaker never opens and the degradations are deterministic
        "REPRO_FAULTS_STORE_SLOW": "case27",
        "REPRO_FAULTS_SLOW_S": "0.001",
    }

    @pytest.fixture
    def gate(self, tmp_path):
        store = tmp_path / "store.jsonl"
        run_campaign([CASE_REGISTRY["case4"]], store=ResultStore(str(store)))
        reqs = tmp_path / "requests.jsonl"
        reqs.write_text(_gate_requests())
        return tmp_path, str(store), str(reqs)

    def _serve_args(self, store, reqs, responses, snapshot=None,
                    resume=False):
        argv = ["--requests", reqs, "--responses", responses,
                "--store", store, "--batch-size", str(BATCH),
                "--max-queue", str(BATCH - 20),  # sheds 20/batch: named
                "--tolerate-errors"]
        if snapshot:
            argv += ["--snapshot", snapshot]
        if resume:
            argv += ["--resume"]
        return argv

    def _assert_contract(self, responses_path):
        lines = open(responses_path, encoding="utf-8").read().splitlines()
        assert len(lines) == N_GATE  # one response per request, always
        n_err = n_shed = n_degraded = 0
        for i, line in enumerate(lines):
            payload = json.loads(line)  # zero batch failures: all JSON
            assert payload["index"] == i  # global order preserved
            if payload["ok"]:
                n_degraded += payload.get("degraded", False)
            else:
                n_err += 1
                name = payload["error"].split(":")[0]
                assert name.isidentifier(), payload["error"]
                n_shed += payload.get("shed", False)
        assert n_err > 0 and n_shed > 0 and n_degraded > 0
        return lines

    def test_chaos_stream_and_kill_resume_bit_identity(self, gate):
        tmp_path, store, reqs = gate
        # --- the uninterrupted reference run, faults armed ------------
        ref_out = str(tmp_path / "reference.jsonl")
        proc = _serve_subprocess(
            self._serve_args(store, reqs, ref_out), self.FAULT_ENV)
        assert proc.returncode == 0, proc.stderr
        self._assert_contract(ref_out)
        # --- kill mid-stream at a deterministic batch boundary --------
        killed_out = str(tmp_path / "killed.jsonl")
        snap = str(tmp_path / "caches.snap")
        env = dict(self.FAULT_ENV, REPRO_FAULTS_KILL="serve-batch-10:1")
        proc = _serve_subprocess(
            self._serve_args(store, reqs, killed_out, snapshot=snap), env)
        assert proc.returncode == 137  # os._exit(137): a hard SIGKILL
        partial = open(killed_out, encoding="utf-8").read().splitlines()
        assert 0 < len(partial) < N_GATE  # it really died mid-stream
        # --- restart, restore the snapshot, resume the stream ---------
        proc = _serve_subprocess(
            self._serve_args(store, reqs, killed_out, snapshot=snap,
                             resume=True), self.FAULT_ENV)
        assert proc.returncode == 0, proc.stderr
        self._assert_contract(killed_out)
        assert (open(killed_out, "rb").read()
                == open(ref_out, "rb").read())  # bit-identical

    def test_torn_snapshot_resume_falls_back_to_full_cold_replay(self, gate):
        tmp_path, store, reqs = gate
        ref_out = str(tmp_path / "reference.jsonl")
        proc = _serve_subprocess(
            self._serve_args(store, reqs, ref_out), self.FAULT_ENV)
        assert proc.returncode == 0, proc.stderr
        killed_out = str(tmp_path / "killed.jsonl")
        snap = str(tmp_path / "caches.snap")
        env = dict(self.FAULT_ENV,
                   REPRO_FAULTS_KILL="serve-batch-4:1",
                   REPRO_FAULTS_SNAPSHOT_TORN="caches.snap")
        proc = _serve_subprocess(
            self._serve_args(store, reqs, killed_out, snapshot=snap), env)
        assert proc.returncode == 137
        # resume: the torn snapshot cold-starts (named warning on
        # stderr), the cursor is 0, and the whole stream replays —
        # output still byte-identical to the uninterrupted run
        proc = _serve_subprocess(
            self._serve_args(store, reqs, killed_out, snapshot=snap,
                             resume=True), self.FAULT_ENV)
        assert proc.returncode == 0, proc.stderr
        assert "SnapshotCorruptionWarning" in proc.stderr
        assert (open(killed_out, "rb").read()
                == open(ref_out, "rb").read())
