"""Wire byte-identity: ``serve_lines``/``serve_stream`` against a frozen
copy of the writer they replaced.

The oracle below is that writer verbatim: ``serve_lines`` built one dict
per request (each engine response re-indexed with ``dataclasses.replace``
and rendered by ``response_to_dict``), and ``serve_stream`` shifted every
``index`` by the batch's stream offset and wrote
``json.dumps(payload, separators=(",", ":")) + "\\n"`` per response.

The serve layer now returns finished, stream-numbered lines and keeps the
encoded text of a ``cached: true`` answer on its prediction-LRU entry.
Every stream here is served twice, by the oracle and by the code under
test, on two identically built services, and the outputs are compared as
raw bytes — evictions, recomputes, invalidations, equal cache keys with
different spellings, every error shape, lookups in every state, shedding,
deadlines, batch sizes, resumes and snapshot restores included.
"""

import dataclasses
import io
import json
from dataclasses import replace
from typing import Dict, IO, Iterable, List, Optional, Tuple, Union

import pytest

from repro import sanitize
from repro.campaign.cases import CASE_REGISTRY
from repro.campaign.runner import run_campaign
from repro.campaign.store import ResultStore
from repro.faults import active as _faults_active
from repro.service import (
    Deadline,
    LookupRequest,
    PredictionService,
    PredictRequest,
    ServeReport,
    SnapshotManager,
    StoreCircuitBreaker,
    request_from_dict,
    response_to_dict,
    serve_lines,
    serve_stream,
)

from test_service_chaos import ALL_FAULT_KEYS, FakeClock


@pytest.fixture(autouse=True)
def clean_faults_env(monkeypatch):
    """No ambient injection: both writers must see the same service."""
    for key in ALL_FAULT_KEYS:
        monkeypatch.delenv(key, raising=False)


# ----------------------------------------------------------------------
# The oracle: the dict-building writer, verbatim.

def oracle_serve_lines(
    service: PredictionService,
    lines: Iterable[str],
    max_queue: Optional[int] = None,
    deadline: Union[None, float, Deadline] = None,
    per_request_s: Optional[float] = None,
) -> Tuple[List[Dict], ServeReport]:
    report = ServeReport()
    deadline = Deadline.of(deadline)
    parsed: List[Tuple[int, str]] = []
    responses: List[Dict] = []
    for line in lines:
        line = line.strip()
        if not line:
            continue
        parsed.append((len(parsed), line))
        responses.append({})
    report.n_requests = len(parsed)
    if max_queue is not None and len(parsed) > max_queue:
        for i, _ in parsed[max_queue:]:
            responses[i] = {
                "index": i, "ok": False, "shed": True,
                "error": f"ServiceOverloaded: admission queue full "
                         f"({len(parsed)} requests > max_queue={max_queue}); "
                         f"request shed",
            }
            report.n_errors += 1
            report.n_shed += 1
            service.n_errors += 1
            service.n_shed += 1
        parsed = parsed[:max_queue]
    predicts: List[Tuple[int, PredictRequest]] = []
    lookups: List[Tuple[int, LookupRequest]] = []
    for i, line in parsed:
        try:
            request = request_from_dict(json.loads(line))
        except Exception as exc:
            responses[i] = {
                "index": i, "ok": False,
                "error": f"{type(exc).__name__}: {exc}",
            }
            report.n_errors += 1
            continue
        if isinstance(request, PredictRequest):
            predicts.append((i, request))
        else:
            lookups.append((i, request))
    report.n_predict = len(predicts)
    report.n_lookup = len(lookups)
    deadline_before = service.n_deadline
    if predicts:
        answers = service.predict_many(
            [r for _, r in predicts], deadline=deadline,
            per_request_s=per_request_s,
        )
        for (i, _), resp in zip(predicts, answers):
            resp = replace(resp, index=i)
            report.n_errors += not resp.ok
            report.n_cached += resp.cached
            responses[i] = response_to_dict(resp)
    if lookups:
        if service.store is None:
            for i, _ in lookups:
                responses[i] = {
                    "op": "lookup", "index": i, "ok": False,
                    "error": "ValueError: no ResultStore attached "
                             "(start the service with --store)",
                }
                report.n_errors += 1
            report.n_deadline += service.n_deadline - deadline_before
            return responses, report
        answers = service.lookup_many(
            [r for _, r in lookups], deadline=deadline,
            per_request_s=per_request_s,
        )
        for (i, _), resp in zip(lookups, answers):
            resp = replace(resp, index=i)
            report.n_errors += not resp.ok
            report.n_store_hits += resp.hit
            report.n_degraded += resp.degraded
            responses[i] = response_to_dict(resp)
    report.n_deadline += service.n_deadline - deadline_before
    return responses, report


def oracle_serve_stream(
    service: PredictionService,
    infile: IO[str],
    outfile: IO[str],
    batch_size: Optional[int] = None,
    max_queue: Optional[int] = None,
    deadline_s: Optional[float] = None,
    per_request_s: Optional[float] = None,
    snapshots: Optional[SnapshotManager] = None,
    skip: int = 0,
) -> ServeReport:
    report = ServeReport()
    injector = _faults_active()
    base = 0
    batch_no = 0
    for chunk in _oracle_chunks(infile, batch_size):
        if base + len(chunk) <= skip:
            base += len(chunk)
            continue
        if base < skip:
            chunk = chunk[skip - base:]
            base = skip
        responses, batch_report = oracle_serve_lines(
            service, chunk, max_queue=max_queue,
            deadline=deadline_s, per_request_s=per_request_s,
        )
        report.merge(batch_report)
        for payload in responses:
            payload["index"] += base
            outfile.write(json.dumps(payload, separators=(",", ":")) + "\n")
        outfile.flush()
        base += len(responses)
        batch_no += 1
        if snapshots is not None:
            snapshots.maybe_save(served=base)
        if injector is not None:
            injector.maybe_kill(f"serve-batch-{batch_no}", 0)
    if snapshots is not None and snapshots.served != base:
        snapshots.save(served=base)
    return report


def _oracle_chunks(infile: IO[str], batch_size: Optional[int]) -> Iterable[List[str]]:
    if batch_size is not None and batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    chunk: List[str] = []
    for line in infile:
        if not line.strip():
            continue
        chunk.append(line)
        if batch_size is not None and len(chunk) == batch_size:
            yield chunk
            chunk = []
    if chunk:
        yield chunk


def oracle_wire(responses: List[Dict], base: int = 0) -> str:
    """``serve_stream``'s old per-response writer, for one batch."""
    out = io.StringIO()
    for payload in responses:
        payload["index"] += base
        out.write(json.dumps(payload, separators=(",", ":")) + "\n")
    return out.getvalue()


# ----------------------------------------------------------------------
# helpers

def P(**fields) -> str:
    """One predict request line (case4 unless a scenario is given)."""
    return json.dumps(dict({"scenario": "case4"}, **fields))


def L(scenario: str, **fields) -> str:
    return json.dumps(dict({"op": "lookup", "scenario": scenario}, **fields))


def stream(lines: List[str]) -> str:
    return "\n".join(lines) + "\n"


def key(line: str) -> PredictRequest:
    return request_from_dict(json.loads(line))


def serve_both(make, lines, **kw):
    """Serve one stream through the oracle and through ``serve_stream``
    on two services built by ``make``; returns both outputs, both
    reports, and the service under test."""
    old_service, new_service = make(), make()
    old_out, new_out = io.StringIO(), io.StringIO()
    old_report = oracle_serve_stream(old_service, io.StringIO(stream(lines)),
                                     old_out, **kw)
    new_report = serve_stream(new_service, io.StringIO(stream(lines)),
                              new_out, **kw)
    return (old_out.getvalue(), new_out.getvalue(),
            old_report, new_report, new_service)


def assert_same_wire(make, lines, **kw):
    old, new, old_report, new_report, service = serve_both(make, lines, **kw)
    assert new.encode("utf-8") == old.encode("utf-8")
    assert dataclasses.asdict(new_report) == dataclasses.asdict(old_report)
    return new, service


def decoded(text: str) -> List[Dict]:
    return [json.loads(line) for line in text.splitlines()]


def held_text(service: PredictionService) -> Dict[PredictRequest, str]:
    """The encoded text each live prediction-LRU entry holds."""
    return {req: entry.text for req, entry in service._predictions.items()
            if entry.text is not None}


A = P(nprocs=4, steps=10)
B = P(nprocs=8, steps=10)
C = P(nprocs=16, steps=10)
D = P(nprocs=4, steps=20, machine="frontier")
E = P(nprocs=2, steps=15)

MIXED = [
    A, A, B, "", A, C, "not json", B, D, P(scenario="no-such-case"),
    D, '{"scenario":"case4","f":NaN}', E, A, P(machine="neptune"),
    "   ", E, C, '[1, 2, 3]', P(nprocs=4, steps=10, bogus=1), B, A,
    P(steps=True), D, E, A,
]


@pytest.fixture(scope="module")
def store_path(tmp_path_factory):
    """A flat store holding one finished campaign case (case4)."""
    path = tmp_path_factory.mktemp("wire") / "store.jsonl"
    run_campaign([CASE_REGISTRY["case4"]], store=ResultStore(str(path)))
    return str(path)


# ----------------------------------------------------------------------
class TestWireMatchesOracle:
    def test_repeat_within_one_batch_is_a_miss_then_hits(self):
        lines = [A, A, B, A, B, A]
        new, service = assert_same_wire(PredictionService, lines)
        cached = [r["cached"] for r in decoded(new)]
        assert cached == [False, True, False, True, True, True]
        assert set(held_text(service)) == {key(A), key(B)}

    @pytest.mark.parametrize("batch_size", [1, 7, None])
    def test_mixed_stream_every_batch_size(self, batch_size):
        new, _ = assert_same_wire(PredictionService, MIXED,
                                  batch_size=batch_size)
        flags = [r.get("cached") for r in decoded(new) if r["ok"]]
        assert True in flags and False in flags

    @pytest.mark.parametrize("batch_size", [1, 7, None])
    def test_evicted_entries_are_recomputed(self, batch_size):
        lines = [A, B, C, A, D, E, A, B, A, C, D, A, A, E, B] * 2

        def make():
            return PredictionService(cache_size=3)

        new, service = assert_same_wire(make, lines, batch_size=batch_size)
        assert service.stats()["predictions"]["evictions"] > 0
        seen, recomputed = set(), 0
        for line, resp in zip(lines, decoded(new)):
            recomputed += line in seen and not resp["cached"]
            seen.add(line)
        assert recomputed > 0

    def test_entry_replaced_within_the_batch_is_not_reused(self):
        """A hit whose entry is evicted and recomputed (from the other
        spelling of ``f``) later in the same batch must keep its own
        prediction's bytes: ``"f":24`` first, ``"f":24.0`` after."""
        a_int, a_float = P(nprocs=4, steps=10, f=24), P(nprocs=4, steps=10, f=24.0)
        lines = [a_int, a_float, B, C, a_float, a_int, a_int]

        def make():
            return PredictionService(cache_size=2)

        new, _ = assert_same_wire(make, lines)
        out = decoded(new)
        assert [r["cached"] for r in out] == [False, True, False, False,
                                              False, True, True]
        assert '"f":24,' in new.splitlines()[1]
        assert '"f":24.0,' in new.splitlines()[5]

    @pytest.mark.parametrize("order", [(24, 24.0), (24.0, 24)])
    def test_int_and_float_f_share_one_entry(self, order):
        first, second = (P(nprocs=4, steps=10, f=f) for f in order)
        lines = [first, second, second, first, second]
        new, service = assert_same_wire(PredictionService, lines)
        assert len(service._predictions) == 1
        assert all(f'"f":{order[0]},' in line for line in new.splitlines())

    def test_invalidate_between_two_streams(self):
        old_service, new_service = PredictionService(), PredictionService()
        old_out, new_out = io.StringIO(), io.StringIO()
        first, second = [A, B, A, C], [A, B, C, A]
        for lines in (first, second):
            oracle_serve_stream(old_service, io.StringIO(stream(lines)), old_out)
            serve_stream(new_service, io.StringIO(stream(lines)), new_out)
            for service in (old_service, new_service):
                assert service.invalidate_request(key(A))
        assert new_out.getvalue().encode() == old_out.getvalue().encode()
        tail = decoded(new_out.getvalue())[len(first):]
        assert [r["cached"] for r in tail] == [False, True, True, True]

    def test_errors_of_every_shape(self):
        lines = ["not json", "[1, 2, 3]", "", A, P(scenario="no-such-case"),
                 P(machine="neptune", nprocs=8, steps=10),
                 '{"scenario":"case4","f":Infinity}',
                 '{"scenario":"case4","f":NaN}', P(nprocs="8"),
                 P(steps=40.5), P(f=True), P(nprocs=0), P(steps=-1),
                 '{"op": "bogus"}', A, "  \t ", A]
        new, _ = assert_same_wire(PredictionService, lines, batch_size=4)
        oks = [r["ok"] for r in decoded(new)]
        assert oks.count(True) == 3 and oks.count(False) == len(oks) - 3

    def test_lookups_hit_miss_and_interleave_with_predicts(self, store_path):
        lines = [L("case4"), A, L("case27"), L("no-such-case"), A,
                 L("case4", machine="neptune"), L("case4"), B, L("case27")]

        def make():
            return PredictionService(store=ResultStore(store_path))

        new, _ = assert_same_wire(make, lines, batch_size=4)
        hits = [r.get("hit") for r in decoded(new) if r.get("op") == "lookup"]
        assert True in hits and False in hits

    def test_degraded_lookups_with_an_open_breaker(self, store_path):
        # the inline predict is the key a degraded case4 lookup caches
        # its prediction under, so in the second batch it is a hit
        case = CASE_REGISTRY["case4"]
        inline = json.dumps({"scenario": "case4", "machine": case.machine,
                             "nprocs": case.nprocs,
                             "inputs": dataclasses.asdict(case.inputs)})
        lines = [L("case4"), A, L("case4"), L("case27"), A, inline, inline]

        def make():
            service = PredictionService(
                store=ResultStore(store_path),
                breaker=StoreCircuitBreaker(threshold=1, clock=FakeClock()))
            service.breaker.record_failure()  # open, and never half-open
            return service

        new, _ = assert_same_wire(make, lines, batch_size=4)
        out = decoded(new)
        assert [r.get("degraded", False) for r in out] == [
            True, False, True, True, False, False, False]
        assert [r.get("cached") for r in out[4:]] == [True, True, True]

    def test_lookups_without_a_store(self):
        lines = [L("case4"), A, L("case27"), A]
        new, _ = assert_same_wire(PredictionService, lines)
        assert "--store" in decoded(new)[0]["error"]

    def test_requests_shed_by_the_admission_queue(self):
        lines = [A, B, A, C, A, B, D, A, E, A, B, C]
        new, service = assert_same_wire(PredictionService, lines,
                                        batch_size=5, max_queue=3)
        assert sum(r.get("shed", False) for r in decoded(new)) == 4

    @staticmethod
    def _batch_both(make, lines, deadline, start, **kw):
        """One ``serve_lines`` batch through both writers, each service
        with its own fresh fake-clock deadline from ``deadline()``."""
        responses, _ = oracle_serve_lines(make(), lines, deadline=deadline(),
                                          **kw)
        old = oracle_wire(responses, base=start)
        out, _ = serve_lines(make(), lines, deadline=deadline(), start=start,
                             **kw)
        new = "".join(out)
        assert new.encode() == old.encode()
        return decoded(new)

    def test_zero_request_budget_expires_misses_but_answers_hits(self):
        """A computed request past its budget is an error, but its
        prediction is cached, so repeats answer (and keep text)."""
        out = self._batch_both(
            PredictionService, [A, A, B, A, B, C, C],
            lambda: Deadline(None, clock=FakeClock()), 7, per_request_s=0.0)
        assert [r["ok"] for r in out] == [False, True, False, True, True,
                                          False, True]
        assert out[0]["error"].startswith("DeadlineExceeded:")
        assert out[0]["index"] == 7

    def test_batch_deadline_on_a_fake_clock(self, store_path):
        """An advancing clock expires the tail of the batch (both the
        predict and the lookup phase) at the same indices."""
        lines = ([P(nprocs=2 ** i, steps=10) for i in range(6)]
                 + [A, A, L("case4"), L("case27"), A])
        out = self._batch_both(
            lambda: PredictionService(store=ResultStore(store_path)), lines,
            lambda: Deadline(1.0, clock=FakeClock(step=0.3)), 40)
        errors = [r["error"] for r in out if not r["ok"]]
        assert errors and all(e.startswith("DeadlineExceeded:") for e in errors)
        assert out[0]["ok"] and out[0]["index"] == 40

    @pytest.mark.parametrize("skip", [0, 3, 7, 10, len(MIXED) - 4])
    def test_skip_resume(self, skip):
        new, _ = assert_same_wire(PredictionService, MIXED, batch_size=7,
                                  skip=skip)
        assert decoded(new)[0]["index"] == skip

    def test_remaining_lines_after_a_snapshot_restore(self, tmp_path):
        lines = [line for line in MIXED if line.strip()] * 2
        old, _, _, _, _ = serve_both(PredictionService, lines, batch_size=7)
        cut = 21  # a batch boundary
        path = str(tmp_path / "caches.snap")
        first = PredictionService()
        head = io.StringIO()
        serve_stream(first, io.StringIO(stream(lines[:cut])), head,
                     batch_size=7, snapshots=SnapshotManager(first, path))
        assert held_text(first)  # text was held, and is not saved
        restored = PredictionService()
        manager = SnapshotManager(restored, path)
        assert manager.load().served == cut
        assert not held_text(restored)
        tail = io.StringIO()
        serve_stream(restored, io.StringIO(stream(lines)), tail,
                     batch_size=7, skip=manager.served)
        assert (head.getvalue() + tail.getvalue()).encode() == old.encode()
        assert held_text(restored)  # rebuilt on the first hits


# ----------------------------------------------------------------------
class TestServeLinesContract:
    def test_lines_are_numbered_from_start(self):
        out, report = serve_lines(PredictionService(), [A, "", "x", A],
                                  start=100)
        assert all(line.endswith("\n") and line.count("\n") == 1
                   for line in out)
        assert [r["index"] for r in decoded("".join(out))] == [100, 101, 102]
        assert report.n_requests == 3 and report.n_cached == 1

    def test_bounded_writes_and_one_flush_per_batch(self):
        """Each batch is written as whole-line pieces, each ending at the
        first line boundary past 32 KiB, then flushed once."""
        class Sink(io.StringIO):
            def __init__(self):
                super().__init__()
                self.batches = [[]]  # the writes between two flushes

            def write(self, text):
                self.batches[-1].append(text)
                return super().write(text)

            def flush(self):
                self.batches.append([])

        # ~3 KB per steps=500 answer: one batch holds ~120 KB of text
        lines = MIXED + [P(nprocs=n, steps=500) for n in range(2, 42)] + MIXED
        old_out, sink = io.StringIO(), Sink()
        oracle_serve_stream(PredictionService(), io.StringIO(stream(lines)),
                            old_out, batch_size=50)
        serve_stream(PredictionService(), io.StringIO(stream(lines)), sink,
                     batch_size=50)
        assert sink.getvalue().encode("utf-8") == old_out.getvalue().encode("utf-8")

        batches = sink.batches[:-1]
        assert sink.batches[-1] == []  # nothing written after the last flush
        assert len(batches) == -(-sum(1 for line in lines if line.strip()) // 50)
        assert max(len(writes) for writes in batches) >= 3
        bound = 32 * 1024
        for writes in batches:
            assert writes and all(w.endswith("\n") for w in writes)
            for w in writes:  # under the bound until its last line
                assert w[:-1].rfind("\n") + 1 < bound
            # only a batch's last piece may stop short of the bound
            assert all(len(w) >= bound for w in writes[:-1])


class TestDeadlineText:
    """A deadline answer states the budget, never the measured time, so
    its bytes depend only on the outcome."""

    def test_request_budget_text_is_exact(self):
        out, _ = serve_lines(PredictionService(), [A], per_request_s=0.0)
        assert decoded("".join(out))[0]["error"] == (
            "DeadlineExceeded: predict request 0: request budget of "
            "0.000s exhausted")

    def test_zero_budget_stream_is_identical_on_two_services(self, store_path):
        """Every predict miss and every lookup expires on the real clock,
        every predict hit answers: two fresh services, the same bytes."""
        lines = [A, B, A, L("case4"), C, L("case27"), B, D, L("case4"), E, C]
        outputs = []
        for _ in range(2):
            out = io.StringIO()
            serve_stream(PredictionService(store=ResultStore(store_path)),
                         io.StringIO(stream(lines)), out, per_request_s=0.0)
            outputs.append(out.getvalue().encode("utf-8"))
        assert outputs[0] == outputs[1]
        answers = decoded(outputs[0].decode("utf-8"))
        assert [r["ok"] for r in answers] == [
            False, False, True, False, False, False, True, False, False,
            False, True]
        assert all(r["error"].startswith("DeadlineExceeded: ")
                   and r["error"].endswith("budget of 0.000s exhausted")
                   for r in answers if not r["ok"])


class TestCachedText:
    def test_held_text_is_bounded_by_the_lru(self):
        lines = [A, A, B, B, C, C, D, D, E, E, A, A, C, C]
        service = PredictionService(cache_size=2)
        serve_stream(service, io.StringIO(stream(lines)), io.StringIO(),
                     batch_size=3)
        held = held_text(service)
        assert 1 <= len(held) <= 2
        assert service.stats()["predictions"]["evictions"] > 0

    def test_a_request_answered_once_holds_none(self):
        service = PredictionService()
        serve_lines(service, [A, B, B, C])
        assert set(held_text(service)) == {key(B)}
        assert service._predictions.peek(key(A)).text is None

    def test_api_callers_that_never_serialize_hold_none(self):
        service = PredictionService()
        reqs = [key(A), key(B), key(A), key(A)]
        assert [r.cached for r in service.predict_many(reqs)] == [
            False, False, True, True]
        assert not held_text(service)

    def test_held_text_is_the_wire_tail(self):
        service = PredictionService()
        out, _ = serve_lines(service, [A, A])
        text = service._predictions.peek(key(A)).text
        assert out[1] == '{"op":"predict","index":1,"ok":true,' + text + "\n"
        assert '"cached":true' in text and '"index"' not in text


class TestSanitizedReuse:
    def test_corrupted_cached_text_fails_loudly(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        service = PredictionService()
        serve_lines(service, [A, A])  # miss, then the first hit keeps text
        clean, _ = serve_lines(service, [A])  # a clean reuse passes
        entry = service._predictions.peek(key(A))
        entry.text = entry.text.replace('"cached":true', '"cached":false')
        with pytest.raises(sanitize.SanitizeError, match="cached wire text"):
            serve_lines(service, [A])
        monkeypatch.delenv("REPRO_SANITIZE")
        shipped, _ = serve_lines(service, [A])  # unchecked: wrong bytes out
        assert shipped != clean and '"cached":false' in shipped[0]
