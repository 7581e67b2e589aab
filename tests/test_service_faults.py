"""Fault injection against the service: corrupt stores, unknown
machines, mid-batch bad requests — every failure is captured per
request (or warned per store), never a batch/process failure.  Also
pins cross-machine cache isolation: a cached summit answer must never
leak into a frontier query."""

import json

import pytest

from repro.campaign.cases import CASE_REGISTRY
from repro.campaign.runner import run_campaign
from repro.campaign.store import ResultStore, StoreCorruptionWarning
from repro.platform import UnknownMachineError, available_platforms
from repro.service import (
    LookupRequest,
    PredictionService,
    PredictRequest,
    serve_lines,
)


class TestStoreCorruption:
    """Satellite: ResultStore must skip-and-report corrupt JSONL lines."""

    def _seeded_store(self, path):
        store = ResultStore(str(path))
        run_campaign([CASE_REGISTRY["case4"]], store=store)
        return store

    def test_corrupt_lines_warn_and_intact_lines_survive(self, tmp_path):
        path = tmp_path / "store.jsonl"
        self._seeded_store(path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("{ not json at all\n")
            fh.write(json.dumps({"wrong": "shape"}) + "\n")
        with pytest.warns(StoreCorruptionWarning, match=r"skipped 2 .* of 3"):
            reloaded = ResultStore(str(path))
        assert len(reloaded) == 1
        assert reloaded.get_for(CASE_REGISTRY["case4"]) is not None

    def test_torn_final_line_warns_with_interrupted_put_hint(self, tmp_path):
        path = tmp_path / "store.jsonl"
        self._seeded_store(path)
        whole = path.read_text()
        path.write_text(whole + whole[: len(whole) // 2].rstrip("\n"))
        with pytest.warns(StoreCorruptionWarning, match="interrupted put"):
            reloaded = ResultStore(str(path))
        assert len(reloaded) == 1

    def test_clean_store_does_not_warn(self, tmp_path):
        path = tmp_path / "store.jsonl"
        self._seeded_store(path)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", StoreCorruptionWarning)
            reloaded = ResultStore(str(path))
        assert len(reloaded) == 1

    def test_corrupt_lines_are_compacted_away(self, tmp_path):
        """Reloading rewrites the file; the poison does not persist."""
        path = tmp_path / "store.jsonl"
        self._seeded_store(path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("garbage\n")
        with pytest.warns(StoreCorruptionWarning):
            ResultStore(str(path))
        assert "garbage" not in path.read_text()
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", StoreCorruptionWarning)
            ResultStore(str(path))

    def test_service_serves_from_a_corrupted_store(self, tmp_path):
        """A poisoned store degrades to its intact entries — lookups
        still answer, the corrupt lines only cost a warning."""
        path = tmp_path / "store.jsonl"
        self._seeded_store(path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("}{ torn\n")
        with pytest.warns(StoreCorruptionWarning):
            service = PredictionService(store=ResultStore(str(path)))
        resp = service.lookup_many([LookupRequest("case4")])[0]
        assert resp.ok and resp.hit and resp.record.name == "case4"


class TestPerRequestFaults:
    def test_unknown_machine_is_captured_not_raised(self):
        service = PredictionService()
        responses = service.predict_many([
            PredictRequest(machine="summit", nprocs=8, steps=10),
            PredictRequest(machine="neptune", nprocs=8, steps=10),
        ])
        assert responses[0].ok
        assert not responses[1].ok
        assert "UnknownMachineError" in responses[1].error
        assert "neptune" in responses[1].error
        assert service.n_errors == 1

    def test_mid_batch_bad_request_never_fails_the_batch(self):
        service = PredictionService()
        good = PredictRequest(nprocs=8, steps=10)
        batch = [
            good,
            PredictRequest(scenario="no-such-case"),
            PredictRequest(nprocs=0),
            PredictRequest(nprocs=8, steps=-1),
            PredictRequest(nprocs=8, f=-0.5),
            "not a request at all",
            good,
        ]
        responses = service.predict_many(batch)
        assert [r.ok for r in responses] == [
            True, False, False, False, False, False, True]
        assert [r.index for r in responses] == list(range(len(batch)))
        assert "unknown scenario" in responses[1].error
        assert "nprocs" in responses[2].error
        assert "steps" in responses[3].error
        assert "f must be positive" in responses[4].error
        assert "expected a PredictRequest" in responses[5].error
        # the trailing good request is served from cache, errors aside
        assert responses[6].cached
        assert service.n_errors == 5 and service.n_served == 2

    def test_errors_are_not_cached(self):
        """A failed request leaves no poison: fixing it succeeds."""
        service = PredictionService()
        bad = PredictRequest(machine="neptune", nprocs=8, steps=10)
        assert not service.predict_one(bad).ok
        assert service.stats()["predictions"]["size"] == 0

    def test_lookup_faults_are_per_request_too(self):
        store = ResultStore()
        run_campaign([CASE_REGISTRY["case4"]], store=store)
        service = PredictionService(store=store)
        responses = service.lookup_many([
            LookupRequest("case4"),
            LookupRequest("no-such-case"),
            LookupRequest("case4", machine="neptune"),
            42,
        ])
        assert responses[0].ok and responses[0].hit
        assert not responses[1].ok and "unknown scenario" in responses[1].error
        assert not responses[2].ok and "neptune" in responses[2].error
        assert not responses[3].ok
        assert service.n_errors == 3

    def test_wire_level_faults_land_at_their_index(self):
        service = PredictionService()
        lines = [
            '{"scenario": "case4", "nprocs": 4, "steps": 10}',
            "not json",
            '{"op": "predict", "bogus_field": 1}',
            '[1, 2, 3]',
            '{"scenario": "case4", "nprocs": 4, "steps": 10}',
        ]
        out, report = serve_lines(service, lines)
        responses = [json.loads(line) for line in out]
        assert [r["ok"] for r in responses] == [True, False, False, False, True]
        assert report.n_errors == 3
        assert responses[4]["cached"]


class TestCrossMachineIsolation:
    """Satellite: the cache must never serve machine A's answer for B."""

    def test_isolation_matrix(self):
        """Same scenario and shape on every machine pair, interleaved
        and replayed: every answer carries its own machine's label and
        its own machine's burst series."""
        machines = available_platforms()
        assert len(machines) >= 2
        service = PredictionService()
        reqs = [PredictRequest(machine=m, nprocs=32, steps=20)
                for m in machines]
        # prime in one order, replay in reverse: all hits, none crossed
        cold = service.predict_many(reqs)
        warm = service.predict_many(list(reversed(reqs)))
        assert all(r.ok for r in cold + warm)
        assert all(r.cached for r in warm)
        by_machine = {r.prediction.machine: r.prediction for r in cold}
        assert sorted(by_machine) == sorted(machines)
        for resp, req in zip(warm, reversed(reqs)):
            assert resp.prediction is by_machine[req.machine]
        # distinct platforms must actually disagree somewhere — if every
        # burst series were equal the isolation assertions above would
        # be vacuous
        series = [tuple(p.burst_seconds) for p in by_machine.values()]
        assert len(set(series)) > 1

    def test_invalidate_one_machine_leaves_the_others(self):
        machines = available_platforms()
        service = PredictionService()
        reqs = [PredictRequest(machine=m, nprocs=16, steps=20)
                for m in machines]
        service.predict_many(reqs)
        assert service.invalidate_request(reqs[0])
        replay = service.predict_many(reqs)
        assert not replay[0].cached
        assert all(r.cached for r in replay[1:])

    def test_unknown_machine_lookup_request_construction(self):
        """Case construction itself rejects unknown machines — the
        service converts that into a per-request error upstream."""
        with pytest.raises(UnknownMachineError):
            CASE_REGISTRY["case4"].on_machine("neptune")


class TestErrorClassNames:
    """Satellite: every per-request error names the exception class, so
    clients dispatch on the failure kind without parsing prose."""

    def test_wire_errors_prefix_the_exception_class(self):
        service = PredictionService()
        lines = [
            "not json",
            "[1, 2, 3]",
            '{"machine": "neptune", "nprocs": 8, "steps": 10}',
            '{"scenario": "no-such-case"}',
        ]
        out, report = serve_lines(service, lines)
        responses = [json.loads(line) for line in out]
        assert report.n_errors == len(lines)
        assert responses[0]["error"].startswith("JSONDecodeError: ")
        assert responses[1]["error"].startswith("ValueError: ")
        assert responses[2]["error"].startswith("UnknownMachineError: ")
        assert responses[3]["error"].startswith("ValueError: ")
        for resp in responses:
            head = resp["error"].split(":", 1)[0]
            assert head.isidentifier(), resp["error"]

    def test_batch_api_errors_carry_class_names_too(self):
        service = PredictionService(store=ResultStore())
        predict = service.predict_one(
            PredictRequest(machine="neptune", nprocs=8, steps=10)
        )
        assert not predict.ok
        assert predict.error.startswith("UnknownMachineError: ")
        lookup = service.lookup_many([LookupRequest("no-such-case")])[0]
        assert not lookup.ok
        assert lookup.error.startswith("ValueError: ")
