"""Unit tests for the prediction service: LRU cache semantics, batch
engine behavior, the JSONL serve layer, the CLI, and campaign-store
integration (executor results immediately servable)."""

import io
import json

import pytest

from repro.campaign.cases import CASE_REGISTRY
from repro.campaign.runner import run_campaign
from repro.campaign.store import ResultStore
from repro.campaign.sweep import sweep_cases
from repro.cli import serve_main
from repro.service import (
    LRUCache,
    LookupRequest,
    PredictionService,
    PredictRequest,
    request_from_dict,
    serve_lines,
)


def small_sweep(n_meshes=1):
    ladder = [(64, 2, 1), (128, 4, 1)][:n_meshes]
    return sweep_cases(mesh_ladder=ladder, cfls=(0.3, 0.6), max_levels=(1,),
                       max_step=20, plot_int=10)


class TestLRUCache:
    def test_rejects_useless_bounds(self):
        with pytest.raises(ValueError, match="maxsize"):
            LRUCache(0)

    def test_put_get_and_eviction_order(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)  # evicts "a", the least recently used
        assert "a" not in cache and cache.get("a") is None
        assert cache.get("b") == 2 and cache.get("c") == 3
        assert cache.evictions == 1

    def test_get_refreshes_recency(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # "b" is now the LRU entry
        cache.put("c", 3)
        assert "a" in cache and "b" not in cache

    def test_peek_is_uncounted_and_preserves_order(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.peek("a") == 1
        assert cache.hits == 0 and cache.misses == 0
        cache.put("c", 3)  # peek must not have refreshed "a"
        assert "a" not in cache

    def test_overwrite_does_not_grow(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("a", 10)
        assert len(cache) == 1 and cache.get("a") == 10

    def test_invalidate_and_clear(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        assert cache.invalidate("a") is True
        assert cache.invalidate("a") is False
        cache.put("b", 2)
        cache.get("b")
        cache.get("nope")
        cache.clear()
        assert len(cache) == 0
        # counters are cumulative: clear() drops entries, not history
        stats = cache.stats()
        assert stats == {"size": 0, "maxsize": 4, "hits": 1, "misses": 1,
                         "evictions": 0}


class TestPredictionService:
    def test_repeat_requests_are_cache_hits(self):
        service = PredictionService()
        req = PredictRequest(scenario="case4", nprocs=8, steps=40)
        first, second = service.predict_many([req, req])
        assert first.ok and not first.cached
        assert second.ok and second.cached
        assert first.prediction is second.prediction
        assert service.n_predicted == 1 and service.n_served == 2

    def test_cache_hits_survive_across_batches(self):
        service = PredictionService()
        req = PredictRequest(nprocs=8, steps=40)
        service.predict_many([req])
        again = service.predict_one(req)
        assert again.cached

    def test_plans_shared_across_scenarios(self):
        """(machine, nprocs) state is built once, not once per request."""
        service = PredictionService()
        reqs = [PredictRequest(scenario=s, machine="summit", nprocs=16,
                               steps=20)
                for s in ("case4", "case27")]
        assert all(r.ok for r in service.predict_many(reqs))
        assert service.stats()["plans"]["size"] == 1

    def test_prediction_lru_bound_evicts(self):
        service = PredictionService(cache_size=2)
        reqs = [PredictRequest(nprocs=n, steps=20) for n in (2, 4, 8)]
        service.predict_many(reqs)
        # the first request was evicted: replay recomputes it
        replay = service.predict_one(reqs[0])
        assert replay.ok and not replay.cached
        assert service.stats()["predictions"]["evictions"] >= 1

    def test_invalidate_request_drops_one_entry(self):
        service = PredictionService()
        a = PredictRequest(nprocs=4, steps=20)
        b = PredictRequest(nprocs=8, steps=20)
        service.predict_many([a, b])
        assert service.invalidate_request(a) is True
        assert service.invalidate_request(a) is False
        assert not service.predict_one(a).cached
        assert service.predict_one(b).cached

    def test_invalidate_clears_everything(self):
        service = PredictionService()
        req = PredictRequest(nprocs=4, steps=20)
        service.predict_many([req])
        service.invalidate()
        stats = service.stats()
        assert stats["predictions"]["size"] == 0
        assert stats["plans"]["size"] == 0
        assert not service.predict_one(req).cached

    def test_stats_shape(self):
        service = PredictionService()
        service.predict_many([PredictRequest(nprocs=4, steps=10)])
        stats = service.stats()
        assert stats["served"] == 1 and stats["predicted"] == 1
        assert stats["errors"] == 0
        for cache in ("predictions", "plans", "keys"):
            assert set(stats[cache]) == {"size", "maxsize", "hits", "misses",
                                         "evictions"}

    def test_lookup_requires_store(self):
        service = PredictionService()
        with pytest.raises(ValueError, match="ResultStore"):
            service.lookup_many([LookupRequest("case4")])

    def test_attach_store_resets_key_memo(self):
        store = ResultStore()
        service = PredictionService(store=store)
        case = small_sweep()[0]
        run_campaign([case], store=store)
        assert service.lookup_many([case])[0].hit
        assert service.stats()["keys"]["size"] == 1
        service.attach_store(ResultStore())
        assert service.stats()["keys"]["size"] == 0
        assert not service.lookup_many([case])[0].hit


class TestCampaignIntegration:
    def test_campaign_results_immediately_servable(self):
        """run_campaign(service=...) lands results in the service's
        store: lookup_many hits without any reload or re-hash."""
        store = ResultStore()
        service = PredictionService(store=store)
        cases = small_sweep()
        result = run_campaign(cases, service=service)
        assert not result.failures
        hits = service.lookup_many(cases)
        assert all(r.ok and r.hit for r in hits)
        assert [r.record.name for r in hits] == [c.name for c in cases]
        assert service.n_store_hits == len(cases)

    def test_campaign_via_service_requires_a_store(self):
        with pytest.raises(ValueError, match="no ResultStore"):
            run_campaign(small_sweep(), service=PredictionService())

    def test_lookup_key_hashed_once_per_unique_case(self):
        store = ResultStore()
        service = PredictionService(store=store)
        cases = small_sweep()
        run_campaign(cases, store=store)
        service.lookup_many(cases)
        service.lookup_many(cases)  # repeats hit the key memo
        keys = service.stats()["keys"]
        assert keys["misses"] == len(cases)
        assert keys["hits"] == len(cases)


class TestWireForm:
    def test_request_from_dict_defaults_to_predict(self):
        req = request_from_dict({"scenario": "case27", "nprocs": 8})
        assert isinstance(req, PredictRequest)
        assert req.scenario == "case27" and req.nprocs == 8

    def test_request_from_dict_lookup(self):
        req = request_from_dict({"op": "lookup", "scenario": "case4",
                                 "machine": "frontier"})
        assert isinstance(req, LookupRequest)
        assert req.resolve().machine == "frontier"

    def test_request_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown predict fields"):
            request_from_dict({"scenario": "case4", "bogus": 1})
        with pytest.raises(ValueError, match="unknown lookup fields"):
            request_from_dict({"op": "lookup", "scenario": "case4", "nprocs": 8})
        with pytest.raises(ValueError, match="unknown op"):
            request_from_dict({"op": "frobnicate"})

    def test_inline_inputs_request(self):
        base = CASE_REGISTRY["case4"].inputs
        payload = {"scenario": "inline", "nprocs": 8,
                   "inputs": {"n_cell": list(base.n_cell),
                              "max_level": base.max_level,
                              "max_step": 40, "plot_int": base.plot_int,
                              "cfl": base.cfl}}
        req = request_from_dict(payload)
        inputs, nprocs, machine = req.resolve()
        assert inputs.n_cell == base.n_cell and nprocs == 8

    def test_serve_lines_roundtrip_in_input_order(self):
        store = ResultStore()
        service = PredictionService(store=store)
        cases = small_sweep()
        run_campaign(cases, store=store)
        lines = [
            json.dumps({"scenario": "case4", "nprocs": 8, "steps": 20}),
            "",  # blank lines are skipped, not errors
            "this is not json",
            json.dumps({"op": "lookup", "scenario": "case4"}),
            json.dumps({"scenario": "case4", "nprocs": 8, "steps": 20}),
        ]
        responses, report = serve_lines(service, lines)
        assert [r["index"] for r in responses] == [0, 1, 2, 3]
        assert responses[0]["ok"] and responses[0]["n_dumps"] > 0
        assert not responses[1]["ok"] and "JSONDecodeError" in responses[1]["error"]
        assert responses[2]["ok"] and responses[2]["hit"] is False
        assert responses[3]["ok"] and responses[3]["cached"] is True
        assert report.n_requests == 4 and report.n_predict == 2
        assert report.n_lookup == 1 and report.n_errors == 1
        assert report.n_cached == 1

    def test_serve_lines_every_response_is_json_serializable(self):
        service = PredictionService()
        lines = [json.dumps({"scenario": "case4", "nprocs": 4, "steps": 10}),
                 json.dumps({"machine": "neptune"})]
        responses, _ = serve_lines(service, lines)
        for payload in responses:
            json.loads(json.dumps(payload))

    @pytest.mark.parametrize("f", ["NaN", "Infinity"])
    def test_non_finite_f_is_a_per_request_error(self, f):
        """``json.loads`` accepts NaN/Infinity; they must not come back as
        ``ok`` with NaN sizes (which is not RFC 8259 JSON either)."""
        lines = ['{"scenario":"case4","f":%s}' % f,
                 json.dumps({"scenario": "case4", "nprocs": 4, "steps": 10})]
        responses, report = serve_lines(PredictionService(), lines)
        assert not responses[0]["ok"]
        assert "f must be positive and finite" in responses[0]["error"]
        assert responses[1]["ok"] and report.n_errors == 1
        for payload in responses:
            json.dumps(payload, allow_nan=False)

    def test_serve_lines_storeless_lookup_is_per_request_error(self):
        service = PredictionService()
        lines = [json.dumps({"op": "lookup", "scenario": "case4"}),
                 json.dumps({"scenario": "case4", "nprocs": 4, "steps": 10})]
        responses, report = serve_lines(service, lines)
        assert not responses[0]["ok"] and "--store" in responses[0]["error"]
        assert responses[1]["ok"]
        assert report.n_errors == 1


class TestServeCLI:
    def test_file_to_file_batch(self, tmp_path):
        reqs = tmp_path / "requests.jsonl"
        resps = tmp_path / "responses.jsonl"
        reqs.write_text(
            json.dumps({"scenario": "case4", "nprocs": 8, "steps": 20}) + "\n"
            + json.dumps({"machine": "neptune"}) + "\n")
        rc = serve_main(["--requests", str(reqs), "--responses", str(resps),
                         "--tolerate-errors"])
        assert rc == 0  # per-request errors are data in the response lines
        lines = [json.loads(l) for l in resps.read_text().splitlines()]
        assert len(lines) == 2
        assert lines[0]["ok"] and lines[0]["machine"] == "summit"
        assert not lines[1]["ok"] and "neptune" in lines[1]["error"]

    def test_store_backed_lookup_and_stats(self, tmp_path, capsys):
        # a single JSONL file, then (no .jsonl suffix) a shard directory
        for name in ("store.jsonl", "shards"):
            store_path = tmp_path / name
            run_campaign([CASE_REGISTRY["case4"]],
                         store=ResultStore(str(store_path)))
            reqs = tmp_path / "requests.jsonl"
            resps = tmp_path / "responses.jsonl"
            reqs.write_text(json.dumps({"op": "lookup", "scenario": "case4"}) + "\n")
            rc = serve_main(["--requests", str(reqs), "--responses", str(resps),
                             "--store", str(store_path), "--stats"])
            assert rc == 0
            line = json.loads(resps.read_text().splitlines()[0])
            assert line["ok"] and line["hit"] and line["case"] == "case4"
            err = capsys.readouterr().err
            assert "served 1 request(s)" in err and "1 lookup (1 hits" in err
        assert (tmp_path / "shards" / "_meta.json").exists()

    def test_rejects_bad_cache_size(self, tmp_path):
        with pytest.raises(SystemExit):
            serve_main(["--cache-size", "0"])
