"""Prediction-as-a-service load test: batched queries vs per-call paths.

The "millions of users" story made concrete: queue 10^5 prediction
requests (a few hundred unique configurations over the registered
machines — the shape of a dashboard or autotuner hammering the service)
and measure predictions/sec through three paths:

1. **per-call** — one :func:`~repro.core.predictor.predict_sizes` call
   per request, the one-shot path every query paid before the service
   (timed on a subsample, scaled — at 10^5 requests the full loop would
   dominate the bench for no extra information);
2. **cold** — a fresh :class:`~repro.service.PredictionService` seeing
   the batch for the first time: unique configurations compute through
   cached platform plans, each holding the storage model's even-split
   burst law built once (``predict_sizes`` builds it per call), and
   repeats hit the LRU mid-batch;
3. **warm** — the same service replaying the full batch, every request
   an LRU hit.

Also measures ``lookup_many`` throughput against a warm ResultStore
(each unique case content hashed once per service lifetime): the median
of ``LOOKUP_ROUNDS`` rounds, each a fresh service answering the same
batch, timed in CPU time with GC paused (``bench_chaos.py``'s method),
so that one round the host stalls does not set the figure.  Whole runs
on a shared host still differ (75k-132k lookups/s over four runs).

Emits ``benchmarks/output/BENCH_service.json`` and asserts the warm
path stays >= 5x over per-call ``predict_sizes`` (the acceptance floor;
measured 2-3 orders of magnitude) plus cold >= per-call, with
spot-checked bit-identical answers.
"""

import gc
import json
import os
import statistics
import time

import numpy as np

from repro.campaign.cases import CASE_REGISTRY, cases_on_machines
from repro.campaign.runner import run_campaign
from repro.campaign.store import ResultStore
from repro.core.predictor import predict_sizes
from repro.platform import available_platforms
from repro.service import PredictionService, PredictRequest

OUTPUT_DIR = os.path.join(os.path.dirname(__file__), "output")
BENCH_PATH = os.path.join(OUTPUT_DIR, "BENCH_service.json")

WARM_SPEEDUP_FLOOR = 5.0  # acceptance: warm-cache pps >= 5x per-call pps
PERCALL_SAMPLE = 512  # per-call predict_sizes calls to time (then scaled)
LOOKUP_ROUNDS = 7  # lookup_many rounds; lookups_per_s is their median


def _request_pool(scenarios, machines, n_unique):
    """``n_unique`` distinct requests spanning scenarios x machines x
    job shapes — the hot working set a real consumer cycles over."""
    nprocs_grid = (16, 32, 48, 64, 96, 128, 256)
    steps_grid = (None, 50, 100, 200, 400)
    pool = [
        PredictRequest(scenario=s, machine=m, nprocs=n, steps=k)
        for n in nprocs_grid
        for k in steps_grid
        for s in scenarios
        for m in machines
    ]
    if len(pool) < n_unique:
        raise ValueError(
            f"request grid holds {len(pool)} combinations < {n_unique}")
    return pool[:n_unique]


def _percall_reference(req):
    """What one request costs on the one-shot path."""
    from dataclasses import replace

    case = CASE_REGISTRY[req.scenario]
    inputs = case.inputs if req.steps is None else replace(
        case.inputs, max_step=req.steps
    )
    return predict_sizes(inputs, req.nprocs, f=req.f, platform=req.machine)


def test_service_throughput(once, emit, bench_json, smoke):
    n_requests = 500 if smoke else 100_000
    n_unique = 16 if smoke else 256
    machines = available_platforms()
    scenarios = ("case4", "case27", "large")
    pool = _request_pool(scenarios, machines, n_unique)
    rng = np.random.default_rng(2022)
    requests = [pool[i] for i in rng.integers(0, n_unique, size=n_requests)]

    # -- per-call path (subsample, scaled) -----------------------------
    sample = requests[:min(PERCALL_SAMPLE, n_requests)]
    t0 = time.perf_counter()
    for req in sample:
        _percall_reference(req)
    percall_s_per_req = (time.perf_counter() - t0) / len(sample)
    percall_pps = 1.0 / percall_s_per_req

    # -- cold service --------------------------------------------------
    service = PredictionService(cache_size=4 * n_unique)
    t0 = time.perf_counter()
    cold_responses = service.predict_many(requests)
    cold_s = time.perf_counter() - t0
    assert all(r.ok for r in cold_responses)
    assert service.n_predicted == n_unique  # every unique computed once

    # -- warm replay (the steady-state path, benchmark-registered) -----
    t0 = time.perf_counter()
    warm_responses = once(service.predict_many, requests)
    warm_s = time.perf_counter() - t0
    assert all(r.ok and r.cached for r in warm_responses)

    # spot-check bit-identity against the one-shot path
    for req in pool[:: max(1, n_unique // 8)]:
        ref = _percall_reference(req)
        got = service.predict_one(req).prediction
        assert np.array_equal(got.step_bytes, ref.step_bytes)
        assert np.array_equal(got.burst_seconds, ref.burst_seconds)
        assert got.machine == ref.machine

    # -- lookup throughput against a warm store ------------------------
    store = ResultStore()
    base = CASE_REGISTRY["case4"]
    lookup_cases = cases_on_machines(
        [base.with_cfl(c) for c in (0.3, 0.4, 0.5, 0.6)], machines
    )
    run_campaign(lookup_cases, store=store)
    n_lookups = n_requests // 10
    lookup_batch = [lookup_cases[i % len(lookup_cases)] for i in range(n_lookups)]
    lookup_rounds = []
    gc.disable()
    try:
        for _ in range(LOOKUP_ROUNDS):
            lookup_service = PredictionService(store=store)
            t0 = time.process_time()
            hits = lookup_service.lookup_many(lookup_batch)
            lookup_rounds.append(time.process_time() - t0)
            assert all(r.ok and r.hit for r in hits)
    finally:
        gc.enable()
    lookup_s = statistics.median(lookup_rounds)

    warm_pps = n_requests / warm_s
    cold_pps = n_requests / cold_s
    payload = {
        "n_requests": n_requests,
        "n_unique": n_unique,
        "machines": machines,
        "percall_pps": round(percall_pps, 1),
        "percall_sampled": len(sample),
        "cold_pps": round(cold_pps, 1),
        "warm_pps": round(warm_pps, 1),
        "lookups_per_s": round(n_lookups / lookup_s, 1),
        "lookup_rounds": LOOKUP_ROUNDS,
        "warm_speedup": round(warm_pps / percall_pps, 1),
        "cold_speedup": round(cold_pps / percall_pps, 1),
        "warm_speedup_floor": WARM_SPEEDUP_FLOOR,
        "cache": service.stats()["predictions"],
    }
    bench_json(BENCH_PATH, payload)
    emit("BENCH_service", json.dumps(payload, indent=1))

    if not smoke:
        assert warm_pps >= WARM_SPEEDUP_FLOOR * percall_pps, (
            f"warm-cache predictions/sec must stay >= {WARM_SPEEDUP_FLOOR}x "
            f"over per-call predict_sizes at {n_requests} requests, got "
            f"{warm_pps / percall_pps:.1f}x"
        )
        assert cold_pps >= percall_pps, (
            f"cold service must not be slower than per-call predict_sizes, "
            f"got {cold_pps:.0f} vs {percall_pps:.0f} pps"
        )
