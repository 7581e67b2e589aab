"""One iteration of one benchmark workload, run in a fresh process.

``run.py`` starts this file once per iteration::

    python3 perfbench/worker.py --workload W --mode timed|inline|traced \
        --work DIR --out RESULT.json --run-id ID --t-spawn T [--size tiny]

and once per invocation with ``--mode prepare`` for ``serve_mixed``,
which writes that workload's seeded request stream and fills its
result store before anything is timed.

A timed iteration imports ``repro`` from the checkout's ``src/``,
builds the workload's program objects, times the workload through the
program's public API, then checks its outputs (untimed).  ``inline`` is
a timed iteration of the sweep with one worker, the baseline of its
traced run.  A traced
iteration does the same with the layer entry points wrapped
(:mod:`spans`) and writes the spans out when the run ends.  The result
is one JSON object in ``--out``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
N_REQUESTS = 50_000  # serve_mixed replay length

_clock = time.perf_counter


def _import_repro() -> None:
    """Put the checkout's ``src/`` first on the path; refuse any other
    ``repro`` (an installed copy would be measuring the wrong code)."""
    pkg = SRC / "repro"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no repro package under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}")


def _sha(*parts: bytes) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p)
    return h.hexdigest()


def _canon(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def _dump_clock_fs():
    """A ``VirtualFileSystem`` that timestamps its metadata writes, so the
    end of every dump (its last ``Cell_H``) is observable from outside."""
    from repro.iosim.filesystem import VirtualFileSystem

    class DumpClockFS(VirtualFileSystem):
        def __init__(self) -> None:
            super().__init__()
            self.stamps: Dict[str, float] = {}

        def write_text(self, path: str, text: str) -> int:
            n = super().write_text(path, text)
            self.stamps[path.split("/", 1)[0]] = _clock()
            return n

    return DumpClockFS()


def _dump_ends(fs) -> List[float]:
    return sorted(fs.stamps.values())


def _diff_ms(stamps: List[float], t0: float) -> List[float]:
    edges = [t0] + list(stamps)
    return [1e3 * (b - a) for a, b in zip(edges, edges[1:])]


# ----------------------------------------------------------------------
# workloads: __init__ builds program objects (setup), run() is the
# timed section, observe() reads timing off the benchmark's own objects,
# check() validates outputs against the reference.

class SolverSedov:
    """``CastroSim.run()`` on the ``examples/sedov_blast_amr.py`` inputs."""

    def __init__(self, ctx) -> None:
        from repro.hydro.sedov import SedovProblem
        from repro.sim.castro import CastroSim
        from repro.sim.inputs import CastroInputs

        n, max_level, max_step, plot_int = (
            (16, 1, 4, 2) if ctx.tiny else (64, 2, 24, 8))
        self.inputs = CastroInputs(
            n_cell=(n, n), max_level=max_level, max_step=max_step,
            plot_int=plot_int, regrid_int=2, cfl=0.5, stop_time=1e9,
            max_grid_size=32, blocking_factor=8,
        )
        self.problem = SedovProblem(r_init=0.06)
        self.fs = _dump_clock_fs()
        self.sim = CastroSim(self.inputs, nprocs=4, problem=self.problem,
                             fs=self.fs)

    def run(self) -> None:
        self.result = self.sim.run()

    def observe(self, t0: float, t1: float) -> Dict:
        ends = _dump_ends(self.fs)
        # the step-0 dump precedes any hydro work; the first result is
        # the first dump that follows a compute phase
        return {"first_result_s": ends[1] - t0,
                "batch_ms": _diff_ms(ends[1:], ends[0])}

    def check(self, ref: Dict) -> Dict:
        from repro.sim.diagnostics import shock_radius_estimate

        import numpy as np

        sim, res = self.sim, self.result
        masses = np.asarray(res.mass_history, dtype=np.float64)
        drift = abs(masses[-1] - masses[0]) / masses[0]
        g = sim._g
        r_meas = shock_radius_estimate(sim._U[:, g:-g, g:-g], sim._fine_geom,
                                       center=self.problem.center)
        ratio = r_meas / max(self.problem.shock_radius(res.final_time), 1e-12)
        lo, hi = ref["shock_ratio_band"]
        slr = sorted(res.trace.bytes_step_level_rank().items())
        digest = _sha(_canon([[list(k), v] for k, v in slr]),
                      _canon([float(m).hex() for m in masses]))
        return {
            "checks": {
                "mass_drift": bool(drift <= ref["mass_drift_max"]),
                "shock_ratio_band": bool(lo <= ratio <= hi),
                "digest": digest == ref["digest"],
            },
            "digest": digest,
            "info": {"mass_drift": float(drift), "shock_ratio": float(ratio)},
            "ops": 1,
            "ops_failed": 0,
            "counters": {"amr.level_reuse_frac": _reuse(sim.hierarchy)},
        }


def _reuse(hierarchy) -> float:
    st = hierarchy.regrid_stats
    total = st["levels_reused"] + st["levels_rebuilt"]
    return st["levels_reused"] / total if total else 0.0


class SweepTable3:
    """The ``paper_sweep()`` cases with L0 <= 2048^2 through a 2-worker
    ``CampaignExecutor`` into a cold ``ShardedResultStore``."""

    def __init__(self, ctx) -> None:
        from repro.campaign.executor import CampaignExecutor
        from repro.campaign.shard import ShardedResultStore
        from repro.campaign.sweep import paper_sweep

        limit = 64 if ctx.tiny else 2048
        self.cases = [c for c in paper_sweep() if c.inputs.n_cell[0] <= limit]
        # the traced run (and its plain "inline" baseline) runs in this
        # process, so every span is recorded in one place
        self.workers = 2 if ctx.mode == "timed" else 1
        self.store_dir = ctx.work / f"store-{ctx.run_id}"
        if self.store_dir.exists():
            raise SystemExit(f"perfbench: store {self.store_dir} is not cold")
        self.store = ShardedResultStore(str(self.store_dir))
        self.executor = CampaignExecutor(max_workers=self.workers,
                                         store=self.store)
        self.done: Dict[str, float] = {}

    def run(self) -> None:
        def progress(name: str, dt: float) -> None:
            self.done[name] = _clock()

        self.result = self.executor.run(self.cases, progress=progress)

    def observe(self, t0: float, t1: float) -> Dict:
        res = self.result
        secs = res.seconds
        wall = t1 - t0
        return {
            "first_result_s": min(self.done.values()) - t0,
            # every case is due at the start of the sweep
            "batch_ms": [1e3 * (t - t0) for t in self.done.values()],
            "counters": {
                "campaign.cases": len(res.records),
                "campaign.busy_frac": sum(secs.values()) / (self.workers * wall),
                "campaign.queue_wait_s": sum(
                    self.done[n] - secs[n] - t0 for n in self.done),
                "campaign.retries": res.n_retries,
                "campaign.store_bytes": sum(
                    p.stat().st_size for p in self.store_dir.iterdir()),
            },
        }

    def check(self, ref: Dict) -> Dict:
        res = self.result
        digest = _sha(_canon([asdict(r) for r in res.records]))
        return {"checks": {"digest": digest == ref["digest"]},
                "digest": digest,
                "ops": len(self.cases),
                "ops_failed": len(res.failures),
                "info": {"failures": sorted(res.failures)}}


class ModelLongrun:
    """The ``repro-model`` path on Table III's long-horizon corner: one
    workload-engine case (case4 settings, 128^2 L0, 4 levels,
    plot_int=1, 1000 steps, 4 ranks), then calibrate, verify (MACSio)
    and the per-level/per-rank load analyses over its trace."""

    def __init__(self, ctx) -> None:
        from repro.analysis import loadbalance
        from repro.campaign import runner
        from repro.campaign.cases import case4
        from repro.core import calibration

        n, max_step = (32, 40) if ctx.tiny else (128, 1000)
        base = case4()
        self.case = replace(
            base, name="model_longrun", nprocs=4,
            inputs=replace(base.inputs, n_cell=(n, n), max_level=3,
                           plot_int=1, max_step=max_step),
        )
        self.runner, self.calibration, self.loadbalance = (
            runner, calibration, loadbalance)
        self.fs = _dump_clock_fs()

    def run(self) -> None:
        cal, lb = self.calibration, self.loadbalance
        nprocs = self.case.nprocs
        self.result = self.runner.run_case(self.case, fs=self.fs)
        self.t_result = _clock()
        self.report = cal.calibrate_from_result(self.result)
        self.verification = cal.verify_proxy(self.report)
        trace = self.result.trace
        self.loads = lb.imbalance_report(lb.per_level_loads(trace, nprocs))
        self.rank_bytes = trace.bytes_per_rank(nprocs=nprocs)

    def observe(self, t0: float, t1: float) -> Dict:
        ends = _dump_ends(self.fs)
        return {"first_result_s": self.t_result - t0,
                "batch_ms": _diff_ms(ends[1:], ends[0])}

    def check(self, ref: Dict) -> Dict:
        import numpy as np

        cols = self.result.trace.columns()
        rep, ver = self.report, self.verification
        digest = _sha(
            b"".join(np.ascontiguousarray(a).tobytes() for a in (
                cols.step, cols.level, cols.rank, cols.nbytes, cols.kind,
                cols.path)),
            _canon([list(cols.kinds), list(cols.paths)]),
            _canon([float(rep.f).hex(), float(rep.growth.growth).hex(),
                    float(ver.mean_rel_error).hex()]),
        )
        n_dumps = self.case.inputs.max_step // self.case.inputs.plot_int + 1
        return {
            "checks": {
                "dumps": len(self.result.outputs) == n_dumps,
                "verified": bool(math.isfinite(ver.mean_rel_error)),
                "loads": len(self.loads) == self.case.inputs.max_level + 1,
                "digest": digest == ref["digest"],
            },
            "digest": digest,
            "info": {"f": rep.f, "dataset_growth": rep.growth.growth,
                     "mean_rel_error": ver.mean_rel_error,
                     "records": len(self.result.trace)},
            "ops": 1,
            "ops_failed": 0,
        }


class _FlushClock:
    """The replay's output sink: a file that timestamps every flush
    (``serve_stream`` flushes once per answered batch)."""

    def __init__(self, fh) -> None:
        self.fh = fh
        self.flushes: List[float] = []
        self.nbytes = 0

    def write(self, text: str) -> int:
        self.nbytes += len(text)
        return self.fh.write(text)

    def flush(self) -> None:
        self.fh.flush()
        self.flushes.append(_clock())


class ServeMixed:
    """A seeded JSONL replay through ``serve_stream`` against
    ``PredictionService(cache_size=4096)`` over a prefilled sharded store.
    Closed loop, one client: the next batch is read once the previous
    one is answered and flushed."""

    def __init__(self, ctx) -> None:
        from repro.campaign.shard import ShardedResultStore
        from repro.service import PredictionService
        from repro.service import serve

        self.ctx = ctx
        self.serve = serve
        self.requests = ctx.work / "requests.jsonl"
        self.responses = ctx.work / f"responses-{ctx.run_id}.jsonl"
        with open(self.requests, "rb") as fh:
            self.n_requests = sum(1 for _ in fh)
        self.batch_size = max(1, self.n_requests // 200)
        self.store = ShardedResultStore(str(ctx.work / "serve_store"))
        self.service = PredictionService(store=self.store, cache_size=4096)

    def run(self) -> None:
        with open(self.requests, "r", encoding="utf-8") as infile, \
                open(self.responses, "w", encoding="utf-8") as outfile:
            self.sink = _FlushClock(outfile)
            self.report = self.serve.serve_stream(
                self.service, infile, self.sink, batch_size=self.batch_size)

    def observe(self, t0: float, t1: float) -> Dict:
        flushes = self.sink.flushes
        stats = self.service.stats()
        lru = stats["predictions"]
        rep = self.report
        return {
            # one ~50 ms batch is too short to time steadily on a shared
            # host: the first results are the first tenth of the stream
            "first_result_s": flushes[max(0, len(flushes) // 10 - 1)] - t0,
            "batch_ms": _diff_ms(flushes, t0),
            "counters": {
                "service.lru_hit_frac": lru["hits"] / max(1, lru["hits"] + lru["misses"]),
                "service.lru_evictions": lru["evictions"],
                "service.predicted": stats["predicted"],
                "service.store_hit_frac": rep.n_store_hits / max(1, rep.n_lookup),
                "service.resp_bytes": self.sink.nbytes,
            },
        }

    def trace_wire(self, rec, t0: float, t1: float) -> None:
        """The wire (reading request lines, encoding and writing
        responses) is everything in the replay outside ``serve_lines``."""
        edges = [t0]
        for name, s, e in zip(rec.names, rec.start, rec.end):
            if name == "service.serve":
                edges += [s, e]
        edges.append(t1)
        for a, b in zip(edges[::2], edges[1::2]):
            rec.add("service.wire", a, b)

    def check(self, ref: Dict) -> Dict:
        h = hashlib.sha256()
        n_lines = 0
        with open(self.responses, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
                n_lines += chunk.count(b"\n")
        digest = h.hexdigest()
        want = ref["digest_by_seed"].get(str(self.ctx.seed))
        checks = {
            "lines": n_lines == self.n_requests,
            # seeds without a recorded reference are checked against the
            # one-shot prediction path and the store instead (below) and
            # for identical digests across iterations (run.py)
            "digest": want is None or digest == want,
        }
        checks.update(self._oracle())
        self.responses.unlink()
        return {"checks": checks, "digest": digest,
                "ops": self.report.n_requests,
                "ops_failed": self.report.n_errors,
                "info": {"errors": self.report.n_errors,
                         "reference": want is not None}}

    def _oracle(self, per_op: int = 48) -> Dict[str, bool]:
        """Spot-check sampled responses against ``predict_sizes`` (predicts)
        and a freshly opened store (lookups)."""
        import numpy as np

        from repro.campaign.cases import CASE_REGISTRY
        from repro.campaign.shard import ShardedResultStore
        from repro.core.predictor import predict_sizes

        rng = np.random.default_rng(self.ctx.seed)
        picks = set(rng.choice(self.n_requests, size=min(self.n_requests, 4 * per_op),
                               replace=False).tolist())
        pairs = []
        with open(self.requests, "r", encoding="utf-8") as rq, \
                open(self.responses, "r", encoding="utf-8") as rs:
            for i, (q, r) in enumerate(zip(rq, rs)):
                if i in picks:
                    pairs.append((json.loads(q), json.loads(r)))
        store = ShardedResultStore(str(self.ctx.work / "serve_store"))
        out: Dict[str, bool] = {}
        n_pred = n_look = 0
        for q, r in pairs:
            case = CASE_REGISTRY[q["scenario"]]
            if q.get("op") == "lookup":
                if n_look == per_op:
                    continue
                case = case.on_machine(q["machine"])
                rec = store.get_for(case)
                ok = r["ok"] and r["hit"] == (rec is not None) and (
                    rec is None or r["total_bytes"] == float(sum(rec.step_bytes)))
                out[f"lookup:{r['index']}"] = bool(ok)
                n_look += 1
                continue
            if n_pred == per_op:
                continue
            inputs = case.inputs
            if q.get("steps") is not None:
                inputs = replace(inputs, max_step=q["steps"])
            p = predict_sizes(inputs, q["nprocs"], platform=q["machine"])
            ok = (r["ok"] and r["step_bytes"] == [float(v) for v in p.step_bytes]
                  and r["burst_seconds"] == [float(v) for v in p.burst_seconds]
                  and r["total_bytes"] == p.total_bytes)
            out[f"predict:{r['index']}"] = bool(ok)
            n_pred += 1
        return out


CLASSES = {
    "solver_sedov": SolverSedov,
    "sweep_table3": SweepTable3,
    "model_longrun": ModelLongrun,
    "serve_mixed": ServeMixed,
}
WORKLOADS = tuple(CLASSES)


# ----------------------------------------------------------------------
# serve_mixed inputs (made before anything is timed)

NPROCS_GRID = (1, 2, 4, 8, 16, 32, 48, 64, 96, 128, 192, 256, 384, 512)
STEPS_GRID = (None, 20, 40, 60, 80, 100, 150, 200, 250, 300, 400, 500)
# registry scenarios stored before the replay: 4 of 12 scenarios on every
# machine, so about a third of the lookups hit
STORED = ("case4_cfl3_maxl2", "case4_cfl4_maxl2", "case4_cfl5_maxl2",
          "case4_cfl6_maxl2")


def prepare_serve(ctx) -> Dict:
    """Fill the store and write the seeded request stream (vectorised:
    one JSON string per unique config, then one fancy-index gather)."""
    import numpy as np

    from repro.campaign.cases import CASE_REGISTRY, cases_on_machines
    from repro.campaign.runner import run_campaign
    from repro.campaign.shard import ShardedResultStore
    from repro.platform import available_platforms

    machines = sorted(available_platforms())
    scenarios = sorted(CASE_REGISTRY)
    stored = STORED[:1] if ctx.tiny else STORED
    store = ShardedResultStore(str(ctx.work / "serve_store"))
    filled = run_campaign(
        cases_on_machines([CASE_REGISTRY[s] for s in stored], machines),
        store=store)
    if filled.failures:
        raise SystemExit(f"perfbench: store fill failed: {sorted(filled.failures)}")

    n = 2000 if ctx.tiny else N_REQUESTS
    rng = np.random.default_rng(ctx.seed)
    predicts = np.array([
        json.dumps({"op": "predict", "scenario": s, "machine": m,
                    "nprocs": p, "steps": k}, separators=(",", ":"))
        for s in scenarios for m in machines
        for p in NPROCS_GRID for k in STEPS_GRID
    ], dtype=object)
    lookups = np.array([
        json.dumps({"op": "lookup", "scenario": s, "machine": m},
                   separators=(",", ":"))
        for s in scenarios for m in machines
    ], dtype=object)
    # Zipf(1.1) popularity; which configs are hot is part of the workload
    # (fixed), the seed draws the stream from it
    k = len(predicts)
    weights = np.arange(1, k + 1, dtype=np.float64) ** -1.1
    order = np.random.default_rng(0).permutation(k)
    pred_pick = order[rng.choice(k, size=n, p=weights / weights.sum())]
    look_pick = rng.integers(0, len(lookups), size=n)
    is_lookup = rng.random(n) < 0.15
    lines = np.where(is_lookup, lookups[look_pick], predicts[pred_pick])
    with open(ctx.work / "requests.jsonl", "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines.tolist()))
        fh.write("\n")
    return {"requests": n, "unique_predicts": k, "stored": len(filled.records)}


# ----------------------------------------------------------------------

def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--mode", choices=("timed", "inline", "traced", "prepare"),
                    required=True)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--run-id", default="0")
    ap.add_argument("--t-spawn", type=float, default=None)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ctx = ap.parse_args(argv)
    ctx.tiny = ctx.size == "tiny"
    t_spawn = time.monotonic() if ctx.t_spawn is None else ctx.t_spawn

    _import_repro()
    if ctx.mode == "prepare":
        ctx.out.write_text(json.dumps(prepare_serve(ctx)))
        return 0

    rec = None
    if ctx.mode == "traced":
        import spans

        rec = spans.Recorder(f"{ctx.workload}-{ctx.run_id}")
        spans.install(rec)
    ref = json.loads((HERE / "reference.json").read_text())[ctx.size][ctx.workload]
    workload = CLASSES[ctx.workload](ctx)

    setup_s = time.monotonic() - t_spawn
    t0 = _clock()
    workload.run()
    t1 = _clock()

    obs = workload.observe(t0, t1)
    result = {
        "workload": ctx.workload,
        "mode": ctx.mode,
        "run_id": ctx.run_id,
        "setup_s": setup_s,
        "wall_s": t1 - t0,
        "first_result_s": obs["first_result_s"],
        "batch_ms": obs["batch_ms"],
        "peak_rss_mb": _peak_rss_mb(),
    }
    checked = workload.check(ref)
    counters = {**obs.get("counters", {}), **checked.pop("counters", {})}
    result.update(checked, counters=counters)
    if rec is not None:
        if ctx.workload == "serve_mixed":
            workload.trace_wire(rec, t0, t1)
        spans_path = ctx.work / f"spans-{ctx.run_id}.json"
        rec.dump(str(spans_path), t0, t1)
        result["spans"] = str(spans_path)
    ctx.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
