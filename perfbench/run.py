#!/usr/bin/env python3
"""End-to-end benchmark of the four user-facing runs of this repo.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads (``BENCHMARK.json`` says why each was chosen; the layers each
one exercises or bypasses are in ``perfbench/reference.json``):

* ``solver_sedov``  — ``CastroSim.run()`` on the Sedov example inputs;
* ``sweep_table3``  — the 31 Table-III cases up to 2048^2 through a
  2-worker ``CampaignExecutor`` into a cold ``ShardedResultStore``;
* ``model_longrun`` — the ``repro-model`` path (run, calibrate, verify,
  load analyses) on a 1001-dump long-horizon case;
* ``serve_mixed``   — a seeded 5x10^4-request JSONL replay through
  ``serve_stream`` (the ``repro-serve`` loop).

Every iteration runs in a fresh process (``worker.py``) that imports
``repro`` from this checkout's ``src/``; iterations repeat until
``--seconds`` would be exceeded and the reported figures are medians.
Only ``serve_mixed`` depends on ``--seed`` (its request stream); the
other three are fixed paper configurations.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
a plain iteration with a traced one, whose spans give the per-layer
split (``spans.py``), and prints the per-layer metrics.
Outputs are checked in both modes: physics invariants, sha256 digests
equal across iterations and to the recorded reference, and (for the
replay) spot checks against the one-shot prediction path.  The last
line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.

``--size tiny`` runs toy sizes for the harness self-test
(``selftest.py``).  Scratch files live under ``.bench_work/`` in the
checkout and are removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

from worker import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HARD_LIMIT_S = 170.0  # the whole invocation, children included
MIN_ITERATIONS = 2  # plain iterations per --trace 0 run, however short
MAX_ITERATIONS = 8

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "first_result_s": "s",
    "batch_ms_p50": "ms",
    "batch_ms_p95": "ms",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}


def _p50_p95(values: List[float]):
    cuts = statistics.quantiles(values, n=20, method="inclusive")
    return cuts[9], cuts[18]


class Bench:
    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.t_start = time.monotonic()
        self.work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"

    # -- child processes ------------------------------------------------
    def spawn(self, mode: str, run_id: str) -> Dict:
        out = self.work / f"result-{run_id}.json"
        remaining = HARD_LIMIT_S - (time.monotonic() - self.t_start)
        if remaining <= 0:
            raise RuntimeError("time limit reached before the run finished")
        env = dict(os.environ, TMPDIR=str(self.work / "tmp"))
        cmd = [sys.executable, str(HERE / "worker.py"),
               "--workload", self.args.workload, "--mode", mode,
               "--work", str(self.work), "--out", str(out),
               "--run-id", run_id, "--seed", str(self.args.seed),
               "--size", self.args.size,
               "--t-spawn", repr(time.monotonic())]
        # own session: a timeout takes the worker's pool processes too
        proc = subprocess.Popen(cmd, env=env, stdout=sys.stderr,
                                start_new_session=True)
        try:
            code = proc.wait(timeout=remaining)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise RuntimeError(f"{mode} iteration {run_id} timed out")
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)  # stray grandchildren
            except ProcessLookupError:
                pass
        if code != 0:
            raise RuntimeError(f"{mode} iteration {run_id} exited {code}")
        return json.loads(out.read_text())

    def iterate(self) -> List[Dict]:
        """Fresh-process iterations until ``--seconds`` would be exceeded.

        Plain runs make at least :data:`MIN_ITERATIONS`; a trace run makes
        at least one cycle of a plain and a traced iteration.  The traced
        sweep runs inline, so its cycle adds an inline plain iteration as
        the baseline for the tracing overhead.
        """
        if not self.args.trace:
            modes, least = ("timed",), MIN_ITERATIONS
        elif self.args.workload == "sweep_table3":
            modes, least = ("timed", "inline", "traced"), 1
        else:
            modes, least = ("timed", "traced"), 1
        t0 = time.monotonic()
        results: List[Dict] = []
        cycle_s: List[float] = []
        for it in range(MAX_ITERATIONS):
            c0 = time.monotonic()
            for mode in modes:
                results.append(self.spawn(mode, f"{mode}-{it}"))
            cycle_s.append(time.monotonic() - c0)
            if it + 1 >= least and (time.monotonic() - t0
                                    + statistics.median(cycle_s)
                                    > self.args.seconds):
                break
        return results

    def run(self) -> Dict:
        self.work.mkdir(parents=True)
        (self.work / "tmp").mkdir()
        try:
            if self.args.workload == "serve_mixed":
                self.spawn("prepare", "prep")
            results = self.iterate()
            return self.report(results)
        finally:
            shutil.rmtree(self.work, ignore_errors=True)
            try:
                self.work.parent.rmdir()
            except OSError:
                pass  # another run's scratch is still there

    # -- aggregation ----------------------------------------------------
    def report(self, results: List[Dict]) -> Dict:
        attempted = failed = 0
        bad: List[str] = []
        for r in results:
            checks = r["checks"]
            attempted += len(checks) + r["ops"]
            failed += r["ops_failed"] + sum(not ok for ok in checks.values())
            bad += [f"{r['run_id']}:{k}" for k, ok in checks.items() if not ok]
        digests = sorted({r["digest"] for r in results})
        attempted += 1
        if len(digests) != 1:
            failed += 1
            bad.append("digest differs across iterations")
        timed = [r for r in results if r["mode"] == "timed"]
        if self.args.trace:
            metrics = self.per_layer(timed, results)
        else:
            metrics = self.end_to_end(timed, attempted, failed)
        for r in results:
            print(f"# {r['mode']} {r['run_id']}: wall {r['wall_s']:.3f} s "
                  f"setup {r['setup_s']:.3f} s {json.dumps(r['info'])}",
                  file=sys.stderr)
        ran = sorted({k.split(":")[0] for r in results for k in r["checks"]})
        print(f"# checks run: {' '.join(ran)}", file=sys.stderr)
        print(f"# digest {' '.join(digests)}", file=sys.stderr)
        for name in bad:
            print(f"# FAILED check {name}", file=sys.stderr)
        for name, m in metrics.items():
            print(f"{name:28s} {m['value']:.6g} {m['unit']}")
        return {"correct": failed == 0, "attempted": attempted,
                "failed": failed, "metrics": metrics}

    def end_to_end(self, timed: List[Dict], attempted: int,
                   failed: int) -> Dict:
        med = statistics.median
        pcts = [_p50_p95(r["batch_ms"]) for r in timed]
        values = {
            "setup_s": med(r["setup_s"] for r in timed),
            "wall_s": med(r["wall_s"] for r in timed),
            "first_result_s": med(r["first_result_s"] for r in timed),
            "batch_ms_p50": med(p50 for p50, _ in pcts),
            "batch_ms_p95": med(p95 for _, p95 in pcts),
            "peak_rss_mb": med(r["peak_rss_mb"] for r in timed),
            "ok_frac": 1.0 - failed / attempted,
        }
        return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}

    def per_layer(self, timed: List[Dict], results: List[Dict]) -> Dict:
        import spans

        traced = [r for r in results if r["mode"] == "traced"]
        baseline = [r for r in results if r["mode"] == "inline"] or timed

        # executor figures come from the plain (parallel) runs; the
        # traced sweep runs inline
        shared = {k: v for r in timed for k, v in r["counters"].items()
                  if k.startswith("campaign.")}
        shared["bench.trace_overhead_frac"] = (
            statistics.median(r["wall_s"] for r in traced)
            / statistics.median(r["wall_s"] for r in baseline) - 1.0)
        rows = []
        for r in traced:
            with open(r["spans"], encoding="utf-8") as fh:
                recorded = json.load(fh)
            rows.append(spans.reduce_spans(recorded, {**r["counters"], **shared}))
        return {name: {"value": statistics.median(row[name] for row in rows),
                       "unit": unit}
                for name, (unit, _) in spans.PER_LAYER.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: {ROOT} has no src/repro to measure",
              file=sys.stderr)
        return 2
    try:
        payload = Bench(args).run()
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
