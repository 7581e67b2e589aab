#!/usr/bin/env python3
"""Paired parent/change comparison of one perfbench workload.

    python -m tools.abtest PARENT CHANGE --workload W --pairs N

``PARENT`` and ``CHANGE`` are two checkouts of this repository (for
example a ``git worktree`` of the parent commit and the working tree).
Each pair runs ``perfbench/run.py --trace 0`` once in each checkout,
and the pairs alternate their order — A,B then B,A, so the runs go
A,B,B,A,A,B,… — so that drift of a shared host falls on both sides
alike.  Every run is a fresh ``perfbench`` invocation with identical
settings: the run length is ``BENCHMARK.json``'s ``run_seconds`` and
the seed is :data:`SEED` (only ``serve_mixed`` reads it).  A run's last
stdout line is its JSON result.

For every end-to-end metric of ``BENCHMARK.json`` the table shows the
parent's median and interquartile range, the change's median, the
change/parent ratio of the medians, and the pairs the change won.  The
verdict (:func:`verdict`) is

* ``regression`` when its median is worse than the parent's by more
  than the metric's ``BENCHMARK.json`` bound (a fraction of the
  parent's median);
* ``gain`` when at least 10 pairs ran, the change won at least 9 of
  every 10 *and* its median beats the parent's by more than the
  parent's IQR — provided the change failed no larger share of its
  operations than the parent;
* ``unresolved`` when it would be a gain but the change failed a
  larger share of its operations, or when the parent's IQR is wider
  than the bound, unless every change run beat every parent run: such
  a run cannot show "no change";
* ``same`` otherwise.

Failures are counted per side over all runs: runs with
``"correct": false`` and the ``failed`` of ``attempted`` operations
perfbench reports.  The last stdout line is one JSON object with every
sample, count and verdict.  The exit code is 1 when a metric regressed
or any run, on either side, reported ``"correct": false``.
``perfbench/`` and ``BENCHMARK.json`` are only read.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SEED = 21  # perfbench's --seed for every run, on both sides
MIN_GAIN_PAIRS = 10  # fewer pairs cannot support a gain
WIN_FRAC = 0.9  # a gain must win at least 9 of every 10 pairs
SIDES = ("parent", "change")


def load_benchmark(path: Path = ROOT / "BENCHMARK.json"
                   ) -> Tuple[Dict[str, Dict], float]:
    """``({metric: {"better": "lower"|"higher", "bound": frac}},
    run_seconds)``: the end-to-end metrics in ``BENCHMARK.json`` order
    and the run length the benchmark fixes."""
    spec = json.loads(path.read_text())
    bounds = {m["name"]: {"better": m["better"], "bound": float(m["bound"])}
              for m in spec["end_to_end"]}
    return bounds, float(spec["run_seconds"])


def verdict(parent: Sequence[float], change: Sequence[float], better: str,
            bound: float, change_failed_more: bool = False) -> Dict:
    """Compare paired samples of one metric; ``parent[i]`` and
    ``change[i]`` come from pair ``i``.

    A pair is a win when the change is strictly better.  The gap is the
    parent's median minus the change's for a lower-is-better metric
    (the reverse for higher-is-better), so a positive gap is an
    improvement; a regression is a negative gap beyond ``bound`` times
    the parent's median.  ``change_failed_more`` says the change failed
    a larger share of its operations than the parent, which turns a
    gain into ``unresolved``.  The verdicts are checked in the order the
    module docstring lists them.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError(f"need equal, non-empty samples: {len(parent)} "
                         f"parent vs {len(change)} change")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', not {better!r}")
    p = np.asarray(parent, dtype=float)
    c = np.asarray(change, dtype=float)
    sign = 1.0 if better == "lower" else -1.0
    p_med = float(np.median(p))
    c_med = float(np.median(c))
    q1, q3 = np.percentile(p, [25, 75])
    p_iqr = float(q3 - q1)
    gap = sign * (p_med - c_med)
    wins = int(np.count_nonzero(sign * (p - c) > 0))
    pairs = len(p)
    allowed = bound * abs(p_med)
    gained = (pairs >= MIN_GAIN_PAIRS and wins >= math.ceil(WIN_FRAC * pairs)
              and gap > p_iqr)
    if -gap > allowed:
        outcome = "regression"
    elif gained and not change_failed_more:
        outcome = "gain"
    elif gained or (p_iqr > allowed and (sign * c).max() >= (sign * p).min()):
        outcome = "unresolved"
    else:
        outcome = "same"
    return {
        "parent_median": p_med,
        "parent_iqr": p_iqr,
        "change_median": c_med,
        "ratio": c_med / p_med if p_med else math.nan,
        "wins": wins,
        "pairs": pairs,
        "bound": bound,
        "verdict": outcome,
    }


def judge(runs: Dict[str, List[Dict]], bounds: Dict[str, Dict]) -> Dict:
    """Failure counts and the verdict of every bounded metric, from
    paired perfbench results: ``runs["parent"][i]`` and
    ``runs["change"][i]`` come from pair ``i``."""
    failures = {side: {"incorrect_runs": sum(not r["correct"] for r in rs),
                       "failed": sum(r["failed"] for r in rs),
                       "attempted": sum(r["attempted"] for r in rs)}
                for side, rs in runs.items()}
    p, c = failures["parent"], failures["change"]
    # failed/attempted compared without division: a faster side may run
    # more iterations, hence attempt more operations
    change_failed_more = c["failed"] * p["attempted"] > p["failed"] * c["attempted"]
    samples = {name: {side: [r["metrics"][name]["value"] for r in rs]
                      for side, rs in runs.items()}
               for name in bounds}
    verdicts = {name: verdict(s["parent"], s["change"], bounds[name]["better"],
                              bounds[name]["bound"], change_failed_more)
                for name, s in samples.items()}
    return {"pairs": len(runs["parent"]), "failures": failures,
            "change_failed_more": change_failed_more, "samples": samples,
            "verdicts": verdicts}


def run_once(checkout: Path, workload: str, seconds: float) -> Dict:
    """One ``perfbench/run.py --trace 0`` run in ``checkout``; its
    parsed JSON result."""
    cmd = [sys.executable, str(checkout / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(SEED),
           "--seconds", repr(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        last = (proc.stderr.strip().splitlines() or [""])[-1]
        raise RuntimeError(f"perfbench in {checkout} exited "
                           f"{proc.returncode}: {last}")
    return json.loads(lines[-1])


def compare(parent: Path, change: Path, workload: str, pairs: int) -> Dict:
    """Run ``pairs`` alternating pairs and judge every bounded metric."""
    bounds, seconds = load_benchmark()
    checkouts = {"parent": parent, "change": change}
    runs: Dict[str, List[Dict]] = {side: [] for side in SIDES}
    for i in range(pairs):
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            result = run_once(checkouts[side], workload, seconds)
            runs[side].append(result)
            print(f"# pair {i + 1}/{pairs} {side}: wall_s "
                  f"{result['metrics']['wall_s']['value']:.3f}",
                  file=sys.stderr, flush=True)
    return {"workload": workload, "seed": SEED, "seconds": seconds,
            **judge(runs, bounds)}


def format_table(report: Dict) -> str:
    head = (f"{'metric':14s} {'parent med':>11s} {'parent IQR':>11s} "
            f"{'change med':>11s} {'ratio':>7s} {'wins':>6s}  verdict")
    rows = [head]
    for name, v in report["verdicts"].items():
        rows.append(f"{name:14s} {v['parent_median']:11.4g} "
                    f"{v['parent_iqr']:11.4g} {v['change_median']:11.4g} "
                    f"{v['ratio']:7.3f} {v['wins']:>3d}/{v['pairs']:<2d}  "
                    f"{v['verdict']}")
    return "\n".join(rows)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    try:
        report = compare(args.parent.resolve(), args.change.resolve(),
                         args.workload, args.pairs)
    except RuntimeError as exc:
        print(f"abtest: {exc}", file=sys.stderr)
        return 1
    failures = report["failures"]
    print(f"{args.workload}: {args.pairs} pairs, {report['seconds']:g} s runs; "
          + "; ".join(f"{side} {f['incorrect_runs']} incorrect runs, "
                      f"{f['failed']}/{f['attempted']} operations failed"
                      for side, f in failures.items()))
    print(format_table(report))
    print(json.dumps(report))
    regressed = any(v["verdict"] == "regression"
                    for v in report["verdicts"].values())
    incorrect = any(f["incorrect_runs"] for f in failures.values())
    return 1 if regressed or incorrect else 0


if __name__ == "__main__":
    sys.exit(main())
