#!/usr/bin/env python3
"""Fast self-test of the benchmark harness at toy sizes (about a minute).

    python3 perfbench/selftest.py

Runs every workload through ``run.py --size tiny``, plain and traced, and
asserts the output contract: the last line of stdout is one JSON object
with exactly ``correct``/``attempted``/``failed``/``metrics``, the run is
correct, every metric ``BENCHMARK.json`` names is emitted with its unit,
and every output check of the workload ran.  Then checks that the
benchmark refuses to run (nonzero exit, no result) in a directory that
holds only ``BENCHMARK.json`` and ``perfbench/``.

Deliberately not named ``test_*.py``: the repo's pytest run collects
those, and this drives whole benchmark processes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7  # the tiny serve_mixed reference digest is recorded for this seed
EXPECTED_CHECKS = {
    "solver_sedov": {"mass_drift", "shock_ratio_band", "digest"},
    "sweep_table3": {"digest"},
    "model_longrun": {"dumps", "verified", "loads", "digest"},
    "serve_mixed": {"lines", "digest", "predict", "lookup"},
}


def _bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def check_run(spec: dict, workload: str, trace: int) -> None:
    proc = _bench(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    assert proc.returncode == 0, f"{where} exited {proc.returncode}:\n{proc.stderr}"
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}, where
    assert out["correct"] is True and out["failed"] == 0, f"{where}:\n{proc.stderr}"
    assert isinstance(out["attempted"], int) and out["attempted"] >= 1, where
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert set(out["metrics"]) == set(want), f"{where}: metric names differ"
    for name, unit in want.items():
        got = out["metrics"][name]
        assert set(got) == {"value", "unit"} and got["unit"] == unit, (where, name)
        assert isinstance(got["value"], (int, float)), (where, name)
    ran = set()
    for line in proc.stderr.splitlines():
        if line.startswith("# checks run:"):
            ran |= set(line.split(":", 1)[1].split())
    missing = EXPECTED_CHECKS[workload] - ran
    assert not missing, f"{where}: checks not run: {sorted(missing)}"


def check_bare_directory() -> None:
    bare = ROOT / ".bench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _bench(bare, "solver_sedov", 0)
        assert proc.returncode != 0, "ran without the program's sources"
        assert '"correct"' not in proc.stdout, "printed a result without sources"
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    assert set(names) == set(EXPECTED_CHECKS), names
    for workload in names:
        for trace in (0, 1):
            check_run(spec, workload, trace)
            print(f"ok  {workload} --trace {trace}")
    check_bare_directory()
    print("ok  refuses to run without src/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
