#!/usr/bin/env python
"""bench-smoke: tiny-size run of every benchmark, artifact-checked.

Runs the full ``benchmarks/bench_*.py`` suite with ``REPRO_BENCH_SMOKE=1``
(the expensive benches shrink to harness checks — see the ``smoke``
fixture in ``benchmarks/conftest.py``) and ``REPRO_SANITIZE=1`` (the
runtime sanitizer of ``repro.sanitize`` soaks the cache/plan paths with
frozen buffers and checksummed replays), then asserts that every artifact
a bench declares via a literal ``emit("name", ...)`` call (plus the
``BENCH_*.json`` timing artifacts) was freshly written to
``benchmarks/output/``.  Catches bench-harness regressions — a bench
that stops emitting, a JSON artifact that stops parsing — without the
full bench cost.

Smoke runs write their JSON artifacts to ``BENCH_*_smoke.json`` (the
``bench_json`` fixture), so the checked-in full-size ``BENCH_*.json``
files — whose speedup floors only hold at full size — are never
clobbered by a tiny-size run.  This script enforces both sides: the
``_smoke`` variant must be fresh, and the full-size artifact must still
exist untouched and pass :data:`FULL_SIZE_CHECKS` — its bench's own
full-size assertions — so a smoke run or a missed floor cannot sit in
the tree as a full-size result (``tests/test_bench_artifacts.py`` runs
the same checks in the tier-1 suite).

Run via ``make bench-smoke`` or::

    PYTHONPATH=src python tools/bench_smoke.py
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time
from typing import Callable, Dict, List, Tuple

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
BENCH_DIR = os.path.join(ROOT, "benchmarks")
OUTPUT_DIR = os.path.join(BENCH_DIR, "output")

EMIT_RE = re.compile(r'emit\(\s*f?"([\w.-]+)"')
JSON_RE = re.compile(r'BENCH_PATH\s*=\s*os\.path\.join\(OUTPUT_DIR,\s*"([\w.-]+\.json)"')

# Measured columns the payloads must carry — a refactor that silently
# drops one fails here, not after an expensive full-size run.
REQUIRED_FIELDS = {
    "BENCH_trace.json": lambda p: "spill_maxrss_mb" in p.get("spill", {})
    and all("append_speedup" in row for row in p.get("rows", []))
    and bool(p.get("rows")),
}

Check = Tuple[bool, str]


def _full_size(payload: dict, *checks: Check) -> List[str]:
    """Failures of one full-size artifact: the smoke stamp the
    ``bench_json`` fixture writes, then every ``(ok, message)`` check
    that does not hold."""
    errors = ["smoke run (smoke: true)"] if payload.get("smoke") else []
    return errors + [message for ok, message in checks if not ok]


def _floor(what: str, value: float, floor: float) -> Check:
    return value >= floor, f"{what} {value} is below its floor {floor}"


def _ceiling(what: str, value: float, ceiling: float) -> Check:
    return value <= ceiling, f"{what} {value} is above its ceiling {ceiling}"


# One check per checked-in full-size artifact, mirroring the full-size
# assertions of the bench that writes it.  The keys are also the timing
# artifacts the suite must always declare, so a renamed or deleted bench
# cannot silently drop one from coverage.
FULL_SIZE_CHECKS: Dict[str, Callable[[dict], List[str]]] = {
    "BENCH_trace.json": lambda p: _full_size(
        p,
        (p["rows"][-1]["records"] == 1_000_000,
         "largest row is not 10^6 records"),
        _floor("aggregation speedup", p["rows"][-1]["agg_speedup"],
               p["speedup_floor"]),
        _floor("append speedup", p["rows"][0]["append_speedup"],
               p["append_parity_floor"]),
        _ceiling("spill peak RSS (MB)", p["spill"]["spill_maxrss_mb"],
                 p["spill"]["rss_ceiling_mb"]),
    ),
    "BENCH_campaign.json": lambda p: _full_size(
        p,
        _floor("n_cases", p["n_cases"], 8),
        (p["cached_s"] < p["serial_s"],
         "cached replay does not beat re-executing the sweep"),
        (p["cpu_count"] <= 1 or p["parallel_s"] < p["serial_s"],
         "parallel sweep does not beat serial on a multi-core host"),
    ),
    "BENCH_dump.json": lambda p: _full_size(p, *(
        _floor(f"{row} speedup", p[row]["speedup"], p[row]["floor"])
        for row in ("size_mode", "inspect")
    )),
    "BENCH_platforms.json": lambda p: _full_size(
        p, _floor("min burst speedup", p["min_speedup"], p["speedup_floor"])
    ),
    "BENCH_service.json": lambda p: _full_size(
        p,
        (p["warm_pps"] >= p["warm_speedup_floor"] * p["percall_pps"],
         f"warm path is below {p['warm_speedup_floor']}x per-call predict"),
        (p["cold_pps"] >= p["percall_pps"],
         "cold service is slower than per-call predict"),
    ),
    "BENCH_resilience.json": lambda p: _full_size(
        p, _ceiling("supervised overhead (%)", p["overhead"]["overhead_pct"],
                    p["overhead"]["bound_pct"])
    ),
    "BENCH_service_resilience.json": lambda p: _full_size(
        p, _ceiling("armed warm-path overhead", p["overhead_fraction"],
                    p["overhead_ceiling"])
    ),
}
REQUIRED_JSON = set(FULL_SIZE_CHECKS)


def full_size_errors(artifact: str, payload) -> List[str]:
    """Why a checked-in full-size artifact fails its bench's full-size
    assertions; empty when it passes."""
    check = FULL_SIZE_CHECKS.get(artifact)
    if check is None:
        return ["no full-size check declared (see FULL_SIZE_CHECKS)"]
    try:
        return check(payload)
    except (KeyError, IndexError, TypeError) as exc:
        return [f"missing measured field {exc!r}"]


def smoke_name(artifact: str) -> str:
    """The path a smoke run actually writes: ``BENCH_*_smoke.json`` for
    JSON artifacts (kept in lockstep with ``conftest.smoke_artifact_path``),
    the artifact itself otherwise."""
    if artifact.endswith(".json"):
        root, ext = os.path.splitext(artifact)
        return root + "_smoke" + ext
    return artifact


def expected_artifacts() -> Dict[str, List[str]]:
    """bench file -> artifact filenames declared by literal emit calls."""
    out: Dict[str, List[str]] = {}
    for name in sorted(os.listdir(BENCH_DIR)):
        if not (name.startswith("bench_") and name.endswith(".py")):
            continue
        with open(os.path.join(BENCH_DIR, name), encoding="utf-8") as fh:
            text = fh.read()
        artifacts = [f"{m}.txt" for m in EMIT_RE.findall(text)]
        artifacts += JSON_RE.findall(text)
        out[name] = sorted(set(artifacts))
    return out


def main() -> int:
    expected = expected_artifacts()
    declared = {a for artifacts in expected.values() for a in artifacts}
    missing_required = sorted(REQUIRED_JSON - declared)
    if missing_required:
        for name in missing_required:
            print(f"bench-smoke: no bench declares required artifact {name}",
                  file=sys.stderr)
        return 1
    start = time.time()
    # REPRO_SANITIZE: the smoke pass doubles as a sanitizer soak — every
    # bench's cache/plan traffic runs with frozen buffers and checksummed
    # replays (full-size runs stay unsanitized so timings are honest).
    env = dict(os.environ, REPRO_BENCH_SMOKE="1", REPRO_SANITIZE="1")
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "benchmarks", "-q",
         "-o", "python_files=bench_*.py", "-p", "no:cacheprovider"],
        cwd=ROOT, env=env,
    )
    if proc.returncode != 0:
        print("bench-smoke: pytest failed", file=sys.stderr)
        return proc.returncode

    errors: List[str] = []
    for bench, artifacts in expected.items():
        if not artifacts:
            errors.append(f"{bench}: declares no emit(...) artifact")
        for artifact in artifacts:
            written = smoke_name(artifact)
            path = os.path.join(OUTPUT_DIR, written)
            if not os.path.exists(path):
                errors.append(f"{bench}: artifact {written} missing")
                continue
            if os.path.getmtime(path) < start:
                errors.append(f"{bench}: artifact {written} not rewritten by this run")
            elif written.endswith(".json"):
                try:
                    with open(path, encoding="utf-8") as fh:
                        payload = json.load(fh)
                except ValueError as exc:
                    errors.append(f"{bench}: artifact {written} is not valid JSON: {exc}")
                else:
                    field_check = REQUIRED_FIELDS.get(artifact)
                    if field_check is not None and not field_check(payload):
                        errors.append(
                            f"{bench}: artifact {written} is missing a "
                            "required measured field (see REQUIRED_FIELDS)")
            if written == artifact:
                continue
            # the full-size artifact must survive the smoke run untouched
            full = os.path.join(OUTPUT_DIR, artifact)
            if not os.path.exists(full):
                errors.append(
                    f"{bench}: full-size artifact {artifact} missing "
                    f"(run the full bench to regenerate it)")
            elif os.path.getmtime(full) >= start:
                errors.append(
                    f"{bench}: smoke run overwrote full-size artifact {artifact}")
            else:
                with open(full, encoding="utf-8") as fh:
                    payload = json.load(fh)
                errors += [f"{bench}: full-size artifact {artifact}: {err}"
                           for err in full_size_errors(artifact, payload)]
    if errors:
        for err in errors:
            print(f"bench-smoke: {err}", file=sys.stderr)
        print(f"bench-smoke: {len(errors)} error(s)", file=sys.stderr)
        return 1
    n = sum(len(a) for a in expected.values())
    print(f"bench-smoke OK ({len(expected)} benches, {n} artifacts)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
