"""Shared helpers for the figure/table regeneration benchmarks.

Every benchmark regenerates one table or figure of the paper: it runs
the workload through ``benchmark`` (so ``--benchmark-only`` times the
pipeline) and *emits* the rows/series the paper reports into
``benchmarks/output/<name>.txt`` (also echoed to stdout when ``-s``).
Assertions check the reproduced *shape* — who wins, rough factors,
where crossovers fall — not Summit-absolute numbers.
"""

import json
import os

import pytest

OUTPUT_DIR = os.path.join(os.path.dirname(__file__), "output")


def smoke_artifact_path(path: str) -> str:
    """The smoke-run variant of a ``BENCH_*.json`` artifact path.

    Inserts ``_smoke`` before the extension: tiny-size smoke runs write
    ``BENCH_x_smoke.json`` so they never clobber the checked-in
    full-size artifacts, whose speedup floors only hold at full size.
    """
    root, ext = os.path.splitext(path)
    return root + "_smoke" + ext


@pytest.fixture(scope="session")
def smoke():
    """True under ``make bench-smoke`` (REPRO_BENCH_SMOKE=1).

    Smoke runs shrink the expensive benches to harness checks: every
    bench still executes its pipeline and emits its artifact, but at
    tiny sizes and without the scale-dependent assertions — catching
    bench-harness regressions without the full bench cost.
    """
    return os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")


@pytest.fixture
def bench_json(smoke):
    """bench_json(path, payload): write one ``BENCH_*.json`` artifact.

    The single place that knows smoke runs are redirected to the
    ``_smoke`` path (see :func:`smoke_artifact_path`) — full-size
    artifacts under version control survive ``make bench-smoke``.
    Every payload is stamped with ``"smoke"`` so that the full-size
    checks in ``tools/bench_smoke.py`` can reject a smoke run checked
    in as a full-size artifact.
    """

    def _write(path: str, payload) -> str:
        if smoke:
            path = smoke_artifact_path(path)
        payload = {"smoke": smoke, **payload}
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1)
        return path

    return _write


@pytest.fixture
def emit():
    """emit(name, text): persist one figure/table artifact."""

    def _emit(name: str, text: str) -> str:
        os.makedirs(OUTPUT_DIR, exist_ok=True)
        path = os.path.join(OUTPUT_DIR, f"{name}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
        print(f"\n--- {name} ---")
        print(text)
        return path

    return _emit


@pytest.fixture
def once(benchmark):
    """Run a callable exactly once under pytest-benchmark timing.

    The figure pipelines are seconds-long; one pedantic round keeps the
    benchmark suite's total wall time sane while still recording timing.
    """

    def _once(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1, warmup_rounds=0)

    return _once


@pytest.fixture
def campaign(once):
    """campaign(cases, **kw): run a sweep through the CampaignExecutor.

    Worker count defaults to serial so benchmark timings stay
    comparable across hosts; set ``REPRO_BENCH_JOBS`` to fan the
    figure pipelines out across processes.
    """
    from repro.campaign.executor import CampaignExecutor

    def _run(cases, jobs=None, store=None, **kwargs):
        if jobs is None:
            jobs = int(os.environ.get("REPRO_BENCH_JOBS", "1"))
        executor = CampaignExecutor(max_workers=jobs or None, store=store)
        result = once(executor.run, cases, **kwargs)
        assert not result.failures, f"campaign failures: {result.failures}"
        return result

    return _run
