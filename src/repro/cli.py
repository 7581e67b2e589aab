"""Command-line entry points.

``repro-sedov``     run a Sedov case (solver or workload engine)
``repro-macsio``    run the MACSio proxy (Listing-1 argument set)
``repro-model``     calibrate the proxy model for a named case
``repro-campaign``  run the 47-case Table-III campaign and save records
``repro-serve``     answer batched JSONL prediction/lookup queries
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from typing import List, Optional, Sequence

from .analysis.report import format_series, format_table, human_bytes
from .campaign.cases import CASE_REGISTRY, Case, cases_on_machines
from .campaign.records import record_from_result, save_records
from .campaign.runner import run_campaign, run_case
from .campaign.store import ResultStore
from .campaign.sweep import paper_sweep
from .core.calibration import calibrate_from_result, verify_proxy
from .iosim.filesystem import RealFileSystem, VirtualFileSystem
from .macsio.main import main as _macsio_main
from .platform import available_platforms, get_platform
from .sim.inputs import CastroInputs, parse_inputs

__all__ = ["sedov_main", "macsio_main", "model_main", "campaign_main",
           "serve_main"]


def _resolve_case(name: str) -> Case:
    try:
        return CASE_REGISTRY[name]
    except KeyError:
        valid = ", ".join(sorted(CASE_REGISTRY))
        raise SystemExit(f"unknown case {name!r}; choose from: {valid}")


def _resolve_machines(spec: str, single: bool = False) -> List[str]:
    """Parse a ``--machine`` value (one name, or a comma-separated list)."""
    names = [m.strip() for m in spec.split(",") if m.strip()]
    if not names:
        raise SystemExit("--machine requires at least one platform name")
    if single and len(names) > 1:
        raise SystemExit("--machine takes a single platform name here")
    if len(set(names)) != len(names):
        raise SystemExit(f"--machine names must be unique, got {spec!r}")
    for name in names:
        try:
            get_platform(name)
        except KeyError:
            valid = ", ".join(available_platforms())
            raise SystemExit(f"unknown machine {name!r}; choose from: {valid}")
    return names


def sedov_main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one Sedov case and print its output-size series."""
    ap = argparse.ArgumentParser(prog="repro-sedov", description=sedov_main.__doc__)
    ap.add_argument("--case", default="case4", help="named case from the registry")
    ap.add_argument("--inputs", help="AMReX inputs file (overrides --case inputs)")
    ap.add_argument("--nprocs", type=int, help="override task count")
    ap.add_argument("--outdir", help="write real files under this directory")
    ap.add_argument("--machine", help="registered platform to host the run "
                                      "(default: the case's machine, summit)")
    args = ap.parse_args(argv)
    case = _resolve_case(args.case)
    if args.inputs:
        with open(args.inputs, "r", encoding="utf-8") as fh:
            text = fh.read()
        try:
            case_inputs = CastroInputs.from_inputs(parse_inputs(text))
        except ValueError as exc:
            ap.error(f"--inputs {args.inputs}: {exc}")
        case = replace(case, inputs=case_inputs)
    if args.nprocs:
        case = replace(case, nprocs=args.nprocs)
    if args.machine:
        case = case.on_machine(_resolve_machines(args.machine, single=True)[0])
    fs = RealFileSystem(args.outdir) if args.outdir else VirtualFileSystem()
    result = run_case(case, fs=fs)
    rec = record_from_result(case.name, result, case.nnodes, case.engine)
    machine = f", machine={rec.machine}" if rec.machine != "summit" else ""
    print(f"# {case.name}: {rec.n_cell[0]}x{rec.n_cell[1]} L0, "
          f"maxlev={rec.max_level}, cfl={rec.cfl}, np={rec.nprocs}"
          f"{machine} ({rec.engine})")
    print(format_series(
        rec.x_series(),
        {"step_bytes": rec.step_bytes, "cumulative": rec.cumulative_bytes()},
        x_label="x=(counter*ncells)",
    ))
    print(f"# total output: {human_bytes(sum(rec.step_bytes))}")
    return 0


def macsio_main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the MACSio proxy executable front end."""
    return _macsio_main(argv)


def model_main(argv: Optional[Sequence[str]] = None) -> int:
    """Calibrate the proxy model for a case and verify it (Fig. 10)."""
    ap = argparse.ArgumentParser(prog="repro-model", description=model_main.__doc__)
    ap.add_argument("--case", default="case4")
    ap.add_argument("--machine", help="registered platform to host the run "
                                      "(default: the case's machine, summit)")
    args = ap.parse_args(argv)
    case = _resolve_case(args.case)
    if args.machine:
        case = case.on_machine(_resolve_machines(args.machine, single=True)[0])
    result = run_case(case)
    report = calibrate_from_result(result)
    print(report.summary())
    print(f"macsio argv: {' '.join(map(str, _fmt_params(report)))}")
    check = verify_proxy(report)
    print(f"verification: mean_rel_err={check.mean_rel_error:.4f}, "
          f"final_cum_err={check.final_cumulative_rel_error:.4f}, "
          f"shape_corr={check.shape_corr:.4f}")
    return 0


def _fmt_params(report) -> List[str]:
    from .macsio.params import format_argv

    return format_argv(report.macsio_params, report.nprocs)


def _truncate_lines(path: str, keep: int) -> None:
    """Truncate a response file to its first ``keep`` lines (resume:
    drop output from batches the snapshot cursor does not cover)."""
    import os as _os

    if not _os.path.exists(path):
        return
    offset = 0
    kept = 0
    with open(path, "rb") as fh:
        for line in fh:
            if kept == keep:
                break
            offset += len(line)
            kept += 1
    with open(path, "r+b") as fh:
        fh.truncate(offset)


def serve_main(argv: Optional[Sequence[str]] = None) -> int:
    """Answer batched prediction/lookup queries (JSONL in, JSONL out)."""
    import json as _json

    from .service import PredictionService, SnapshotManager, serve_stream

    ap = argparse.ArgumentParser(prog="repro-serve", description=serve_main.__doc__)
    ap.add_argument("--requests", default="-", metavar="PATH",
                    help="JSONL request file, one object per line "
                         "('-' = stdin, the default). Fields: op "
                         "(predict|lookup), scenario, machine, nprocs, "
                         "steps, f, inputs")
    ap.add_argument("--responses", default="-", metavar="PATH",
                    help="JSONL response file ('-' = stdout, the default); "
                         "one line per request, in request order")
    ap.add_argument("--store", metavar="PATH",
                    help="ResultStore backing lookup requests (campaign "
                         "results become servable cache hits): an "
                         "existing directory, or a new path without a "
                         ".jsonl suffix, is a sharded store directory; "
                         "anything else is a single JSONL file")
    ap.add_argument("--cache-size", type=int, default=4096,
                    help="bound of the prediction LRU (default 4096)")
    ap.add_argument("--batch-size", type=int, metavar="N",
                    help="answer the stream in N-request batches (responses "
                         "flushed and snapshots taken at batch boundaries; "
                         "default: one batch)")
    ap.add_argument("--max-queue", type=int, metavar="N",
                    help="admission bound per batch: requests past N are "
                         "shed with a ServiceOverloaded error response")
    ap.add_argument("--deadline", type=float, metavar="SECONDS",
                    help="time budget per batch; expired requests get a "
                         "DeadlineExceeded error response at their index")
    ap.add_argument("--request-deadline", type=float, metavar="SECONDS",
                    help="time budget per request (same error shape)")
    ap.add_argument("--snapshot", metavar="PATH",
                    help="warm-cache snapshot file: restored on startup "
                         "(cold start with a warning if corrupt), saved at "
                         "batch boundaries")
    ap.add_argument("--snapshot-every", type=int, default=1, metavar="N",
                    help="snapshot every N batches (default 1)")
    ap.add_argument("--resume", action="store_true",
                    help="resume a killed stream: restore --snapshot, "
                         "truncate --responses to the snapshot's cursor, "
                         "and skip the already-answered requests "
                         "(output is byte-identical to an uninterrupted run)")
    ap.add_argument("--tolerate-errors", action="store_true",
                    help="exit 0 even when some requests errored "
                         "(default: nonzero exit, count on stderr)")
    ap.add_argument("--stats", action="store_true",
                    help="print serve/cache statistics to stderr")
    args = ap.parse_args(argv)
    if args.cache_size < 1:
        ap.error("--cache-size must be >= 1")
    if args.batch_size is not None and args.batch_size < 1:
        ap.error("--batch-size must be >= 1")
    if args.max_queue is not None and args.max_queue < 1:
        ap.error("--max-queue must be >= 1")
    if args.deadline is not None and args.deadline < 0:
        ap.error("--deadline must be >= 0")
    if args.request_deadline is not None and args.request_deadline < 0:
        ap.error("--request-deadline must be >= 0")
    if args.snapshot_every < 1:
        ap.error("--snapshot-every must be >= 1")
    if args.resume and not args.snapshot:
        ap.error("--resume requires --snapshot")
    if args.resume and args.responses == "-":
        ap.error("--resume requires --responses PATH (stdout cannot be "
                 "truncated to the snapshot cursor)")
    store = ResultStore(args.store) if args.store else None
    service = PredictionService(store=store, cache_size=args.cache_size)
    snapshots = None
    skip = 0
    if args.snapshot:
        snapshots = SnapshotManager(service, args.snapshot,
                                    every=args.snapshot_every)
        snapshots.load()  # cold start (with a named warning) if corrupt
        if args.resume:
            skip = snapshots.served
            _truncate_lines(args.responses, skip)
    infile = sys.stdin if args.requests == "-" else open(args.requests, "r",
                                                        encoding="utf-8")
    out_mode = "a" if args.resume else "w"
    outfile = sys.stdout if args.responses == "-" else open(
        args.responses, out_mode, encoding="utf-8")
    try:
        report = serve_stream(
            service, infile, outfile,
            batch_size=args.batch_size,
            max_queue=args.max_queue,
            deadline_s=args.deadline,
            per_request_s=args.request_deadline,
            snapshots=snapshots,
            skip=skip,
        )
    finally:
        if infile is not sys.stdin:
            infile.close()
        if outfile is not sys.stdout:
            outfile.close()
    if args.stats:
        print(f"served {report.n_requests} request(s): "
              f"{report.n_predict} predict ({report.n_cached} cached), "
              f"{report.n_lookup} lookup ({report.n_store_hits} hits, "
              f"{report.n_degraded} degraded), "
              f"{report.n_errors} error(s) "
              f"({report.n_shed} shed, {report.n_deadline} past deadline)",
              file=sys.stderr)
        print(_json.dumps(service.stats(), indent=1), file=sys.stderr)
    # per-request errors are captured in the response lines as data, but
    # the exit code still reports them so pipelines notice (suppress
    # with --tolerate-errors when shed/expired requests are expected)
    if report.n_errors and not args.tolerate_errors:
        print(f"repro-serve: {report.n_errors} request(s) errored "
              f"(responses carry the details; pass --tolerate-errors "
              f"to exit 0)", file=sys.stderr)
        return 1
    return 0


def campaign_main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the 47-case sweep and save RunRecords as JSON."""
    ap = argparse.ArgumentParser(prog="repro-campaign", description=campaign_main.__doc__)
    ap.add_argument("--out", default="campaign_records.json")
    ap.add_argument("--limit", type=int, help="run only the first N cases")
    ap.add_argument("--jobs", type=int, default=1,
                    help="worker processes (default 1 = serial; 0 = all cores)")
    ap.add_argument("--store", metavar="PATH",
                    help="persist results to a ResultStore at PATH: an "
                         "existing directory, or a new path without a .jsonl "
                         "suffix, is a sharded store directory that several "
                         "campaign processes can share; anything else is a "
                         "single JSONL file (without --resume, existing "
                         "results there are discarded)")
    ap.add_argument("--resume", action="store_true",
                    help="reuse results already in --store instead of starting fresh")
    ap.add_argument("--timeout", type=float,
                    help="per-case timeout in seconds (failed cases are reported, not fatal)")
    ap.add_argument("--machine", metavar="LIST",
                    help="comma-separated registered platforms to sweep "
                         "(e.g. summit,frontier,workstation; default: summit only). "
                         "Each machine's block reruns the case list; results are "
                         "stored under machine-specific keys and a per-machine "
                         "burst-total comparison is printed")
    args = ap.parse_args(argv)
    if args.resume and not args.store:
        ap.error("--resume requires --store")
    if args.jobs < 0:
        ap.error("--jobs must be >= 0")
    if args.timeout is not None and args.timeout <= 0:
        ap.error("--timeout must be > 0")
    store = None
    if args.store:
        store = ResultStore(args.store)
        if not args.resume and len(store):
            # --store without --resume starts a fresh sweep
            print(f"discarding {len(store)} stored result(s) in {args.store} "
                  f"(pass --resume to reuse them)", file=sys.stderr)
            store.clear()
    machines = _resolve_machines(args.machine) if args.machine else None
    cases = paper_sweep()
    if args.limit:
        cases = cases[: args.limit]
    if machines:
        # the machine axis multiplies the (possibly limited) case list
        cases = cases_on_machines(cases, machines)
    def progress(name: str, dt: float) -> None:
        print(f"  {name}: {dt:.2f}s", file=sys.stderr)
    jobs = args.jobs if args.jobs != 0 else None
    campaign = run_campaign(cases, progress=progress, jobs=jobs,
                            store=store, timeout=args.timeout)
    save_records(campaign.records, args.out)
    rows = [
        (r.name, f"{r.n_cell[0]}^2", r.nprocs, len(r.steps), human_bytes(sum(r.step_bytes)))
        for r in campaign.records
    ]
    title = f"campaign: {len(rows)} runs -> {args.out}"
    if campaign.cached:
        title += f" ({len(campaign.cached)} cached)"
    print(format_table(["case", "mesh", "np", "dumps", "total output"], rows, title=title))
    if machines and campaign.records:
        from .analysis.compare import compare_machines, format_machine_comparison

        print()
        print(format_machine_comparison(compare_machines(campaign.records)))
    for name, err in campaign.failures.items():
        print(f"FAILED {name}: {err.splitlines()[-1]}", file=sys.stderr)
    return 1 if campaign.failures else 0
