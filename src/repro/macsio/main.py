"""MACSio proxy command-line front end.

``python -m repro.macsio.main --interface miftmpl ...`` (or the
``repro-macsio`` console script) accepts the Listing-1 argument set plus
``-n/--np`` for the simulated task count, ``--timing`` to model burst
times, and ``--machine`` to pick the registered platform the timing
model describes (default summit); it runs the proxy and prints the
per-dump and cumulative output sizes.
"""

from __future__ import annotations

import sys
from typing import List, Optional, Sequence

from ..iosim.filesystem import RealFileSystem, VirtualFileSystem
from ..platform import get_platform
from .dump import run_macsio
from .params import parse_argv

__all__ = ["main"]


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = list(argv if argv is not None else sys.argv[1:])
    nprocs = 1
    outdir: Optional[str] = None
    timing = False
    machine: Optional[str] = None
    rest: List[str] = []
    try:
        i = 0
        while i < len(args):
            a = args[i]
            if a in ("-n", "--np"):
                nprocs = int(args[i + 1])
                i += 2
            elif a == "--outdir":
                outdir = args[i + 1]
                i += 2
            elif a == "--timing":
                timing = True
                i += 1
            elif a == "--machine":
                machine = args[i + 1]
                i += 2
            elif a in ("-h", "--help"):
                print(__doc__)
                return 0
            else:
                rest.append(a)
                i += 1
        if nprocs < 1:
            raise ValueError(f"-n/--np must be >= 1 (got {nprocs})")
        params = parse_argv(rest)
        platform = get_platform(machine)
    except (ValueError, IndexError, KeyError) as exc:
        print(f"argument error: {exc}", file=sys.stderr)
        return 2
    fs = RealFileSystem(outdir) if outdir else VirtualFileSystem()
    storage = platform.storage_model() if timing else None
    topo = platform.default_topology(nprocs) if timing else None
    run = run_macsio(params, nprocs, fs=fs, storage=storage, topology=topo)
    cum = run.cumulative_bytes()
    print(f"# MACSio proxy: {nprocs} tasks, {params.num_dumps} dumps, "
          f"interface={params.interface}, mode={params.parallel_file_mode}")
    print("# dump  bytes  cumulative_bytes")
    for k, nb in enumerate(run.bytes_per_dump):
        print(f"{k:5d}  {nb:12d}  {int(cum[k]):14d}")
    if run.schedule is not None:
        print(f"# wall={run.schedule.total_seconds:.3f}s "
              f"io={run.schedule.io_seconds:.3f}s "
              f"io_fraction={run.schedule.io_fraction():.3f}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
