"""MACSio command-line parameters (the Table II subset + file mode).

Mirrors MACSio v1.1's argv surface so that the model's Listing-1 output
(`--interface ... --parallel_file_mode MIF n ...`) drives this proxy the
way it would drive the real executable.  Sizes accept the real tool's
``B|K|M|G`` suffixes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["MacsioParams", "parse_argv", "parse_size", "format_argv"]

_SUFFIXES = {"B": 1, "K": 1024, "M": 1024**2, "G": 1024**3}

VALID_INTERFACES = ("miftmpl", "hdf5", "silo")
VALID_FILE_MODES = ("MIF", "SIF")


def parse_size(text: str) -> float:
    """Parse ``"80000"``, ``"2M"``, ``"1.5G"`` into bytes (float)."""
    text = text.strip()
    if not text:
        raise ValueError("size text is empty; expected e.g. '80000', '2M', '1.5G'")
    suffix = text[-1].upper()
    if suffix in _SUFFIXES:
        return float(text[:-1]) * _SUFFIXES[suffix]
    return float(text)


@dataclass(frozen=True)
class MacsioParams:
    """The MACSio arguments the paper's model drives (Table II).

    ``parallel_file_mode='MIF', file_count=nprocs`` is the N-to-N
    pattern the paper uses (one file per task per dump).
    """

    interface: str = "miftmpl"
    parallel_file_mode: str = "MIF"
    file_count: Optional[int] = None  # None => nprocs (N-to-N)
    num_dumps: int = 10
    part_size: float = 80_000.0  # bytes, nominal per part per var
    avg_num_parts: float = 1.0
    vars_per_part: int = 1
    compute_time: float = 0.0  # seconds between dumps
    meta_size: int = 0  # extra metadata bytes per task per dump
    dataset_growth: float = 1.0  # multiplier per dump

    def __post_init__(self) -> None:
        if self.interface not in VALID_INTERFACES:
            raise ValueError(
                f"unknown interface {self.interface!r}; valid: {VALID_INTERFACES}"
            )
        if self.parallel_file_mode not in VALID_FILE_MODES:
            raise ValueError(
                f"unknown parallel_file_mode {self.parallel_file_mode!r}; "
                f"valid: {VALID_FILE_MODES}"
            )
        if self.num_dumps < 1:
            raise ValueError("num_dumps must be >= 1")
        if self.part_size <= 0:
            raise ValueError("part_size must be positive")
        if self.avg_num_parts <= 0:
            raise ValueError("avg_num_parts must be positive")
        if self.vars_per_part < 1:
            raise ValueError("vars_per_part must be >= 1")
        if self.compute_time < 0:
            raise ValueError("compute_time cannot be negative")
        if self.meta_size < 0:
            raise ValueError("meta_size cannot be negative")
        if self.dataset_growth <= 0:
            raise ValueError("dataset_growth must be positive")
        if self.file_count is not None and self.file_count < 1:
            raise ValueError(f"file_count must be >= 1 (got {self.file_count})")
        for name in ("part_size", "avg_num_parts", "compute_time", "dataset_growth"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite (got {value})")

    def with_growth(self, growth: float) -> "MacsioParams":
        return replace(self, dataset_growth=growth)

    def files_per_dump(self, nprocs: int) -> int:
        """Data files per dump under the configured file mode."""
        if self.parallel_file_mode == "SIF":
            return 1
        return self.file_count if self.file_count is not None else nprocs


def format_argv(params: MacsioParams, nprocs: int) -> List[str]:
    """Render the equivalent real-MACSio command line (Listing 1 form)."""
    fc = params.file_count if params.file_count is not None else nprocs
    argv = [
        "--interface", params.interface,
        "--parallel_file_mode", params.parallel_file_mode, str(fc),
        "--num_dumps", str(params.num_dumps),
        "--part_size", str(int(round(params.part_size))),
        "--avg_num_parts", f"{params.avg_num_parts:g}",
        "--vars_per_part", str(params.vars_per_part),
    ]
    if params.compute_time > 0:
        argv += ["--compute_time", f"{params.compute_time:g}"]
    if params.meta_size > 0:
        argv += ["--meta_size", str(params.meta_size)]
    if params.dataset_growth != 1.0:
        argv += ["--dataset_growth", f"{params.dataset_growth:.6f}"]
    return argv


def parse_argv(argv: Sequence[str]) -> MacsioParams:
    """Parse a MACSio-style argv back into :class:`MacsioParams`."""
    kwargs: Dict[str, object] = {}
    i = 0
    args = list(argv)
    while i < len(args):
        flag = args[i]
        if not flag.startswith("--"):
            raise ValueError(f"expected a --flag, got {flag!r}")
        name = flag[2:]
        if name == "parallel_file_mode":
            kwargs["parallel_file_mode"] = args[i + 1]
            kwargs["file_count"] = int(args[i + 2])
            i += 3
            continue
        if i + 1 >= len(args):
            raise ValueError(f"flag {flag} is missing its value")
        value = args[i + 1]
        if name == "interface":
            kwargs["interface"] = value
        elif name == "num_dumps":
            kwargs["num_dumps"] = int(value)
        elif name == "part_size":
            kwargs["part_size"] = parse_size(value)
        elif name == "avg_num_parts":
            kwargs["avg_num_parts"] = float(value)
        elif name == "vars_per_part":
            kwargs["vars_per_part"] = int(value)
        elif name == "compute_time":
            kwargs["compute_time"] = float(value)
        elif name == "meta_size":
            kwargs["meta_size"] = int(float(value))
        elif name == "dataset_growth":
            kwargs["dataset_growth"] = float(value)
        else:
            raise ValueError(f"unknown MACSio flag {flag!r}")
        i += 2
    return MacsioParams(**kwargs)  # type: ignore[arg-type]
