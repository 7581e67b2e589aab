"""Plotfile structure reader and size inspector.

Parses back what :mod:`repro.plotfile.writer` produced — enough to
verify round-trips in tests and to collect the per (step, level, task)
sizes the paper's analysis is built on (it post-processed plotfile
trees on Summit with a Julia package, ``jexio``; this is our
equivalent).

The inspectors consume bulk ``(paths, sizes)`` pairs from
:meth:`repro.iosim.filesystem.FileSystem.files_sizes` and parse the
fixed ``Level_i/Cell_D_xxxxx`` shape with sliced string checks in a
single pass — no per-file regex, no stat call per path.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..iosim.filesystem import FileSystem

__all__ = ["PlotfileInfo", "LevelInfo", "inspect_plotfile", "list_plotfiles"]

# A plotfile directory name is <prefix><step> where AMReX's Concatenate
# pads the step to at least 5 digits.  The step group is anchored to the
# *maximal* trailing digit run (greedy prefix + lookbehind), so a prefix
# ending in digits can never shift the split point; runs longer than
# five that start with '0' are disambiguated in _split_plotfile_name.
_PLT_RE = re.compile(r"^(.*?)(?<!\d)(\d{5,})$")

_CELLD = "Cell_D_"
_LEVEL = "Level_"


def _split_plotfile_name(name: str) -> Optional[Tuple[str, int]]:
    """Split ``<prefix><step>`` into ``(prefix, step)``.

    The step is exactly the trailing run of five-or-more digits.  A run
    longer than five with a leading zero cannot be a raw AMReX step
    (``Concatenate`` pads to exactly five and never zero-pads a larger
    step), so its leading digits belong to the prefix and the step is
    the final five digits — ``x_plt0010000123`` parses as
    ``("x_plt00100", 123)``, not step 10000123.
    """
    m = _PLT_RE.match(name)
    if m is None:
        return None
    prefix, run = m.group(1), m.group(2)
    if len(run) > 5 and run[0] == "0":
        prefix, run = prefix + run[:-5], run[-5:]
    return prefix, int(run)


@dataclass
class LevelInfo:
    """Sizes of one level directory of a plotfile."""

    level: int
    cellh_bytes: int = 0
    task_bytes: Dict[int, int] = field(default_factory=dict)

    @property
    def data_bytes(self) -> int:
        return sum(self.task_bytes.values())

    @property
    def ntasks_with_data(self) -> int:
        return len(self.task_bytes)


@dataclass
class PlotfileInfo:
    """Sizes and structure of one plotfile directory."""

    path: str
    step: int
    header_bytes: int = 0
    job_info_bytes: int = 0
    levels: Dict[int, LevelInfo] = field(default_factory=dict)

    @property
    def nlevels(self) -> int:
        return len(self.levels)

    @property
    def data_bytes(self) -> int:
        return sum(lv.data_bytes for lv in self.levels.values())

    @property
    def metadata_bytes(self) -> int:
        return (
            self.header_bytes
            + self.job_info_bytes
            + sum(lv.cellh_bytes for lv in self.levels.values())
        )

    @property
    def total_bytes(self) -> int:
        return self.data_bytes + self.metadata_bytes

    def bytes_per_level(self) -> Dict[int, int]:
        return {lev: info.data_bytes for lev, info in self.levels.items()}

    def bytes_per_task(self, level: Optional[int] = None) -> Dict[int, int]:
        out: Dict[int, int] = {}
        for lev, info in self.levels.items():
            if level is not None and lev != level:
                continue
            for rank, nb in info.task_bytes.items():
                out[rank] = out.get(rank, 0) + nb
        return out


def list_plotfiles(fs: FileSystem, prefix: str, root: str = "") -> List[Tuple[int, str]]:
    """All ``(step, dir)`` plotfile directories under ``root``, sorted.

    A directory component is a plotfile of ``prefix`` when
    :func:`_split_plotfile_name` (the split :func:`inspect_plotfile`
    reads its step with) gives exactly that prefix.  Every file of a
    plotfile shares its directory path, so component matching runs once
    per *unique directory*, not once per file.
    """
    dirs: Dict[str, int] = {}
    seen_dirs: set = set()
    for p in fs.files(root):
        d = p.rsplit("/", 1)[0] if "/" in p else ""
        if d in seen_dirs:
            continue
        seen_dirs.add(d)
        parts = d.split("/") if d else []
        for i, part in enumerate(parts):
            split = _split_plotfile_name(part)
            if split is not None and split[0] == prefix:
                dirs["/".join(parts[: i + 1])] = split[1]
    return sorted(((s, d) for d, s in dirs.items()))


def inspect_plotfile(fs: FileSystem, pdir: str) -> PlotfileInfo:
    """Collect the size hierarchy of one plotfile directory.

    One bulk ``files_sizes`` call supplies every path and size; the
    relative paths are parsed positionally (``Level_<l>/Cell_D_<rank>``)
    in a single pass.
    """
    name = pdir.rstrip("/").split("/")[-1]
    split = _split_plotfile_name(name)
    info = PlotfileInfo(path=pdir, step=split[1] if split else -1)
    pre = pdir.rstrip("/") + "/"
    plen = len(pre)
    paths, sizes = fs.files_sizes(pdir)
    levels = info.levels
    for p, sz in zip(paths, sizes.tolist()):
        rel = p[plen:] if p.startswith(pre) else p
        slash = rel.find("/")
        if slash < 0:
            if rel == "Header":
                info.header_bytes = sz
            elif rel == "job_info":
                info.job_info_bytes = sz
            continue
        head, tail = rel[:slash], rel[slash + 1 :]
        if "/" in tail or not head.startswith(_LEVEL):
            continue
        lev_s = head[len(_LEVEL) :]
        if not lev_s.isdigit():
            continue
        lev = int(lev_s)
        linfo = levels.get(lev)
        if linfo is None:
            linfo = levels[lev] = LevelInfo(lev)
        if tail.startswith(_CELLD):
            rank_s = tail[len(_CELLD) :]
            if rank_s.isdigit():
                linfo.task_bytes[int(rank_s)] = sz
        elif tail == "Cell_H":
            linfo.cellh_bytes = sz
    return info
