"""Persistent, content-addressed result store for campaign runs.

A :class:`ResultStore` maps a **cache key** — a SHA-256 digest over the
case's inputs, job shape, engine, and the code version — to the
:class:`~repro.campaign.records.RunRecord` produced by executing that
case.  Storage is JSON lines: one entry per line, append-only on
``put``, compacted on ``invalidate``/``clear``.  Append-plus-fsync makes
an interrupted sweep resumable: every completed case is already on disk,
and a torn line (the write that was interrupted) is skipped, with a
:class:`StoreCorruptionWarning`, on load.

On-disk layouts
---------------
The data is a list of JSONL files, in one of two layouts taken from the
path: an existing directory, or a new path without a ``.jsonl`` suffix,
holds ``shard-NNN.jsonl`` files (entries spread by a crc32 of the key,
shard count pinned by ``_meta.json``), so N executor *processes*
sharing one store spread their puts over separate files and locks; an
existing file, or a new ``*.jsonl`` path, is a single file
(``nshards == 1``).  Both layouts run the same code:

- **puts** append one line to one file as a single O_APPEND write under
  an exclusive ``fcntl`` advisory lock;
- **reads** are incremental — :meth:`ResultStore.refresh` tails each
  file from its consumed byte offset under a shared lock, so polling for
  other writers' results costs O(new bytes), not O(store);
- **compaction** (``invalidate``/``clear``) rewrites each file
  crash-consistently (tmp + fsync + ``os.replace``) and is the one
  single-writer operation: run it when no other process is writing.

Key semantics
-------------
The key deliberately excludes the case *name*: it addresses the
**content** of a run (what was computed), not its label.  Two cases with
identical inputs share one entry; on a hit under a different name the
cached record is relabeled.  Bumping ``repro.__version__`` invalidates
every entry at once, since the digest covers the code version.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import stat
import time
import warnings
import zlib
from dataclasses import asdict
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

try:  # advisory locks for multi-writer stores; absent on non-POSIX
    import fcntl
except ImportError:  # pragma: no cover - POSIX-only container
    fcntl = None  # type: ignore[assignment]

from ..faults import active as _faults_active
from .cases import Case
from .records import RunRecord, record_from_dict

__all__ = ["case_key", "ResultStore", "StoreCorruptionWarning"]

STORE_FORMAT = 1
SHARD_FORMAT = 1
DEFAULT_NSHARDS = 16
_META_NAME = "_meta.json"


class StoreCorruptionWarning(UserWarning):
    """Corrupt or truncated JSONL lines were skipped while loading a
    :class:`ResultStore`.

    One torn line is expected after an interrupted ``put`` (^C mid
    write) and resume is designed to survive it — but the skip is
    *reported*, never silent, so a store poisoned some other way (disk
    corruption, a partial copy, an editor mangling the file) doesn't
    quietly serve fewer results than it holds."""


def _code_version() -> str:
    from .. import __version__

    return __version__


def _entry_line(entry: Dict) -> bytes:
    """One entry as its canonical newline-terminated JSONL bytes."""
    return (json.dumps(entry, separators=(",", ":")) + "\n").encode("utf-8")


# An exclusive flock is expected to be held for microseconds (one write
# + fsync); waiting longer means the holder is gone wrong — typically a
# process that fork()ed while the lock was held and whose child still
# keeps the inherited file description open.
_FLOCK_DEADLINE_S = 10.0


def _flock(fd: int, path: str, op: int) -> None:
    """Take ``op`` (``LOCK_EX`` or ``LOCK_SH``) without risking an
    unbounded hang.

    ``flock`` lives on the *open file description*, so a child process
    forked while a writer holds the lock inherits it — and an idle,
    long-lived child (a worker-pool process) then pins it forever.
    Polling ``LOCK_NB`` under a deadline turns that pathology into a
    loud :class:`TimeoutError` (surfaced by the executor as a
    :class:`~repro.campaign.executor.StorePersistWarning`, and by the
    serving layer as a store fault) instead of a frozen sweep.
    """
    deadline = time.monotonic() + _FLOCK_DEADLINE_S
    while True:
        try:
            fcntl.flock(fd, op | fcntl.LOCK_NB)
            return
        except OSError:
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"could not lock {path!r} within "
                    f"{_FLOCK_DEADLINE_S:.0f}s; a dead or forked writer "
                    f"may still hold the advisory lock") from None
            time.sleep(0.005)


def _append_entry(path: str, entry: Dict) -> None:
    """Append one entry as a **single** ``os.write`` on an O_APPEND fd.

    POSIX O_APPEND makes the seek+write atomic, and issuing the whole
    line in one ``write`` call keeps concurrent writers from
    interleaving partial lines (the buffered ``open("a")`` + ``write`` +
    ``flush`` path could split a line over the pipe-buffer size).  The
    exclusive advisory ``flock`` is held for the whole line, so readers
    under ``LOCK_SH`` never observe a write in progress, and no other
    writer appends while a failed put rolls back: a short write, or an
    ``OSError`` from the write or the fsync, truncates the file back to
    its size before the put and raises, since a partial line left
    behind would swallow the next put's line.  A writer that died
    mid-line cannot roll back, so under the lock a file that does not
    end in a newline gets one before the line: the fragment stays one
    corrupt line and this put survives.

    This is also the store's fault-injection point: under
    ``REPRO_FAULTS`` a selected case's line may be torn (a leading
    fragment plus a newline — the blast radius is exactly one record)
    or followed by a garbage line, exercising the corruption-skip path.
    """
    data = _entry_line(entry)
    injector = _faults_active()
    if injector is not None:
        name = str(entry.get("case", ""))
        if injector.torn_write(name):
            data = data[: max(1, (2 * len(data)) // 3)] + b"\n"
        if injector.corrupt_line(name):
            data = data + injector.garbage_line(name)
    # O_RDWR, not O_WRONLY: pread on a write-only fd fails with EBADF.
    fd = os.open(path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        if fcntl is not None:
            _flock(fd, path, fcntl.LOCK_EX)
        try:
            size = os.fstat(fd).st_size
            if size and os.pread(fd, 1, size - 1) != b"\n":
                data = b"\n" + data
            written = 0
            try:
                written = os.write(fd, data)
                if written != len(data):
                    raise OSError("short write")
                os.fsync(fd)
            except OSError as exc:
                os.ftruncate(fd, size)
                raise OSError(
                    f"append to {path!r} failed after {written} of "
                    f"{len(data)} bytes ({exc}); rolled back") from exc
        finally:
            if fcntl is not None:
                fcntl.flock(fd, fcntl.LOCK_UN)
    finally:
        os.close(fd)


def _write_lines(path: str, entries: Iterable[Dict]) -> os.stat_result:
    """Replace ``path`` crash-consistently (tmp + fsync + ``os.replace``)
    with one line per entry; returns the new file's stat."""
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        for entry in entries:
            fh.write(_entry_line(entry))
        fh.flush()
        os.fsync(fh.fileno())
        st = os.fstat(fh.fileno())
    os.replace(tmp, path)
    return st


def _pin_meta(root: str, nshards: int) -> int:
    """Create or read ``root/_meta.json``; the on-disk shard count wins
    over the constructor argument so all openers agree.

    Concurrent first-openers race to create the file; ``os.link`` makes
    exactly one win atomically, and every opener then reads the winner's
    pinned count.
    """
    meta_path = os.path.join(root, _META_NAME)
    if not os.path.exists(meta_path):
        tmp = f"{meta_path}.tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump({"format": SHARD_FORMAT, "nshards": nshards}, fh)
            fh.flush()
            os.fsync(fh.fileno())
        try:
            os.link(tmp, meta_path)
        except FileExistsError:
            pass  # another opener won the race; adopt its pin
        finally:
            os.unlink(tmp)
    with open(meta_path, "r", encoding="utf-8") as fh:
        pinned = int(json.load(fh)["nshards"])
    if pinned < 1:
        raise ValueError(
            f"{meta_path}: pinned nshards must be >= 1, got {pinned}")
    return pinned


def _canonical(obj):
    """Deterministic, identity-free JSON projection of a value.

    Used to fold execution options (``run_case`` kwargs) into the cache
    key: dataclasses by field, plain objects by class name + instance
    state — never by ``repr`` (which would embed memory addresses).
    """
    if obj is None or isinstance(obj, (str, int, float, bool)):
        return obj
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {"__dataclass__": type(obj).__name__,
                "fields": _canonical(dataclasses.asdict(obj))}
    state = getattr(obj, "__dict__", None)
    if state is not None:
        return {"__class__": type(obj).__name__, "state": _canonical(state)}
    # No inspectable state (ndarray, slotted class, callable): fall back
    # to repr.  A value-bearing repr keys correctly; a default repr
    # embeds the object's address, which only ever causes a cache MISS —
    # never a wrong hit between two different values.
    return {"__class__": type(obj).__name__, "repr": repr(obj)}


def case_key(case: Case, code_version: Optional[str] = None,
             extra: Optional[Dict] = None) -> str:
    """Stable content hash of a case: inputs + job shape + engine +
    execution options + code version.

    The case *name* is excluded — the key addresses what is computed,
    not what it is called.  Any change to the inputs (mesh, cfl,
    plot_int, ...), the task/node counts, the engine, the machine (a
    cached summit run must never answer for frontier), the execution
    options (``extra``: the ``run_case`` kwargs, e.g. a different
    distribution strategy), or the package version yields a different
    key.
    """
    payload = {
        "format": STORE_FORMAT,
        "inputs": asdict(case.inputs),
        "nprocs": case.nprocs,
        "nnodes": case.nnodes,
        "engine": case.engine,
        "machine": case.machine,
        "extra": _canonical(extra or {}),
        "code_version": code_version or _code_version(),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclasses.dataclass
class _Cursor:
    """One file of a store, and how far the tail reader got in it: the
    bytes consumed, the partial line after the last newline, and the
    inode and mtime those bytes were read at (a new inode, or a new
    mtime without growth, means another opener rewrote the file)."""

    path: str
    offset: int = 0
    pending: bytes = b""
    ino: int = -1
    mtime_ns: int = -1


class ResultStore:
    """JSON-lines store of campaign results, keyed by :func:`case_key`.

    ``path`` picks the layout (module docstring): an existing directory
    or a new path without a ``.jsonl`` suffix is a shard directory,
    created with ``nshards`` shard files unless its ``_meta.json``
    already pins a count; anything else is a single file.
    ``path=None`` gives a purely in-memory store (same API, no
    persistence) — useful for tests and one-shot cache semantics.
    :meth:`refresh` ingests entries other openers appended since the
    last read.
    """

    def __init__(self, path: Optional[str] = None,
                 nshards: int = DEFAULT_NSHARDS,
                 code_version: Optional[str] = None) -> None:
        if nshards < 1:
            raise ValueError(f"nshards must be >= 1, got {nshards}")
        self.path = path
        self.code_version = code_version or _code_version()
        self._entries: Dict[str, Dict] = {}
        # other-version entries: preserved on disk, never served
        self._foreign: Dict[str, Dict] = {}
        self.root: Optional[str] = None  # the shard directory, if any
        self.nshards = 1
        self._cursors: List[_Cursor] = []  # one per file; none in memory
        if path is None:
            return
        # One stat decides the layout: with two reads, a directory that
        # another opener created between them looked like a file.
        try:
            is_dir = stat.S_ISDIR(os.stat(path).st_mode)
        except FileNotFoundError:
            is_dir = not path.endswith(".jsonl")
        if is_dir:
            self.root = os.path.abspath(path)
            os.makedirs(self.root, exist_ok=True)
            self.nshards = _pin_meta(self.root, nshards)
            self._cursors = [
                _Cursor(os.path.join(self.root, f"shard-{i:03d}.jsonl"))
                for i in range(self.nshards)]
        else:
            # fail fast here, not at the first mid-sweep put
            os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
            self._cursors = [_Cursor(path)]
        _, n_lines, n_corrupt = self._read()
        # writers hold LOCK_EX for a whole line, so a fragment still
        # pending after this locked read is a torn line, not a write in
        # progress
        n_torn = sum(1 for cur in self._cursors if cur.pending.strip())
        self._warn_corrupt(n_corrupt + n_torn, n_lines + n_torn)
        # Superseded or torn lines are compacted away on open for a
        # single file only: in a shard directory other processes may be
        # appending, and compaction is its one single-writer operation.
        if self.root is None and (n_lines + n_torn
                                  != len(self._entries) + len(self._foreign)):
            self._rewrite()

    # -- layout --------------------------------------------------------
    def shard_of(self, key: str) -> int:
        """Stable file index for a cache key (crc32, any string)."""
        return zlib.crc32(key.encode("utf-8")) % self.nshards

    def shard_path(self, index: int) -> str:
        """Filesystem path of one file: a shard, or the single file."""
        return self._cursors[index].path

    # -- reading -------------------------------------------------------
    def refresh(self) -> int:
        """Ingest lines appended to any file since the last read.

        The warm path is one ``os.stat`` per file: a file whose inode,
        size and mtime match its cursor is not opened.  A changed file
        is read under a shared advisory lock, from its consumed byte
        offset up to the size ``fstat`` reports under that lock, so a
        put landing between the stat and the lock is read exactly once.
        Bytes after the final newline are kept as a pending fragment and
        glued to the next read.  A file another opener compacted
        (replaced, shrunk, or rewritten at the same size with a new
        mtime) resets every cursor and the index, and everything is
        re-read — re-ingest is idempotent by key, and keys the
        compaction dropped stop being served.  Returns the number of
        newly ingested current-version entries; corrupt lines are
        skipped with a :class:`StoreCorruptionWarning`.
        """
        n_new, n_lines, n_corrupt = self._read()
        self._warn_corrupt(n_corrupt, n_lines)
        return n_new

    def _read(self) -> Tuple[int, int, int]:
        """The one tail reader: ingest every file past its cursor.
        Returns (new current-version entries, lines read, corrupt lines)."""
        lines: List[bytes] = []
        for cur in self._cursors:
            path = cur.path
            try:
                st = os.stat(path)
            except OSError:
                continue  # not written yet, or unlinked under us
            if (st.st_ino, st.st_size, st.st_mtime_ns) == (
                    cur.ino, cur.offset, cur.mtime_ns):
                continue
            with open(path, "rb") as fh:
                if fcntl is not None:
                    _flock(fh.fileno(), path, fcntl.LOCK_SH)
                try:
                    st = os.fstat(fh.fileno())
                    rewritten = cur.offset > 0 and (
                        st.st_ino != cur.ino or st.st_size < cur.offset
                        or (st.st_size == cur.offset
                            and st.st_mtime_ns != cur.mtime_ns))
                    fh.seek(cur.offset)
                    data = b"" if rewritten else fh.read(st.st_size - cur.offset)
                finally:
                    if fcntl is not None:
                        fcntl.flock(fh.fileno(), fcntl.LOCK_UN)
            if rewritten:  # compacted by another opener: start over
                self._cursors = [_Cursor(c.path) for c in self._cursors]
                self._entries.clear()
                self._foreign.clear()
                return self._read()
            lines.extend((cur.pending + data).split(b"\n"))
            cur.pending = lines.pop()
            cur.offset, cur.ino, cur.mtime_ns = (
                st.st_size, st.st_ino, st.st_mtime_ns)
        n_new = n_lines = n_corrupt = 0
        for raw in lines:
            line = raw.decode("utf-8", errors="replace").strip()
            if not line:
                continue
            n_lines += 1
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                entry = None
            if (not isinstance(entry, dict) or "key" not in entry
                    or "record" not in entry):
                n_corrupt += 1
            elif entry.get("code_version") != self.code_version:
                # its key can never hit under this version, but another
                # checkout may still need it: kept on disk, not served
                self._foreign[entry["key"]] = entry
            else:
                # later lines win: a re-put after invalidation supersedes
                self._entries[entry["key"]] = entry
                n_new += 1
        return n_new, n_lines, n_corrupt

    def _warn_corrupt(self, n_corrupt: int, n_lines: int) -> None:
        if n_corrupt:
            warnings.warn(
                StoreCorruptionWarning(
                    f"{self.path}: skipped {n_corrupt} corrupt/truncated "
                    f"JSONL line(s) of {n_lines}; {len(self._entries)} "
                    f"intact result(s) indexed (a torn final line is the "
                    f"signature of an interrupted put)"
                ),
                stacklevel=3,
            )

    # -- lookup --------------------------------------------------------
    def key_for(self, case: Case, extra: Optional[Dict] = None) -> str:
        return case_key(case, self.code_version, extra)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str) -> Optional[RunRecord]:
        entry = self._entries.get(key)
        if entry is None:
            return None
        return record_from_dict(entry["record"])

    def get_labeled(self, key: str, name: str) -> Optional[RunRecord]:
        """Lookup by key; relabels the record on a renamed hit (keys are
        content-addressed, so the stored name may differ)."""
        record = self.get(key)
        if record is not None and record.name != name:
            record = dataclasses.replace(record, name=name)
        return record

    def get_for(self, case: Case, extra: Optional[Dict] = None) -> Optional[RunRecord]:
        """Cache lookup for a case; relabels the record on a renamed hit.

        ``extra`` must be the same execution options the case would run
        with — it is part of the key.
        """
        return self.get_labeled(self.key_for(case, extra), case.name)

    def records(self) -> Iterator[RunRecord]:
        for entry in self._entries.values():
            yield record_from_dict(entry["record"])

    def keys(self) -> List[str]:
        return list(self._entries)

    # -- mutation ------------------------------------------------------
    def put(self, key: str, record: RunRecord, seconds: float = 0.0) -> None:
        """Insert/overwrite one entry; appended to its file and fsynced
        immediately, then indexed.

        The on-disk append is a single ``os.write`` on an O_APPEND fd
        under an exclusive lock (see :func:`_append_entry`), so
        concurrent writers to the same file can interleave whole lines
        but never fragments.  A failed append raises and indexes
        nothing.
        """
        entry = self._make_entry(key, record, seconds)
        if self.path is not None:
            _append_entry(self.shard_path(self.shard_of(key)), entry)
        self._entries[key] = entry

    def _make_entry(self, key: str, record: RunRecord, seconds: float) -> Dict:
        return {
            "key": key,
            "case": record.name,
            "code_version": self.code_version,
            "seconds": float(seconds),
            "record": asdict(record),
        }

    def _snapshot(self) -> List[Dict]:
        """Every on-disk entry (foreign first, as on compaction) — the
        migration unit between the two layouts."""
        return list(self._foreign.values()) + list(self._entries.values())

    def invalidate(self, key: str) -> bool:
        """Drop one entry (returns whether it existed); compacts the files."""
        existed = self._entries.pop(key, None) is not None
        if existed:
            self._rewrite()
        return existed

    def clear(self) -> None:
        """Drop everything (all code versions), truncating the files."""
        self._entries.clear()
        self._foreign.clear()
        self._rewrite()

    def _rewrite(self) -> None:
        """Compact every file crash-consistently (tmp+fsync+replace).

        Single-writer by contract: lines other processes append during
        a compaction are replaced away.  Each cursor moves to its
        rewritten file, so the next :meth:`refresh` does not re-read
        this compaction.
        """
        if self.path is None:
            return
        groups: List[List[Dict]] = [[] for _ in self._cursors]
        for entry in self._snapshot():
            groups[self.shard_of(entry["key"])].append(entry)
        for index, entries in enumerate(groups):
            path = self.shard_path(index)
            if entries or os.path.exists(path):
                st = _write_lines(path, entries)
                self._cursors[index] = _Cursor(
                    path, st.st_size, b"", st.st_ino, st.st_mtime_ns)
