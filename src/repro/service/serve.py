"""JSONL batch serving: the ``repro-serve`` request/response loop.

Reads one JSON request object per input line, answers through a
:class:`~repro.service.engine.PredictionService`, and writes one JSON
response object per line **in input order**.  Fault capture extends to
the wire: a line that is not valid JSON, or not a valid request object,
produces an error response at its index — never a batch failure.

Resilience (PR 9) extends the loop in three directions, all of them
per-request data rather than batch failures:

* **Backpressure** — ``max_queue`` bounds the admission queue; requests
  past capacity are shed with a named ``ServiceOverloaded`` error
  response at their index and counted (``ServeReport.n_shed``).
* **Deadlines** — ``deadline_s`` budgets each batch and
  ``per_request_s`` each request; expiry surfaces as a named
  ``DeadlineExceeded`` error response at the expired index.
* **Crash safety** — :func:`serve_stream` chunks the input into
  batches, flushes responses after each, and (when given a
  :class:`~repro.service.snapshot.SnapshotManager`) snapshots the warm
  caches at batch boundaries.  ``skip`` resumes mid-stream after a
  crash: combined with truncating the response file to the snapshot's
  cursor, a killed-and-restarted run produces byte-identical output to
  an uninterrupted one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import IO, Dict, Iterable, List, Optional, Tuple, Union

from .. import sanitize
from ..faults import active as _faults_active
from .engine import PredictionService
from .request import (
    PREDICT_OK_HEAD,
    LookupRequest,
    PredictRequest,
    request_from_dict,
    response_to_dict,
)
from .resilience import Deadline
from .snapshot import SnapshotManager

__all__ = ["ServeReport", "serve_lines", "serve_stream"]

# serve_stream writes a batch in pieces that end at the first line
# boundary past this much text.  One string per whole batch (hundreds of
# KB) lands at the top of the heap, where the allocator hands it back to
# the kernel on free and faults it in again for the next batch.
_PIECE_CHARS = 32 * 1024


@dataclass
class ServeReport:
    """What one batch (or stream) did: request/response counts by kind."""

    n_requests: int = 0
    n_predict: int = 0
    n_lookup: int = 0
    n_errors: int = 0
    n_cached: int = 0
    n_store_hits: int = 0
    n_shed: int = 0  # requests shed by the admission queue
    n_degraded: int = 0  # predict-only lookup answers (breaker/fault)
    n_deadline: int = 0  # requests expired past their deadline budget

    def merge(self, other: "ServeReport") -> None:
        """Fold another report's counters into this one (stream totals)."""
        for field in self.__dataclass_fields__:
            setattr(self, field, getattr(self, field) + getattr(other, field))


def _dumps(payload: Dict) -> str:
    """The wire encoder: compact JSON, no newline."""
    return json.dumps(payload, separators=(",", ":"))


def _encode(response, index: int) -> str:
    """One engine response's wire JSON at stream position ``index``."""
    payload = response_to_dict(response)
    payload["index"] = index
    return _dumps(payload)


def serve_lines(
    service: PredictionService,
    lines: Iterable[str],
    max_queue: Optional[int] = None,
    deadline: Union[None, float, Deadline] = None,
    per_request_s: Optional[float] = None,
    *,
    start: int = 0,
) -> Tuple[List[str], ServeReport]:
    """Answer a batch of JSONL request lines; response lines in input order.

    Returns newline-terminated wire lines whose ``index`` is ``start``
    plus the request's position in the batch (``start`` is the stream
    position of the batch's first request).  Blank lines are skipped (a
    trailing newline is not a request).  ``max_queue`` is the admission
    bound: requests beyond it are shed with a ``ServiceOverloaded``
    error response at their index.  The ``deadline`` budget is shared
    across the predict and lookup phases of the batch;
    ``per_request_s`` bounds each request on its own.

    A ``cached: true`` predict answer is encoded once per prediction-LRU
    entry: its first hit slices the text after ``"ok":true,`` off the
    full encoding and keeps it on the entry, and later hits write the
    line head plus that text.  Misses, lookups and errors are encoded
    from :func:`response_to_dict` every time.
    """
    report = ServeReport()
    deadline = Deadline.of(deadline)
    parsed: List[Tuple[int, str]] = []
    for line in lines:
        line = line.strip()
        if line:
            parsed.append((len(parsed), line))
    out: List[str] = [""] * len(parsed)
    report.n_requests = len(parsed)
    # Admission control: everything past max_queue is shed *before*
    # parsing — an overloaded service does not spend parse time on
    # requests it will not answer.
    if max_queue is not None and len(parsed) > max_queue:
        for i, _ in parsed[max_queue:]:
            out[i] = _dumps({
                "index": start + i, "ok": False, "shed": True,
                "error": f"ServiceOverloaded: admission queue full "
                         f"({len(parsed)} requests > max_queue={max_queue}); "
                         f"request shed",
            }) + "\n"
            report.n_errors += 1
            report.n_shed += 1
            service.n_errors += 1
            service.n_shed += 1
        parsed = parsed[:max_queue]
    # Parse each line; malformed ones become error responses in place.
    predicts: List[Tuple[int, PredictRequest]] = []
    lookups: List[Tuple[int, LookupRequest]] = []
    for i, line in parsed:
        try:
            request = request_from_dict(json.loads(line))
        except Exception as exc:
            out[i] = _dumps({
                "index": start + i, "ok": False,
                "error": f"{type(exc).__name__}: {exc}",
            }) + "\n"
            report.n_errors += 1
            continue
        if isinstance(request, PredictRequest):
            predicts.append((i, request))
        else:
            lookups.append((i, request))
    report.n_predict = len(predicts)
    report.n_lookup = len(lookups)
    deadline_before = service.n_deadline
    if predicts:
        answers = service.predict_many(
            [r for _, r in predicts], deadline=deadline,
            per_request_s=per_request_s,
        )
        check = sanitize.enabled()
        for (i, request), resp in zip(predicts, answers):
            report.n_errors += not resp.ok
            report.n_cached += resp.cached
            index = start + i
            entry = (service.cached_entry(request, resp.prediction)
                     if resp.cached else None)
            if entry is not None and entry.text is not None:
                head = PREDICT_OK_HEAD % index
                if check:
                    sanitize.check(
                        entry.text == _encode(resp, index)[len(head):],
                        f"cached wire text of predict request {index} "
                        f"differs from a fresh encoding")
                out[i] = f"{head}{entry.text}\n"
                continue
            text = _encode(resp, index)
            if entry is not None:  # first hit: keep the text for the next
                entry.text = text[len(PREDICT_OK_HEAD % index):]
            out[i] = text + "\n"
    if lookups:
        if service.store is None:
            # no store on this service: per-request errors, not a crash
            for i, _ in lookups:
                out[i] = _dumps({
                    "op": "lookup", "index": start + i, "ok": False,
                    "error": "ValueError: no ResultStore attached "
                             "(start the service with --store)",
                }) + "\n"
                report.n_errors += 1
            report.n_deadline += service.n_deadline - deadline_before
            return out, report
        answers = service.lookup_many(
            [r for _, r in lookups], deadline=deadline,
            per_request_s=per_request_s,
        )
        for (i, _), resp in zip(lookups, answers):
            report.n_errors += not resp.ok
            report.n_store_hits += resp.hit
            report.n_degraded += resp.degraded
            out[i] = _encode(resp, start + i) + "\n"
    report.n_deadline += service.n_deadline - deadline_before
    return out, report


def serve_stream(
    service: PredictionService,
    infile: IO[str],
    outfile: IO[str],
    batch_size: Optional[int] = None,
    max_queue: Optional[int] = None,
    deadline_s: Optional[float] = None,
    per_request_s: Optional[float] = None,
    snapshots: Optional[SnapshotManager] = None,
    skip: int = 0,
) -> ServeReport:
    """Serve a JSONL stream end to end (one response line per request).

    With ``batch_size`` the stream is answered in chunks, each written
    in pieces of whole lines (each piece ends at the first line boundary
    past 32 KiB of text) and flushed once; indices stay *global* (a
    response's ``index`` is its request's position in the whole
    stream), so the output is byte-identical to the unchunked run.
    ``deadline_s`` budgets each batch; ``snapshots`` saves the warm
    caches at batch boundaries (after the flush, so the snapshot's
    ``served`` cursor never runs ahead of durable output); ``skip``
    drops the first *skip* request lines — the resume path after a
    crash restore.
    """
    report = ServeReport()
    injector = _faults_active()
    base = 0
    batch_no = 0
    for chunk in _chunks(infile, batch_size):
        if base + len(chunk) <= skip:
            base += len(chunk)
            continue
        if base < skip:  # partial chunk boundary: drop the served head
            chunk = chunk[skip - base:]
            base = skip
        out, batch_report = serve_lines(
            service, chunk, max_queue=max_queue,
            deadline=deadline_s, per_request_s=per_request_s, start=base,
        )
        report.merge(batch_report)
        _write_pieces(outfile, out)
        outfile.flush()
        base += len(out)
        batch_no += 1
        if snapshots is not None:
            snapshots.maybe_save(served=base)
        # deterministic crash site: fires only when REPRO_FAULTS_KILL
        # names this exact batch (e.g. "serve-batch-3:1") — the chaos
        # suite kills here, restarts, and pins bit-identical output
        if injector is not None:
            injector.maybe_kill(f"serve-batch-{batch_no}", 0)
    if snapshots is not None and snapshots.served != base:
        snapshots.save(served=base)  # final cursor always lands on disk
    return report


def _write_pieces(outfile: IO[str], lines: List[str]) -> None:
    """Write *lines* in order, each piece ending at the first line
    boundary at or past ``_PIECE_CHARS`` characters."""
    start = size = 0
    for end, line in enumerate(lines, 1):
        size += len(line)
        if size >= _PIECE_CHARS:
            outfile.write("".join(lines[start:end]))
            start, size = end, 0
    if start < len(lines):
        outfile.write("".join(lines[start:]))


def _chunks(infile: IO[str], batch_size: Optional[int]) -> Iterable[List[str]]:
    """Split the input into non-blank-line batches (one batch when
    ``batch_size`` is None — the PR 6 single-batch behaviour)."""
    if batch_size is not None and batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    chunk: List[str] = []
    for line in infile:
        if not line.strip():
            continue
        chunk.append(line)
        if batch_size is not None and len(chunk) == batch_size:
            yield chunk
            chunk = []
    if chunk:
        yield chunk
