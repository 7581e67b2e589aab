"""Service request/response schema and its JSONL wire form.

A batch is a sequence of requests, each one of:

* :class:`PredictRequest` — "what will this configuration cost?":
  a scenario (a :data:`~repro.campaign.cases.CASE_REGISTRY` name, or
  inline :class:`~repro.sim.inputs.CastroInputs`) plus the machine,
  task count, and step count to predict it at.  Answered by the
  zero-run predictor (:func:`~repro.core.predictor.predict_sizes`
  semantics, bit-identical).
* :class:`LookupRequest` — "was this campaign case already run?":
  a registry case re-hosted on a machine, answered from the attached
  :class:`~repro.campaign.store.ResultStore` without executing.

Requests are frozen and hashable — the request *is* the cache key —
and every response carries ``index`` (its request's position in the
batch; on the wire, in the whole stream) plus per-request error
capture: a bad request yields an error response at its index, never a
batch failure.

The wire form is JSON-lines: one request object per line with an
optional ``"op"`` field (``"predict"``, the default, or ``"lookup"``);
responses come back one line per request, in request order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple, Union

from ..campaign.cases import CASE_REGISTRY, Case
from ..campaign.records import RunRecord
from ..core.predictor import DEFAULT_F, SizePrediction
from ..platform import get_platform
from ..sim.inputs import CastroInputs

__all__ = [
    "PredictRequest",
    "LookupRequest",
    "PredictResponse",
    "LookupResponse",
    "Request",
    "Response",
    "request_from_dict",
    "response_to_dict",
]


@dataclass(frozen=True)
class PredictRequest:
    """One prediction query: (scenario, machine, nprocs, steps).

    ``scenario`` names a registry case supplying the baseline inputs and
    defaults; ``inputs`` carries inline :class:`CastroInputs` instead
    (then ``nprocs`` is required and ``scenario`` is just a label).
    ``machine``/``nprocs``/``steps`` override the scenario's machine,
    task count, and ``max_step``; ``f`` is the Eq.-3 correction factor.
    """

    scenario: str = "case4"
    machine: Optional[str] = None
    nprocs: Optional[int] = None
    steps: Optional[int] = None
    f: float = DEFAULT_F
    inputs: Optional[CastroInputs] = None

    def resolve(self) -> Tuple[CastroInputs, int, str]:
        """Validate and normalize to ``(inputs, nprocs, machine)``.

        Raises ``ValueError`` (or a subclass, e.g.
        :class:`~repro.platform.UnknownMachineError`) on a bad request —
        the engine captures it per request.
        """
        if self.inputs is not None:
            inputs = self.inputs
            if self.nprocs is None:
                raise ValueError(
                    f"request {self.scenario!r}: inline inputs require nprocs"
                )
            nprocs = self.nprocs
            machine = self.machine
        else:
            try:
                case = CASE_REGISTRY[self.scenario]
            except KeyError:
                valid = ", ".join(sorted(CASE_REGISTRY))
                raise ValueError(
                    f"unknown scenario {self.scenario!r}; choose from: {valid}"
                ) from None
            inputs = case.inputs
            nprocs = self.nprocs if self.nprocs is not None else case.nprocs
            machine = self.machine if self.machine is not None else case.machine
        if nprocs < 1:
            raise ValueError(f"request {self.scenario!r}: nprocs must be >= 1")
        if self.steps is not None:
            if self.steps < 0:
                raise ValueError(f"request {self.scenario!r}: steps must be >= 0")
            inputs = replace(inputs, max_step=self.steps)
        if not (math.isfinite(self.f) and self.f > 0):
            raise ValueError(
                f"request {self.scenario!r}: f must be positive and finite "
                f"(got {self.f})"
            )
        # resolves DEFAULT_MACHINE for None; raises UnknownMachineError
        return inputs, nprocs, get_platform(machine).name


@dataclass(frozen=True)
class LookupRequest:
    """One cached-campaign query: a registry case on a machine."""

    scenario: str
    machine: Optional[str] = None

    def resolve(self) -> Case:
        try:
            case = CASE_REGISTRY[self.scenario]
        except KeyError:
            valid = ", ".join(sorted(CASE_REGISTRY))
            raise ValueError(
                f"unknown scenario {self.scenario!r}; choose from: {valid}"
            ) from None
        if self.machine is not None:
            case = case.on_machine(self.machine)  # UnknownMachineError
        return case


Request = Union[PredictRequest, LookupRequest]


@dataclass(frozen=True)
class PredictResponse:
    """Answer to one :class:`PredictRequest` (``ok`` or captured error)."""

    index: int
    ok: bool
    prediction: Optional[SizePrediction] = None
    error: Optional[str] = None
    cached: bool = False


@dataclass(frozen=True)
class LookupResponse:
    """Answer to one :class:`LookupRequest`; ``hit`` means stored.

    ``degraded=True`` marks a predict-only answer served while the
    store circuit breaker is open (or the store read faulted): the
    service could not consult the store, so ``record``/``hit`` are
    empty and ``prediction`` carries the zero-run estimate instead —
    an honest answer, flagged as such, rather than a stalled batch.
    """

    index: int
    ok: bool
    record: Optional[RunRecord] = None
    hit: bool = False
    error: Optional[str] = None
    degraded: bool = False
    prediction: Optional[SizePrediction] = None


Response = Union[PredictResponse, LookupResponse]


# ----------------------------------------------------------------------
# JSONL wire form
# The compact-JSON head of every ok predict line: ``response_to_dict``
# puts these keys first, in this order.  The serve layer writes a cached
# answer as this head plus the encoded text that follows it.
PREDICT_OK_HEAD = '{"op":"predict","index":%d,"ok":true,'

_PREDICT_KEYS = {"op", "scenario", "machine", "nprocs", "steps", "f", "inputs"}
_LOOKUP_KEYS = {"op", "scenario", "machine"}


def request_from_dict(payload: Dict) -> Request:
    """Parse one wire request object (raises ``ValueError`` on shape)."""
    if not isinstance(payload, dict):
        raise ValueError(f"request must be a JSON object, got {type(payload).__name__}")
    op = payload.get("op", "predict")
    if op == "predict":
        unknown = set(payload) - _PREDICT_KEYS
        if unknown:
            raise ValueError(f"unknown predict fields: {', '.join(sorted(unknown))}")
        inputs = payload.get("inputs")
        if inputs is not None:
            if not isinstance(inputs, dict):
                raise ValueError("inputs must be a JSON object of CastroInputs fields")
            try:
                inputs = CastroInputs(**{
                    k: tuple(v) if isinstance(v, list) else v
                    for k, v in inputs.items()
                })
            except TypeError as exc:
                raise ValueError(f"bad inputs object: {exc}") from None
        # bool is an int subclass and True == 1 hashes alike, so a bool
        # would share its cache key with an integer request: refuse it
        # here, before the request becomes a key.
        for name in ("nprocs", "steps"):
            value = payload.get(name)
            if value is not None and (isinstance(value, bool) or not isinstance(value, int)):
                raise ValueError(f"{name} must be a JSON integer (got {value!r})")
        f = payload.get("f", DEFAULT_F)
        if isinstance(f, bool) or not isinstance(f, (int, float)):
            raise ValueError(f"f must be a JSON number (got {f!r})")
        return PredictRequest(
            scenario=payload.get("scenario", "case4"),
            machine=payload.get("machine"),
            nprocs=payload.get("nprocs"),
            steps=payload.get("steps"),
            f=f,
            inputs=inputs,
        )
    if op == "lookup":
        unknown = set(payload) - _LOOKUP_KEYS
        if unknown:
            raise ValueError(f"unknown lookup fields: {', '.join(sorted(unknown))}")
        if "scenario" not in payload:
            raise ValueError("lookup requires a scenario")
        return LookupRequest(
            scenario=payload["scenario"], machine=payload.get("machine")
        )
    raise ValueError(f"unknown op {op!r}; expected 'predict' or 'lookup'")


def response_to_dict(response: Response) -> Dict:
    """Render one response as its wire object (JSON-serializable)."""
    if isinstance(response, PredictResponse):
        out: Dict = {"op": "predict", "index": response.index, "ok": response.ok}
        if response.ok:
            p = response.prediction
            out.update(
                machine=p.machine,
                nprocs=p.nprocs,
                f=p.f,
                growth=p.growth,
                growth_source=p.growth_source,
                n_dumps=len(p.step_bytes),
                total_bytes=p.total_bytes,
                step_bytes=[float(v) for v in p.step_bytes],
                cumulative_bytes=[float(v) for v in p.cumulative_bytes],
                cached=response.cached,
            )
            if p.burst_seconds is not None:
                out["burst_seconds"] = [float(v) for v in p.burst_seconds]
        else:
            out["error"] = response.error
        return out
    out = {"op": "lookup", "index": response.index, "ok": response.ok}
    if response.ok:
        out["hit"] = response.hit
        if response.hit:
            r = response.record
            out.update(
                case=r.name,
                machine=r.machine,
                nprocs=r.nprocs,
                n_dumps=len(r.steps),
                total_bytes=float(sum(r.step_bytes)),
            )
        elif response.degraded:
            p = response.prediction
            out.update(
                degraded=True,
                machine=p.machine,
                nprocs=p.nprocs,
                n_dumps=len(p.step_bytes),
                total_bytes=p.total_bytes,
            )
    else:
        out["error"] = response.error
    return out
