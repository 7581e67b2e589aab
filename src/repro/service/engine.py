"""The batch-query engine: prediction-as-a-service.

A :class:`PredictionService` is the long-lived object the paper's
closing pitch asks for — "a powerful predictive tool" that answers
"what will this I/O campaign cost?" for millions of queries without
running anything.  It loads its calibrations (growth table and/or
regression model) once at construction, keeps hot state in bounded LRU
caches, and exposes two batch verbs:

``predict_many(requests)``
    Zero-run size/burst predictions, bit-identical to per-call
    :func:`~repro.core.predictor.predict_sizes` (the equivalence suite
    pins this for every registered platform).  The request *is* the
    cache key: repeats — across calls or within one batch — are served
    from the prediction LRU, and misses share per-``(machine, nprocs)``
    :class:`~repro.service.plans.PlatformPlan` state: the storage model's
    even-split burst law, built once, timing a whole dump series.

``lookup_many(requests)``
    Cached-campaign hits from an attached
    :class:`~repro.campaign.store.ResultStore`.  Each unique case
    content is SHA-hashed once per service lifetime (bounded key memo),
    not once per call — and because the executor persists every
    finished case into the same store the moment it completes, campaign
    results are immediately servable.

Both verbs capture errors *per request*: a bad request (unknown
scenario or machine, invalid shape) yields an error response at its
index and the rest of the batch proceeds.
"""

from __future__ import annotations

import json
import math
import time
import warnings
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from ..campaign.cases import Case
from ..campaign.store import ResultStore, StoreCorruptionWarning, _canonical
from ..faults import active as _faults_active
from ..core.interpolation import GrowthTable
from ..core.predictor import SizePrediction, size_series
from ..core.regression import LinearModel
from .lru import LRUCache
from .plans import PlatformPlan
from .resilience import Deadline, DeadlineExceeded, StoreCircuitBreaker
from .request import (
    LookupRequest,
    LookupResponse,
    PredictRequest,
    PredictResponse,
)

__all__ = ["PredictionService"]

# Bound of the plan LRU: one entry per unique ``(machine, nprocs)``.
PLAN_CACHE_SIZE = 64


def _capture(exc: BaseException) -> str:
    """Per-request error text: exception type + message."""
    return f"{type(exc).__name__}: {exc}"


class CachedPrediction:
    """One prediction-LRU value: the prediction plus, once a ``cached:
    true`` answer has been served from it, that answer's encoded wire
    text after ``"ok":true,`` (kept here by the serve layer).

    The text depends only on the prediction, so it is built at most once
    per entry and evicted with it; snapshots store the prediction alone.
    """

    __slots__ = ("prediction", "text")

    def __init__(self, prediction: SizePrediction) -> None:
        self.prediction = prediction
        self.text: Optional[str] = None


class PredictionService:
    """Batched query engine over the predictor and the result store.

    Parameters
    ----------
    growth_table / regression:
        The calibrations, loaded once; resolution order per request
        matches :func:`predict_sizes` (table, then regression, then the
        Appendix-A guidance rule).
    store:
        Optional :class:`ResultStore` backing ``lookup_many``.  Share
        it with a :class:`~repro.campaign.executor.CampaignExecutor`
        and finished cases become servable the moment they complete
        (``lookup_many`` tails new entries via ``store.refresh()``
        before each batch — one ``os.stat`` when nothing changed).
    cache_size:
        Bound of the prediction LRU (one entry per unique request) and
        of the store-key memo; the plan LRU holds
        :data:`PLAN_CACHE_SIZE` entries.
    breaker:
        The store circuit breaker (a default one is built when omitted).
        ``N`` consecutive store faults — lock timeouts, corruption
        warnings, injected slow reads — open it, flipping lookups into
        degraded predict-only answers until a half-open probe succeeds.
    """

    def __init__(
        self,
        growth_table: Optional[GrowthTable] = None,
        regression: Optional[LinearModel] = None,
        store: Optional[ResultStore] = None,
        cache_size: int = 4096,
        breaker: Optional[StoreCircuitBreaker] = None,
    ) -> None:
        self.growth_table = growth_table
        self.regression = regression
        self.store = store
        self.breaker = breaker if breaker is not None else StoreCircuitBreaker()
        self._predictions = LRUCache(cache_size)
        self._plans = LRUCache(PLAN_CACHE_SIZE)
        self._keys = LRUCache(cache_size)  # case content -> store digest
        self.n_predicted = 0  # predictions computed (cache misses)
        self.n_served = 0  # predict responses answered ok
        self.n_lookups = 0  # lookup responses answered ok
        self.n_store_hits = 0
        self.n_errors = 0
        self.n_degraded = 0  # predict-only lookup answers (breaker/fault)
        self.n_deadline = 0  # requests expired past their deadline budget
        self.n_shed = 0  # requests shed by the serve loop's admission queue

    # -- predictions ---------------------------------------------------
    def predict_many(
        self,
        requests: Sequence[PredictRequest],
        deadline: Union[None, float, Deadline] = None,
        per_request_s: Optional[float] = None,
    ) -> List[PredictResponse]:
        """Answer a batch of prediction requests, errors captured per
        request (a mid-batch bad request never fails the batch).

        ``deadline`` is the batch budget (seconds, or a shared
        :class:`Deadline`); ``per_request_s`` bounds each *computed*
        request on its own — an LRU hit does no work, so it can never
        exhaust a request budget.  A request past either budget yields
        a named ``DeadlineExceeded`` error response at its index and
        the batch continues — budget exhaustion is per-request data,
        never a batch failure.

        The budget bookkeeping is kept off the warm path's critical
        microseconds: an LRU hit pays no clock read at all — the batch
        deadline is consulted on every cache *miss* (where the real
        time goes) and at least every 32 requests regardless, so a
        pure-hit batch still notices expiry promptly.  The resilience
        bench pins the armed warm path within 5% of the plain one.
        """
        deadline = Deadline.of(deadline)
        clock = deadline.clock
        t_end = (math.inf if deadline.budget_s is None
                 else deadline._t0 + deadline.budget_s)
        bounded = deadline.budget_s is not None or per_request_s is not None
        responses: List[PredictResponse] = []
        for i, req in enumerate(requests):
            try:
                if bounded and not i & 31 and clock() >= t_end:
                    deadline.check(f"predict request {i}")  # raises, named
                if not isinstance(req, PredictRequest):
                    raise ValueError(
                        f"expected a PredictRequest, got {type(req).__name__}"
                    )
                entry = self._predictions.get(req)
                cached = entry is not None
                if cached:
                    prediction = entry.prediction
                else:
                    now = clock() if bounded else 0.0
                    if now >= t_end:
                        deadline.check(f"predict request {i}")
                    prediction = self._predict(req)
                    self._remember(req, prediction)
                    self.n_predicted += 1
                    if (per_request_s is not None
                            and clock() - now >= per_request_s):
                        raise DeadlineExceeded(
                            f"predict request {i}: request budget of "
                            f"{per_request_s:.3f}s exhausted")
                self.n_served += 1
                responses.append(
                    PredictResponse(i, True, prediction, cached=cached)
                )
            except DeadlineExceeded as exc:
                self.n_errors += 1
                self.n_deadline += 1
                responses.append(PredictResponse(i, False, error=_capture(exc)))
            except Exception as exc:
                self.n_errors += 1
                responses.append(PredictResponse(i, False, error=_capture(exc)))
        return responses

    def _predict_cached(self, req: PredictRequest):
        """``(prediction, cached)`` through the prediction LRU — the one
        compute-or-cache path shared by predicts and degraded lookups."""
        entry = self._predictions.get(req)
        if entry is not None:
            return entry.prediction, True
        prediction = self._predict(req)
        self._remember(req, prediction)
        self.n_predicted += 1
        return prediction, False

    def _remember(self, req: PredictRequest, prediction: SizePrediction) -> None:
        """Insert one prediction into the LRU (also the snapshot restore)."""
        self._predictions.put(req, CachedPrediction(prediction))

    def cached_entry(self, request: PredictRequest,
                     prediction: SizePrediction) -> Optional[CachedPrediction]:
        """The LRU entry that still holds ``prediction`` for ``request``,
        or ``None`` once it was evicted or replaced.

        Uncounted and recency-neutral (a peek): the serve layer calls it
        after :meth:`predict_many` to keep a hit's encoded text on the
        entry, so callers that never serialize pay nothing.
        """
        entry = self._predictions.peek(request)
        if entry is not None and entry.prediction is prediction:
            return entry
        return None

    def predict_one(self, request: PredictRequest) -> PredictResponse:
        return self.predict_many([request])[0]

    def _predict(self, req: PredictRequest) -> SizePrediction:
        """One uncached prediction — ``predict_sizes``' own size series
        (:func:`~repro.core.predictor.size_series`) and burst law, the
        law cached on the plan (same floats)."""
        inputs, nprocs, machine = req.resolve()
        plan = self._plan(machine, nprocs)
        growth, source, steps = size_series(
            inputs, nprocs, req.f, self.growth_table, self.regression
        )
        return SizePrediction(
            inputs=inputs,
            nprocs=nprocs,
            f=req.f,
            growth=growth,
            growth_source=source,
            step_bytes=steps,
            cumulative_bytes=np.cumsum(steps),
            burst_seconds=plan.burst_series(steps),
            machine=machine,
        )

    def _plan(self, machine: str, nprocs: int) -> PlatformPlan:
        plan = self._plans.get((machine, nprocs))
        if plan is None:
            plan = PlatformPlan(machine, nprocs)
            self._plans.put((machine, nprocs), plan)
        return plan

    # -- cached-campaign lookups ---------------------------------------
    def lookup_many(
        self,
        requests: Sequence[Union[LookupRequest, Case]],
        extra: Optional[Dict] = None,
        deadline: Union[None, float, Deadline] = None,
        per_request_s: Optional[float] = None,
    ) -> List[LookupResponse]:
        """Answer a batch of cached-campaign lookups from the store.

        ``extra`` must be the execution options the cases would run
        with (the ``run_case`` kwargs) — it is part of the store key.
        Each unique case content is hashed at most once per service
        lifetime; repeats hit the bounded key memo.

        ``deadline``/``per_request_s`` bound the batch and each request
        exactly as in :meth:`predict_many`.  Store faults (lock
        timeouts, corruption warnings, injected slow reads) feed the
        circuit breaker: the faulting request — and, while the breaker
        is open, every subsequent one — gets a *degraded* predict-only
        answer (``degraded=True``, ``hit=False``) instead of stalling
        or failing the batch.
        """
        if self.store is None:
            raise ValueError("lookup_many requires a ResultStore (pass store=)")
        deadline = Deadline.of(deadline)
        # canonicalize the execution options once per batch, not per case
        extra_token = (
            None if not extra
            else json.dumps(_canonical(extra), sort_keys=True, separators=(",", ":"))
        )
        self._refresh_store(deadline)
        responses: List[LookupResponse] = []
        for i, req in enumerate(requests):
            try:
                deadline.check(f"lookup request {i}")
                request_deadline = Deadline(per_request_s, clock=deadline.clock)
                case = req if isinstance(req, Case) else req.resolve()
                if not isinstance(case, Case):
                    raise ValueError(
                        f"expected a LookupRequest or Case, got {type(req).__name__}"
                    )
                responses.append(
                    self._lookup_one(i, case, extra, extra_token,
                                     deadline, request_deadline)
                )
            except DeadlineExceeded as exc:
                self.n_errors += 1
                self.n_deadline += 1
                responses.append(LookupResponse(i, False, error=_capture(exc)))
            except Exception as exc:
                self.n_errors += 1
                responses.append(LookupResponse(i, False, error=_capture(exc)))
        return responses

    def _refresh_store(self, deadline: Deadline) -> None:
        """Ingest entries other writers appended, breaker-guarded.

        A lock timeout or a corruption warning during the refresh is a
        store fault: it counts toward opening the breaker, and the
        batch proceeds on the already-indexed entries (the refresh is
        incremental, so skipping it only delays visibility of other
        writers' results — it never serves wrong data).
        """
        if not self.breaker.allow() or deadline.expired():
            return
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", StoreCorruptionWarning)
                self.store.refresh()
        except TimeoutError:
            self.breaker.record_failure()
            return
        corrupt = [w for w in caught
                   if issubclass(w.category, StoreCorruptionWarning)]
        for w in corrupt:  # re-emit: the breaker listening is not silencing
            warnings.warn(w.message, stacklevel=2)
        if corrupt:
            self.breaker.record_failure()
        else:
            self.breaker.record_success()

    def _lookup_one(self, i: int, case: Case, extra: Optional[Dict],
                    extra_token: Optional[str], deadline: Deadline,
                    request_deadline: Deadline) -> LookupResponse:
        """One store lookup behind the breaker and the fault sites."""
        if not self.breaker.allow():
            return self._degraded(i, case)
        injector = _faults_active()
        slow = 0.0 if injector is None else injector.store_slow_seconds(case.name)
        if slow > 0.0:
            # injected slow read: stall (bounded by the budgets), count
            # it as a store fault, and answer degraded
            time.sleep(min(slow, deadline.remaining(),
                           request_deadline.remaining()))
            self.breaker.record_failure()
            deadline.check(f"lookup request {i}")
            request_deadline.check(f"lookup request {i}")
            return self._degraded(i, case)
        try:
            record = self.store.get_labeled(
                self._case_digest(case, extra, extra_token), case.name
            )
        except TimeoutError:
            self.breaker.record_failure()
            return self._degraded(i, case)
        self.breaker.record_success()
        request_deadline.check(f"lookup request {i}")
        hit = record is not None
        self.n_lookups += 1
        self.n_store_hits += hit
        return LookupResponse(i, True, record, hit)

    def _degraded(self, i: int, case: Case) -> LookupResponse:
        """A predict-only lookup answer for when the store is off-limits
        (breaker open, or the access itself faulted): honest, flagged
        ``degraded``, and served from the same prediction LRU."""
        req = PredictRequest(scenario=case.name, machine=case.machine,
                             nprocs=case.nprocs, inputs=case.inputs)
        prediction, _ = self._predict_cached(req)
        self.n_lookups += 1
        self.n_degraded += 1
        return LookupResponse(i, True, record=None, hit=False,
                              degraded=True, prediction=prediction)

    def _case_digest(self, case: Case, extra: Optional[Dict],
                     extra_token: Optional[str]) -> str:
        """The store key of a case's *content* (name excluded, exactly
        like :func:`~repro.campaign.store.case_key`), memoized."""
        memo_key = (case.inputs, case.nprocs, case.nnodes, case.engine,
                    case.machine, extra_token)
        digest = self._keys.get(memo_key)
        if digest is None:
            # lint: allow-cache-key(store identity is constant for the memo's lifetime — attach_store() clears it; `extra` is keyed as extra_token, its canonical JSON)
            digest = self.store.key_for(case, extra)
            self._keys.put(memo_key, digest)
        return digest

    def attach_store(self, store: Optional[ResultStore]) -> None:
        """Swap the backing store; drops the key memo (digests embed the
        store's code version)."""
        self.store = store
        self._keys.clear()

    # -- cache management ----------------------------------------------
    def invalidate(self) -> None:
        """Drop every cached plan, prediction, and key digest — e.g.
        after re-registering a platform with different hardware."""
        self._predictions.clear()
        self._plans.clear()
        self._keys.clear()

    def invalidate_request(self, request: PredictRequest) -> bool:
        """Drop one cached prediction; returns whether it was cached."""
        return self._predictions.invalidate(request)

    def stats(self) -> Dict:
        """Counters + per-cache stats, for load tests and ``--stats``."""
        return {
            "served": self.n_served,
            "predicted": self.n_predicted,
            "lookups": self.n_lookups,
            "store_hits": self.n_store_hits,
            "errors": self.n_errors,
            "degraded": self.n_degraded,
            "deadline_exceeded": self.n_deadline,
            "shed": self.n_shed,
            "breaker": self.breaker.stats(),
            "predictions": self._predictions.stats(),
            "plans": self._plans.stats(),
            "keys": self._keys.stats(),
        }
