"""Seeded, env-gated fault injection primitives.

All injection decisions are pure functions of ``(seed, site, key,
attempt)`` hashed through sha256 (:func:`unit_roll`) — no RNG state, no
process- or order-dependence — so a chaos run is exactly reproducible
and can be asserted against a clean run bit-for-bit.

Environment contract (all read live, never at import time):

``REPRO_FAULTS``
    Master gate.  Unset/empty/``0`` disables everything; anything else
    enables injection with the spec below.
``REPRO_FAULTS_SEED``
    Integer seed mixed into every roll (default ``0``).
``REPRO_FAULTS_TRANSIENT``
    Probability in ``[0, 1]`` that a case raises an injected
    :class:`TransientError` (default ``0``).  The roll is per *case*,
    not per attempt: the rate picks which cases fault, and
    ``REPRO_FAULTS_TRANSIENT_ATTEMPTS`` (default ``1``) picks how many
    leading attempts fault — so a retried case deterministically
    succeeds once past the window.
``REPRO_FAULTS_SLOW`` / ``REPRO_FAULTS_SLOW_S``
    Either a probability or a comma-separated list of case names that
    sleep ``REPRO_FAULTS_SLOW_S`` seconds (default ``5``) inside the
    case body — tripping the per-case timeout or the executor
    heartbeat.
``REPRO_FAULTS_KILL``
    Comma-separated ``name`` or ``name:count`` items: the named case
    hard-kills its pool worker (``os._exit(137)``) while its attempt
    number is below ``count`` (default ``1``).  ``count >= 2`` makes a
    poison case that the supervisor must quarantine.
``REPRO_FAULTS_TORN``
    Probability or case-name list: the store append for that case's
    record is torn — only a leading fragment of the JSONL line (plus a
    newline, so the blast radius is exactly one record) reaches disk.
``REPRO_FAULTS_CORRUPT``
    Probability or case-name list: a garbage non-JSON line is appended
    right after that case's record.
``REPRO_FAULTS_STORE_SLOW``
    Probability or case-name list: a *serving-side* store lookup for
    that case sleeps ``REPRO_FAULTS_SLOW_S`` seconds before answering —
    the slow-disk signature the service's circuit breaker counts as a
    store fault (the record is still returned after the stall).
``REPRO_FAULTS_SNAPSHOT_TORN``
    Probability or tag list (the snapshot file's basename): the
    service's warm-cache snapshot write is torn to a leading fragment,
    so the next restore sees a checksum mismatch and must fall back to
    a cold start with a named warning.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

__all__ = [
    "FaultInjector",
    "FaultSpec",
    "TransientError",
    "active",
    "enabled",
    "unit_roll",
]

_ENV_GATE = "REPRO_FAULTS"
_ENV_KEYS = (
    _ENV_GATE,
    "REPRO_FAULTS_SEED",
    "REPRO_FAULTS_TRANSIENT",
    "REPRO_FAULTS_TRANSIENT_ATTEMPTS",
    "REPRO_FAULTS_SLOW",
    "REPRO_FAULTS_SLOW_S",
    "REPRO_FAULTS_KILL",
    "REPRO_FAULTS_TORN",
    "REPRO_FAULTS_CORRUPT",
    "REPRO_FAULTS_STORE_SLOW",
    "REPRO_FAULTS_SNAPSHOT_TORN",
)


class TransientError(RuntimeError):
    """Injected stand-in for a recoverable infrastructure fault.

    Raised inside the case body by :meth:`FaultInjector.transient` sites;
    the default :class:`~repro.faults.policy.FaultPolicy` classifies it
    retryable by name, so chaos runs exercise the executor's retry path
    end to end.
    """


def unit_roll(seed: int, site: str, key: str, attempt: int = 0) -> float:
    """Deterministic uniform draw in ``[0, 1)`` for one injection decision.

    sha256 over ``seed/site/key/attempt`` mapped to a 64-bit fraction.
    Stable across processes and platforms, independent of call order,
    and free of RNG state — the property the chaos gate's bit-identity
    assertions rest on.
    """
    digest = hashlib.sha256(
        f"{seed}/{site}/{key}/{attempt}".encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64


def _parse_rate(value: str, name: str) -> float:
    try:
        rate = float(value)
    except ValueError:
        raise ValueError(
            f"{name} must be a float in [0, 1], got {value!r}"
        ) from None
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {rate}")
    return rate


def _parse_rate_or_names(value: str, name: str) -> Tuple[float, Tuple[str, ...]]:
    """``"0.2"`` -> (0.2, ()); ``"caseA,caseB"`` -> (0.0, ("caseA", "caseB"))."""
    value = value.strip()
    if not value:
        return 0.0, ()
    try:
        float(value)
    except ValueError:
        names = tuple(p.strip() for p in value.split(",") if p.strip())
        return 0.0, names
    return _parse_rate(value, name), ()


def _parse_kills(value: str) -> Tuple[Tuple[str, int], ...]:
    """``"a:2,b"`` -> (("a", 2), ("b", 1))."""
    kills = []
    for part in value.split(","):
        part = part.strip()
        if not part:
            continue
        name, _, count = part.partition(":")
        if count:
            try:
                n = int(count)
            except ValueError:
                raise ValueError(
                    f"REPRO_FAULTS_KILL count must be an int, got {part!r}"
                ) from None
        else:
            n = 1
        if n < 1:
            raise ValueError(
                f"REPRO_FAULTS_KILL count must be >= 1, got {part!r}")
        kills.append((name.strip(), n))
    return tuple(kills)


@dataclass(frozen=True)
class FaultSpec:
    """Parsed, validated injection configuration (see module docstring).

    Frozen so an injector's decisions can never drift mid-sweep; build
    one with :meth:`from_env` or directly in tests.
    """

    seed: int = 0
    transient_rate: float = 0.0
    transient_attempts: int = 1
    slow_rate: float = 0.0
    slow_cases: Tuple[str, ...] = ()
    slow_seconds: float = 5.0
    kill: Tuple[Tuple[str, int], ...] = ()
    torn_rate: float = 0.0
    torn_cases: Tuple[str, ...] = ()
    corrupt_rate: float = 0.0
    corrupt_cases: Tuple[str, ...] = ()
    store_slow_rate: float = 0.0
    store_slow_cases: Tuple[str, ...] = ()
    snapshot_torn_rate: float = 0.0
    snapshot_torn_cases: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        for attr in ("transient_rate", "slow_rate", "torn_rate", "corrupt_rate",
                     "store_slow_rate", "snapshot_torn_rate"):
            rate = getattr(self, attr)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"FaultSpec.{attr} must be in [0, 1], got {rate}")
        if self.transient_attempts < 1:
            raise ValueError(
                f"FaultSpec.transient_attempts must be >= 1, "
                f"got {self.transient_attempts}")
        if self.slow_seconds < 0.0:
            raise ValueError(
                f"FaultSpec.slow_seconds must be >= 0, got {self.slow_seconds}")

    @classmethod
    def from_env(cls, environ: Optional[Dict[str, str]] = None) -> "FaultSpec":
        """Parse the ``REPRO_FAULTS_*`` variables into a spec."""
        env = os.environ if environ is None else environ

        def get(key: str, default: str) -> str:
            value = env.get(key, "")
            return value if value.strip() else default

        slow_rate, slow_cases = _parse_rate_or_names(
            get("REPRO_FAULTS_SLOW", ""), "REPRO_FAULTS_SLOW")
        torn_rate, torn_cases = _parse_rate_or_names(
            get("REPRO_FAULTS_TORN", ""), "REPRO_FAULTS_TORN")
        corrupt_rate, corrupt_cases = _parse_rate_or_names(
            get("REPRO_FAULTS_CORRUPT", ""), "REPRO_FAULTS_CORRUPT")
        store_slow_rate, store_slow_cases = _parse_rate_or_names(
            get("REPRO_FAULTS_STORE_SLOW", ""), "REPRO_FAULTS_STORE_SLOW")
        snapshot_torn_rate, snapshot_torn_cases = _parse_rate_or_names(
            get("REPRO_FAULTS_SNAPSHOT_TORN", ""), "REPRO_FAULTS_SNAPSHOT_TORN")
        try:
            seed = int(get("REPRO_FAULTS_SEED", "0"))
            attempts = int(get("REPRO_FAULTS_TRANSIENT_ATTEMPTS", "1"))
            slow_seconds = float(get("REPRO_FAULTS_SLOW_S", "5"))
        except ValueError as exc:
            raise ValueError(
                f"REPRO_FAULTS_SEED / REPRO_FAULTS_TRANSIENT_ATTEMPTS / "
                f"REPRO_FAULTS_SLOW_S failed to parse: {exc}") from None
        return cls(
            seed=seed,
            transient_rate=_parse_rate(
                get("REPRO_FAULTS_TRANSIENT", "0"), "REPRO_FAULTS_TRANSIENT"),
            transient_attempts=attempts,
            slow_rate=slow_rate,
            slow_cases=slow_cases,
            slow_seconds=slow_seconds,
            kill=_parse_kills(get("REPRO_FAULTS_KILL", "")),
            torn_rate=torn_rate,
            torn_cases=torn_cases,
            corrupt_rate=corrupt_rate,
            corrupt_cases=corrupt_cases,
            store_slow_rate=store_slow_rate,
            store_slow_cases=store_slow_cases,
            snapshot_torn_rate=snapshot_torn_rate,
            snapshot_torn_cases=snapshot_torn_cases,
        )


class FaultInjector:
    """Pure decision engine over a :class:`FaultSpec`.

    Every ``should_*`` method is deterministic in its arguments; the only
    side-effecting method is :meth:`maybe_kill`, which hard-exits the
    calling process when the kill spec matches (and is only invoked from
    inside pool workers).
    """

    def __init__(self, spec: FaultSpec) -> None:
        self.spec = spec
        self._kill: Dict[str, int] = dict(spec.kill)

    def roll(self, site: str, key: str, attempt: int = 0) -> float:
        """The injector's seeded :func:`unit_roll` for one decision."""
        return unit_roll(self.spec.seed, site, key, attempt)

    # -- case-body faults -------------------------------------------------

    def transient(self, case_name: str, attempt: int) -> bool:
        """Should this attempt raise an injected :class:`TransientError`?

        The roll depends only on the case name — the rate selects which
        cases fault — while ``attempt < transient_attempts`` bounds how
        many leading attempts fault, so retries converge.
        """
        if attempt >= self.spec.transient_attempts:
            return False
        return self.roll("transient", case_name) < self.spec.transient_rate

    def slow_seconds_for(self, case_name: str) -> float:
        """Injected sleep for this case (0.0 = not selected)."""
        if case_name in self.spec.slow_cases:
            return self.spec.slow_seconds
        if self.roll("slow", case_name) < self.spec.slow_rate:
            return self.spec.slow_seconds
        return 0.0

    def should_kill(self, case_name: str, attempt: int) -> bool:
        """Would this attempt hard-kill its worker?  (Pure; testable.)"""
        return attempt < self._kill.get(case_name, 0)

    def maybe_kill(self, case_name: str, attempt: int) -> None:
        """Hard-exit the current process if the kill spec matches.

        ``os._exit(137)`` mimics ``SIGKILL`` (OOM killer): no cleanup,
        no exception, the pool just breaks.  Callers gate this on being
        inside a pool worker so an inline sweep can never kill the
        driving process.
        """
        if self.should_kill(case_name, attempt):
            os._exit(137)

    # -- store faults -----------------------------------------------------

    def torn_write(self, case_name: str) -> bool:
        """Should this case's store append be torn to a partial line?"""
        if case_name in self.spec.torn_cases:
            return True
        return self.roll("torn", case_name) < self.spec.torn_rate

    def corrupt_line(self, case_name: str) -> bool:
        """Should a garbage line follow this case's store append?"""
        if case_name in self.spec.corrupt_cases:
            return True
        return self.roll("corrupt", case_name) < self.spec.corrupt_rate

    def store_slow_seconds(self, key: str) -> float:
        """Injected stall for one serving-side store lookup (0.0 = not
        selected).

        Reuses ``REPRO_FAULTS_SLOW_S`` as the duration; the selection is
        a separate site/rate (``REPRO_FAULTS_STORE_SLOW``) so serving
        chaos can stall store reads without also slowing case bodies.
        """
        if key in self.spec.store_slow_cases:
            return self.spec.slow_seconds
        if self.roll("store-slow", key) < self.spec.store_slow_rate:
            return self.spec.slow_seconds
        return 0.0

    def snapshot_torn(self, tag: str) -> bool:
        """Should this warm-cache snapshot write be torn to a fragment?

        ``tag`` is the snapshot file's basename, so a name list pins the
        tear to one snapshot path deterministically.
        """
        if tag in self.spec.snapshot_torn_cases:
            return True
        return self.roll("snapshot-torn", tag) < self.spec.snapshot_torn_rate

    def garbage_line(self, case_name: str) -> bytes:
        """A deterministic newline-terminated non-JSON line."""
        tag = hashlib.sha256(
            f"{self.spec.seed}/garbage/{case_name}".encode("utf-8")
        ).hexdigest()[:16]
        return f"{{garbage:{tag}".encode("utf-8") + b"\n"


def enabled(environ: Optional[Dict[str, str]] = None) -> bool:
    """Is fault injection enabled (``REPRO_FAULTS`` set and not ``0``)?

    Read live from the environment on every call, mirroring
    ``repro.sanitize.enabled`` — never latched at import time.
    """
    env = os.environ if environ is None else environ
    return env.get(_ENV_GATE, "").strip() not in ("", "0")


_memo: Dict[Tuple[str, ...], FaultInjector] = {}


def active() -> Optional[FaultInjector]:
    """The process-wide injector, or ``None`` when injection is off.

    Off costs one environ read (the gate), which is what hot paths pay.
    On, the injector is memoized on the tuple of ``REPRO_FAULTS_*``
    values, so env changes (tests, chaos harness) still take effect
    immediately.
    """
    if os.environ.get(_ENV_GATE, "").strip() in ("", "0"):
        return None
    snapshot = tuple(os.environ.get(k, "") for k in _ENV_KEYS)
    injector = _memo.get(snapshot)
    if injector is None:
        if len(_memo) > 16:
            _memo.clear()
        injector = FaultInjector(FaultSpec.from_env())
        _memo[snapshot] = injector
    return injector
