"""Unit tests for ``repro.faults``: the seeded injection decisions are
pure functions of their arguments (the property every chaos-gate
bit-identity assertion rests on), the env parsing is strict, and the
retry policy's backoff is deterministic and bounded."""

import json

import pytest

from repro.faults import (
    FaultInjector,
    FaultPolicy,
    FaultSpec,
    TransientError,
    active,
    enabled,
    unit_roll,
)

ALL_FAULT_KEYS = (
    "REPRO_FAULTS",
    "REPRO_FAULTS_SEED",
    "REPRO_FAULTS_TRANSIENT",
    "REPRO_FAULTS_TRANSIENT_ATTEMPTS",
    "REPRO_FAULTS_SLOW",
    "REPRO_FAULTS_SLOW_S",
    "REPRO_FAULTS_KILL",
    "REPRO_FAULTS_TORN",
    "REPRO_FAULTS_CORRUPT",
)


@pytest.fixture(autouse=True)
def clean_faults_env(monkeypatch):
    """Start every test from a known injection environment, regardless
    of the ambient one (``make chaos`` exports ``REPRO_FAULTS=1``)."""
    for key in ALL_FAULT_KEYS:
        monkeypatch.delenv(key, raising=False)


class TestUnitRoll:
    def test_in_range_and_deterministic(self):
        r1 = unit_roll(0, "transient", "caseA")
        r2 = unit_roll(0, "transient", "caseA")
        assert r1 == r2
        assert 0.0 <= r1 < 1.0

    def test_varies_with_every_argument(self):
        base = unit_roll(0, "transient", "caseA", 0)
        assert unit_roll(1, "transient", "caseA", 0) != base
        assert unit_roll(0, "slow", "caseA", 0) != base
        assert unit_roll(0, "transient", "caseB", 0) != base
        assert unit_roll(0, "transient", "caseA", 1) != base

    def test_roughly_uniform(self):
        rolls = [unit_roll(7, "site", f"case{i}") for i in range(2000)]
        frac = sum(r < 0.2 for r in rolls) / len(rolls)
        assert 0.15 < frac < 0.25  # a 20% rate selects ~20% of cases


class TestFaultSpec:
    def test_defaults_inject_nothing(self):
        spec = FaultSpec()
        inj = FaultInjector(spec)
        assert not inj.transient("x", 0)
        assert inj.slow_seconds_for("x") == 0.0
        assert not inj.should_kill("x", 0)
        assert not inj.torn_write("x")
        assert not inj.corrupt_line("x")

    def test_from_env_rates_and_names(self):
        spec = FaultSpec.from_env({
            "REPRO_FAULTS_SEED": "42",
            "REPRO_FAULTS_TRANSIENT": "0.2",
            "REPRO_FAULTS_SLOW": "caseA, caseB",
            "REPRO_FAULTS_SLOW_S": "0.5",
            "REPRO_FAULTS_TORN": "0.1",
            "REPRO_FAULTS_CORRUPT": "caseC",
        })
        assert spec.seed == 42
        assert spec.transient_rate == 0.2
        assert spec.slow_cases == ("caseA", "caseB") and spec.slow_rate == 0.0
        assert spec.slow_seconds == 0.5
        assert spec.torn_rate == 0.1 and spec.torn_cases == ()
        assert spec.corrupt_cases == ("caseC",)

    def test_from_env_kill_counts(self):
        spec = FaultSpec.from_env({"REPRO_FAULTS_KILL": "a:2, b"})
        assert spec.kill == (("a", 2), ("b", 1))

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError, match="REPRO_FAULTS_TRANSIENT"):
            FaultSpec.from_env({"REPRO_FAULTS_TRANSIENT": "1.5"})

    def test_bad_kill_count_rejected(self):
        with pytest.raises(ValueError, match="REPRO_FAULTS_KILL"):
            FaultSpec.from_env({"REPRO_FAULTS_KILL": "a:zero"})
        with pytest.raises(ValueError, match="REPRO_FAULTS_KILL"):
            FaultSpec.from_env({"REPRO_FAULTS_KILL": "a:0"})

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="transient_rate"):
            FaultSpec(transient_rate=2.0)
        with pytest.raises(ValueError, match="transient_attempts"):
            FaultSpec(transient_attempts=0)
        with pytest.raises(ValueError, match="slow_seconds"):
            FaultSpec(slow_seconds=-1.0)


class TestInjector:
    def test_transient_attempt_window(self):
        inj = FaultInjector(FaultSpec(transient_rate=1.0, transient_attempts=2))
        assert inj.transient("case", 0)
        assert inj.transient("case", 1)
        assert not inj.transient("case", 2)  # retries converge

    def test_transient_roll_is_per_case_not_per_attempt(self):
        inj = FaultInjector(FaultSpec(transient_rate=0.5, transient_attempts=3))
        for name in ("a", "b", "c", "d"):
            first = inj.transient(name, 0)
            assert inj.transient(name, 1) == first
            assert inj.transient(name, 2) == first

    def test_should_kill_honors_count(self):
        inj = FaultInjector(FaultSpec(kill=(("poison", 2), ("once", 1))))
        assert inj.should_kill("poison", 0) and inj.should_kill("poison", 1)
        assert not inj.should_kill("poison", 2)
        assert inj.should_kill("once", 0) and not inj.should_kill("once", 1)
        assert not inj.should_kill("other", 0)

    def test_slow_by_name(self):
        inj = FaultInjector(FaultSpec(slow_cases=("laggard",), slow_seconds=3.0))
        assert inj.slow_seconds_for("laggard") == 3.0
        assert inj.slow_seconds_for("other") == 0.0

    def test_torn_and_corrupt_by_name(self):
        inj = FaultInjector(FaultSpec(torn_cases=("t",), corrupt_cases=("c",)))
        assert inj.torn_write("t") and not inj.torn_write("c")
        assert inj.corrupt_line("c") and not inj.corrupt_line("t")

    def test_garbage_line_is_deterministic_non_json(self):
        inj = FaultInjector(FaultSpec(seed=9))
        line = inj.garbage_line("case")
        assert line == inj.garbage_line("case")
        assert line.endswith(b"\n")
        with pytest.raises(json.JSONDecodeError):
            json.loads(line.decode("utf-8"))


class TestGating:
    def test_enabled_reads_the_gate(self):
        assert not enabled({})
        assert not enabled({"REPRO_FAULTS": ""})
        assert not enabled({"REPRO_FAULTS": "0"})
        assert enabled({"REPRO_FAULTS": "1"})

    def test_active_none_when_off(self):
        assert active() is None

    def test_active_injector_when_on(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "1")
        monkeypatch.setenv("REPRO_FAULTS_TRANSIENT", "0.25")
        inj = active()
        assert inj is not None
        assert inj.spec.transient_rate == 0.25

    def test_active_memoizes_but_tracks_env_changes(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "1")
        monkeypatch.setenv("REPRO_FAULTS_SEED", "1")
        first = active()
        assert active() is first  # same env tuple -> same injector
        monkeypatch.setenv("REPRO_FAULTS_SEED", "2")
        second = active()
        assert second is not first and second.spec.seed == 2
        monkeypatch.delenv("REPRO_FAULTS")
        assert active() is None

    @pytest.mark.parametrize("key,value,attr,want", [
        ("REPRO_FAULTS_SEED", "7", "seed", 7),
        ("REPRO_FAULTS_TRANSIENT", "0.5", "transient_rate", 0.5),
        ("REPRO_FAULTS_TRANSIENT_ATTEMPTS", "3", "transient_attempts", 3),
        ("REPRO_FAULTS_SLOW", "case4", "slow_cases", ("case4",)),
        ("REPRO_FAULTS_SLOW_S", "0.25", "slow_seconds", 0.25),
        ("REPRO_FAULTS_KILL", "serve-batch-2:1", "kill", (("serve-batch-2", 1),)),
        ("REPRO_FAULTS_TORN", "case5", "torn_cases", ("case5",)),
        ("REPRO_FAULTS_CORRUPT", "0.125", "corrupt_rate", 0.125),
        ("REPRO_FAULTS_STORE_SLOW", "case27", "store_slow_cases", ("case27",)),
        ("REPRO_FAULTS_SNAPSHOT_TORN", "x.snap", "snapshot_torn_cases", ("x.snap",)),
    ])
    def test_gate_and_every_key_take_effect_immediately(
            self, monkeypatch, key, value, attr, want):
        """Off reads only the gate, but nothing is latched: flipping the
        gate, or any other key while it is on, shows on the next call."""
        for other in ("REPRO_FAULTS_STORE_SLOW", "REPRO_FAULTS_SNAPSHOT_TORN"):
            monkeypatch.delenv(other, raising=False)
        monkeypatch.setenv(key, value)
        assert active() is None  # gate unset: the key alone arms nothing
        monkeypatch.setenv("REPRO_FAULTS", "0")
        assert active() is None
        monkeypatch.setenv("REPRO_FAULTS", "1")
        armed = active()
        assert armed is not None and getattr(armed.spec, attr) == want
        monkeypatch.delenv(key)
        cleared = active()
        assert cleared is not armed
        assert getattr(cleared.spec, attr) == getattr(FaultSpec(), attr)
        monkeypatch.setenv(key, value)
        assert getattr(active().spec, attr) == want
        monkeypatch.setenv("REPRO_FAULTS", "")
        assert active() is None


class TestFaultPolicy:
    def test_retryable_matches_transient_signatures(self):
        policy = FaultPolicy()
        assert policy.retryable("repro.faults.inject.TransientError: injected")
        assert policy.retryable("ConnectionResetError: peer")
        assert not policy.retryable("ValueError: bad mesh")

    def test_injected_transient_is_retryable_end_to_end(self):
        import traceback

        try:
            raise TransientError("injected transient fault")
        except TransientError:
            text = traceback.format_exc()
        assert FaultPolicy().retryable(text)

    def test_delay_grows_and_caps(self):
        policy = FaultPolicy(backoff_base=0.1, backoff_factor=2.0,
                             backoff_max=0.5, jitter=0.0)
        delays = [policy.delay("case", a) for a in range(5)]
        assert delays == [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_jitter_bounded_and_deterministic(self):
        policy = FaultPolicy(backoff_base=0.1, jitter=0.25)
        d1 = policy.delay("case", 0)
        assert d1 == policy.delay("case", 0)
        assert 0.075 <= d1 <= 0.125
        # two sweeps sharing a seed spread different cases apart
        assert policy.delay("caseA", 0) != policy.delay("caseB", 0)

    def test_validation(self):
        with pytest.raises(ValueError, match="max_retries"):
            FaultPolicy(max_retries=-1)
        with pytest.raises(ValueError, match="retry_budget"):
            FaultPolicy(retry_budget=-1)
        with pytest.raises(ValueError, match="jitter"):
            FaultPolicy(jitter=1.5)
        with pytest.raises(ValueError, match="backoff_base"):
            FaultPolicy(backoff_base=-0.1)
