"""Unit tests for the serving-tier resilience primitives.

These are the pure, socket-free pieces -- admission accounting,
seeded backoff, spec degradation, breaker state machine, rolling
window -- whose determinism the serve-level chaos gate then asserts
end-to-end.
"""

import pytest

from repro.serve.resilience import (
    AdmissionController,
    CircuitBreaker,
    RetryPolicy,
    RollingWindow,
    degrade_spec,
)


class TestAdmissionController:
    def test_admits_up_to_budget_then_hints(self):
        adm = AdmissionController(budget=2, retry_after_ms=10.0)
        assert adm.try_admit() is None
        assert adm.try_admit() is None
        hint = adm.try_admit()
        assert hint is not None and hint > 0
        assert adm.rejected == 1

    def test_release_frees_a_slot(self):
        adm = AdmissionController(budget=1)
        assert adm.try_admit() is None
        assert adm.try_admit() is not None
        adm.release()
        assert adm.try_admit() is None

    def test_hint_grows_with_queue_pressure(self):
        adm = AdmissionController(budget=1, retry_after_ms=10.0)
        adm.try_admit()
        first = adm.try_admit()
        adm.inflight += 3  # simulate deeper overload
        deeper = adm.try_admit()
        assert deeper > first

    def test_release_without_admit_is_an_error(self):
        with pytest.raises(RuntimeError):
            AdmissionController(budget=1).release()

    def test_snapshot_counts(self):
        adm = AdmissionController(budget=1)
        adm.try_admit()
        adm.try_admit()
        snap = adm.snapshot()
        assert snap["inflight"] == 1
        assert snap["admitted"] == 1
        assert snap["rejected"] == 1
        assert snap["budget"] == 1

    def test_bad_budget_rejected(self):
        with pytest.raises(ValueError):
            AdmissionController(budget=0)

    def test_retry_hint_tracks_pressure_without_counting(self):
        adm = AdmissionController(budget=2, retry_after_ms=10.0)
        assert adm.retry_hint() == 10.0  # idle: the base hint
        adm.try_admit()
        adm.try_admit()
        adm.inflight += 2  # simulate overload beyond the budget
        assert adm.retry_hint() == 20.0  # 10 * (1 + 2/2)
        assert adm.rejected == 0  # a hint read is not a rejection

    def test_retry_hint_matches_budget_rejection_hint(self):
        adm = AdmissionController(budget=2, retry_after_ms=10.0)
        adm.try_admit()
        adm.try_admit()
        assert adm.try_admit() == adm.retry_hint()


class TestRetryPolicy:
    def test_backoff_is_deterministic_in_seed_and_key(self):
        a = RetryPolicy(max_retries=3, base_ms=10.0, seed=7)
        b = RetryPolicy(max_retries=3, base_ms=10.0, seed=7)
        assert [a.backoff_ms("k", n) for n in (1, 2, 3)] == [
            b.backoff_ms("k", n) for n in (1, 2, 3)
        ]

    def test_distinct_keys_get_distinct_jitter(self):
        pol = RetryPolicy(max_retries=1, base_ms=10.0, seed=7)
        samples = {pol.backoff_ms(f"k{i}", 1) for i in range(32)}
        assert len(samples) > 1  # jittered, not a fixed ladder

    def test_exponential_growth_capped(self):
        pol = RetryPolicy(max_retries=8, base_ms=10.0, cap_ms=40.0, seed=1)
        # Attempt n draws from [0.5, 1.0) * min(base * 2^(n-1), cap).
        assert pol.backoff_ms("k", 1) <= 10.0
        assert pol.backoff_ms("k", 10) <= 40.0
        assert pol.backoff_ms("k", 10) >= 20.0

    def test_zero_retries_allowed(self):
        assert RetryPolicy(max_retries=0, seed=1).max_retries == 0


class TestDegradeSpec:
    def test_event_degrades_to_replay(self):
        # First rung: the byte-identical trace-compiled tier.
        assert degrade_spec("event:e16") == "replay(event:e16)"
        assert degrade_spec("event") == "replay(event)"
        assert degrade_spec("event:8x8@700e6") == "replay(event:8x8@700e6)"

    def test_replay_degrades_to_analytic(self):
        # Second rung: the banded analytic model.
        assert degrade_spec("replay(event:e16)") == "analytic:e16"
        assert degrade_spec("replay(event)") == "analytic"
        assert degrade_spec("replay:e16") == "analytic:e16"
        assert degrade_spec("replay") == "analytic"

    def test_ladder_bottoms_out(self):
        first = degrade_spec("event:e16")
        second = degrade_spec(first)
        assert (first, second) == ("replay(event:e16)", "analytic:e16")
        assert degrade_spec(second) is None

    def test_faulty_wrapper_skips_the_replay_rung(self):
        # Replay refuses to cache fault-injected runs, so the ladder
        # goes straight to analytic while keeping the wrapper.
        spec = "faulty(link:(0,0)->(0,1)@p=1:stall=5; seed=3):event:e16"
        assert (
            degrade_spec(spec)
            == "faulty(link:(0,0)->(0,1)@p=1:stall=5; seed=3):analytic:e16"
        )

    def test_faulty_wrapped_replay_degrades_to_analytic(self):
        spec = "faulty(core:(0,0)@i=1; seed=2):replay(event:e16)"
        assert (
            degrade_spec(spec)
            == "faulty(core:(0,0)@i=1; seed=2):analytic:e16"
        )

    def test_nested_wrappers_peel_to_the_engine(self):
        spec = "faulty(core:(1,1)@i=2; seed=1):faulty(core:(0,0)@i=1; seed=2):event:e64"
        out = degrade_spec(spec)
        assert out is not None and out.endswith(":analytic:e64")
        assert out.count("faulty(") == 2

    def test_analytic_has_no_substitute(self):
        assert degrade_spec("analytic:e16") is None
        assert degrade_spec("faulty(core:(0,0)@i=1):analytic:e16") is None
        assert degrade_spec("replay(analytic:e16)") is None


class TestDegradeSpelling:
    """The ladder reads the parsed spec, so every spelling of one
    machine descends to the same rung."""

    @pytest.mark.parametrize("spelling", ["e16", ":e16", "EVENT:E16", " event:e16 "])
    def test_event_spellings_degrade_like_event_e16(self, spelling):
        assert degrade_spec(spelling) == degrade_spec("event:e16")

    def test_wrapped_bare_spec_degrades_like_its_event_form(self):
        assert degrade_spec("faulty(flag:drop@n=1):e16") == degrade_spec(
            "faulty(flag:drop@n=1):event:e16"
        )


class TestCircuitBreaker:
    def test_disabled_when_failures_zero(self):
        br = CircuitBreaker(window=4, failures=0, cooldown=2)
        assert not br.enabled
        assert br.decide("event:e16") == ("pass", None)

    def test_trips_after_threshold_and_degrades(self):
        br = CircuitBreaker(window=4, failures=2, cooldown=2)
        for _ in range(2):
            assert br.decide("event:e16")[0] == "pass"
            br.record("event:e16", ok=False)
        verdict, substitute = br.decide("event:e16")
        assert verdict == "degrade"
        assert substitute == "replay(event:e16)"
        assert br.snapshot()["trips"] == 1

    def test_replay_spec_degrades_to_analytic(self):
        br = CircuitBreaker(window=4, failures=2, cooldown=2)
        for _ in range(2):
            br.record("replay(event:e16)", ok=False)
        verdict, substitute = br.decide("replay(event:e16)")
        assert verdict == "degrade"
        assert substitute == "analytic:e16"

    def test_probe_after_cooldown_then_recovery(self):
        br = CircuitBreaker(window=4, failures=2, cooldown=1)
        br.record("event:e16", ok=False)
        br.record("event:e16", ok=False)
        assert br.decide("event:e16")[0] == "degrade"  # cooldown tick
        verdict, _ = br.decide("event:e16")
        assert verdict == "probe"
        br.record("event:e16", ok=True)
        assert br.decide("event:e16")[0] == "pass"
        assert br.snapshot()["recoveries"] == 1

    def test_failed_probe_retrips(self):
        br = CircuitBreaker(window=4, failures=2, cooldown=1)
        br.record("event:e16", ok=False)
        br.record("event:e16", ok=False)
        br.decide("event:e16")  # cooldown
        assert br.decide("event:e16")[0] == "probe"
        br.record("event:e16", ok=False)
        assert br.decide("event:e16")[0] == "degrade"
        assert br.snapshot()["trips"] == 2

    def test_undegradable_spec_never_degrades(self):
        br = CircuitBreaker(window=4, failures=1, cooldown=1)
        br.record("analytic:e16", ok=False)
        assert br.decide("analytic:e16") == ("pass", None)

    def test_per_spec_isolation(self):
        br = CircuitBreaker(window=4, failures=1, cooldown=4)
        br.record("event:e16", ok=False)
        assert br.decide("event:e16")[0] == "degrade"
        assert br.decide("event:e64")[0] == "pass"

    def test_snapshot_shape(self):
        br = CircuitBreaker(window=4, failures=1, cooldown=4)
        br.record("event:e16", ok=False)
        snap = br.snapshot()
        assert snap["trips"] == 1 and snap["recoveries"] == 0
        assert snap["specs"]["event:e16"]["state"] == "open"


class TestRollingWindow:
    def test_records_and_rates(self):
        now = [0.0]
        win = RollingWindow(horizon_s=10.0, clock=lambda: now[0])
        win.record("served")
        now[0] = 1.0
        win.record("served")
        win.record("error")
        snap = win.snapshot()
        assert snap["events"] == {"served": 2, "error": 1}
        assert snap["per_s"]["served"] > 0

    def test_old_events_expire(self):
        now = [0.0]
        win = RollingWindow(horizon_s=5.0, clock=lambda: now[0])
        win.record("served")
        now[0] = 6.0
        win.record("error")
        assert win.snapshot()["events"] == {"error": 1}

    def test_idle_window_prunes_on_read(self):
        # Regression: expiry must happen on snapshot() itself, not
        # only as a side effect of the next record() -- an idle server
        # whose last event is past the horizon must report empty, and
        # repeated reads must stay empty (and actually drop the
        # stale entries, not just hide them).
        now = [0.0]
        win = RollingWindow(horizon_s=5.0, clock=lambda: now[0])
        win.record("served")
        win.record("served")
        assert win.snapshot()["events"] == {"served": 2}
        now[0] = 100.0  # idle far past the horizon; no record() since
        snap = win.snapshot()
        assert snap["events"] == {}
        assert snap["per_s"] == {}
        assert len(win._events) == 0  # pruned, not merely filtered
        now[0] = 101.0
        assert win.snapshot()["events"] == {}
