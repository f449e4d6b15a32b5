"""Behavioural tests of :class:`repro.replay.machine.ReplayMachine`.

The contract under test is *byte identity*: a replay hit must be
indistinguishable from the cold event run it stands in for -- same
cycles, energy, trace counters, results, recorder intervals -- and
every situation where that cannot be guaranteed (fault wrappers,
pending events, stalls, disabled memo) must fall back to a cold run.
"""

import numpy as np
import pytest

from repro.machine.backends import get_machine
from repro.perf import clear_memo, memo_disabled
from repro.replay.machine import ReplayMachine
from repro.replay.schedule import snapshot_chip


@pytest.fixture(autouse=True)
def _fresh_memo():
    """Each test starts from an empty process memo (no disk cache in
    the test environment unless REPRO_CACHE_DIR is exported)."""
    clear_memo()
    yield
    clear_memo()


def _spmd_run(machine, pulses=64, ranges=65):
    from repro.kernels.ffbp_common import plan_ffbp
    from repro.kernels.ffbp_spmd import run_ffbp_spmd
    from repro.sar.config import RadarConfig

    plan = plan_ffbp(RadarConfig.small(n_pulses=pulses, n_ranges=ranges))
    return run_ffbp_spmd(machine, plan, 16)


def _long_program(ctx):
    from repro.machine.event import Delay

    yield Delay(100_000)


# Declared so the stalled-run tests reach the cache (and its
# invalid-schedule sentinel) instead of stopping at "uncacheable".
_long_program.__replay_fp__ = ("long-program", 100_000)


def _short_program(ctx):
    from repro.machine.event import Delay

    yield Delay(10)


TRACE_FIELDS = (
    "total_flops",
    "ext_read_bytes",
    "ext_write_bytes",
    "remote_read_bytes",
    "remote_write_bytes",
    "messages_sent",
    "messages_received",
    "barriers",
    "dma_transfers",
    "compute_cycles",
    "stall_cycles",
)


def assert_byte_identical(a, b):
    assert a.cycles == b.cycles
    assert a.seconds == b.seconds
    assert a.energy_joules == b.energy_joules
    assert a.average_power_w == b.average_power_w
    assert a.stalled == b.stalled
    for field in TRACE_FIELDS:
        assert getattr(a.trace, field) == getattr(b.trace, field), field
    assert len(a.results) == len(b.results)
    for ra, rb in zip(a.results, b.results):
        if isinstance(ra, np.ndarray):
            assert np.array_equal(ra, rb)
        else:
            assert ra == rb


class TestByteIdentity:
    def test_capture_then_hit_match_cold(self):
        cold = _spmd_run(get_machine("event:e16"))

        m1 = get_machine("replay(event:e16)")
        captured = _spmd_run(m1)
        assert m1.stats()["captures"] == 1

        m2 = get_machine("replay(event:e16)")
        hit = _spmd_run(m2)
        assert m2.stats()["replays"] == 1

        assert_byte_identical(cold, captured)
        assert_byte_identical(cold, hit)

    def test_phased_runs_chain_through_pre_state(self):
        # Two back-to-back runs on one machine: the second capture is
        # keyed on the post-state of the first, so a fresh machine
        # replays both phases in sequence, byte-identically.
        def two_phase(machine):
            first = _spmd_run(machine, pulses=32, ranges=33)
            second = _spmd_run(machine, pulses=64, ranges=65)
            return first, second

        c1, c2 = two_phase(get_machine("event:e16"))
        m = get_machine("replay(event:e16)")
        a1, a2 = two_phase(m)
        assert m.stats()["captures"] == 2
        m = get_machine("replay(event:e16)")
        b1, b2 = two_phase(m)
        assert m.stats()["replays"] == 2
        for cold, cap, hit in ((c1, a1, b1), (c2, a2, b2)):
            assert_byte_identical(cold, cap)
            assert_byte_identical(cold, hit)

    def test_recorder_timeline_replays_exactly(self):
        from repro.machine.tracing import ActivityRecorder

        cold_m = get_machine("event:e16")
        cold_m.recorder = ActivityRecorder()
        _spmd_run(cold_m, pulses=32, ranges=33)

        m1 = get_machine("replay(event:e16)")
        m1.recorder = ActivityRecorder()
        _spmd_run(m1, pulses=32, ranges=33)
        assert m1.stats()["captures"] == 1

        m2 = get_machine("replay(event:e16)")
        m2.recorder = ActivityRecorder()
        _spmd_run(m2, pulses=32, ranges=33)
        assert m2.stats()["replays"] == 1

        assert len(cold_m.recorder.intervals) > 0
        assert m2.recorder.intervals == cold_m.recorder.intervals

    def test_recorder_presence_splits_the_cache_key(self):
        from repro.machine.tracing import ActivityRecorder

        m1 = get_machine("replay(event:e16)")
        _spmd_run(m1, pulses=32, ranges=33)
        m2 = get_machine("replay(event:e16)")
        m2.recorder = ActivityRecorder()
        _spmd_run(m2, pulses=32, ranges=33)
        # A recorder-less capture must not satisfy a recorder-full run.
        assert m2.stats()["captures"] == 1
        assert m2.stats()["replays"] == 0


    def test_cold_hit_cold_matches_event(self):
        # A hit restores the mesh links; the cold run after it must
        # reserve those restored links, not the ones the mesh's route
        # cache held before the restore.
        small, large = (32, 33), (64, 65)
        warm = get_machine("replay(event:e16)")
        with memo_disabled():
            _spmd_run(warm, *small)  # not captured
        _spmd_run(warm, *large)  # captured on the small run's post-state
        assert warm.stats()["captures"] == 1

        def sequence(machine, chip):
            out = []
            for size in (small, large, small):
                res = _spmd_run(machine, *size)
                out.append((res.cycles, res.energy_joules, snapshot_chip(chip).links))
            return out

        plain = get_machine("event:e16")
        want = sequence(plain, plain)
        m = get_machine("replay(event:e16)")
        got = sequence(m, m.inner)
        assert m.stats()["captures"] == 2
        assert m.stats()["replays"] == 1
        assert got == want


class TestFallbacks:
    def test_faulty_inner_is_pure_passthrough(self):
        m = get_machine("replay(faulty(link:(0,0)->(0,1)@p=1:stall=5; seed=1):event:e16)")
        assert isinstance(m, ReplayMachine)
        assert not m._cacheable
        res = _spmd_run(m, pulses=32, ranges=33)
        assert m.stats()["bypassed"] == 1
        assert m.stats()["captures"] == 0

    def test_faulty_wrapping_replay_misses_the_cache(self):
        # faulty(plan):replay(event:e16): the fault layer wraps the
        # programs in fresh closures that declare no replay key, so
        # the replay machine must refuse to cache them.
        cold = _spmd_run(
            get_machine("faulty(link:(0,0)->(0,1)@p=1:stall=5; seed=1):event:e16"),
            pulses=32,
            ranges=33,
        )
        wrapped = get_machine("faulty(link:(0,0)->(0,1)@p=1:stall=5; seed=1):replay(event:e16)")
        res = _spmd_run(wrapped, pulses=32, ranges=33)
        replay = wrapped.inner
        assert isinstance(replay, ReplayMachine)
        assert replay.stats()["uncacheable"] == 1
        assert replay.stats()["captures"] == 0
        assert_byte_identical(cold, res)

    def test_undeclared_program_runs_cold(self):
        cold = get_machine("event:e16").run({0: _short_program})
        m = get_machine("replay(event:e16)")
        res = m.run({0: _short_program})
        assert m.stats() == {
            "captures": 0,
            "replays": 0,
            "bypassed": 0,
            "uncacheable": 1,
        }
        assert_byte_identical(cold, res)

    def test_memo_disabled_runs_cold(self):
        with memo_disabled():
            m = get_machine("replay(event:e16)")
            _spmd_run(m, pulses=32, ranges=33)
            assert m.stats()["bypassed"] == 1
            assert m.stats()["captures"] == 0

    def test_stalled_run_never_caches(self):
        cold = get_machine("event:e16").run(
            {0: _long_program}, max_cycles=1000
        )
        assert cold.stalled

        m1 = get_machine("replay(event:e16)")
        r1 = m1.run({0: _long_program}, max_cycles=1000)
        assert r1.stalled
        assert m1.stats()["captures"] == 0
        assert m1.stats()["uncacheable"] == 0

        # The stalled class is remembered as always-cold: a second
        # fresh machine runs cold again and still reports the stall.
        m2 = get_machine("replay(event:e16)")
        r2 = m2.run({0: _long_program}, max_cycles=1000)
        assert r2.stalled
        assert m2.stats()["replays"] == 0
        assert m2.stats()["bypassed"] == 1  # served the invalid sentinel
        assert r2.cycles == cold.cycles == 1000

    def test_post_stall_runs_bypass_and_match_the_event_backend(self):
        # A stalled run leaves a live-but-eventless process behind (the
        # cutoff pops its wakeup).  The next run on that machine starts
        # from an un-capturable state: replay must bypass capture and
        # behave exactly like the bare event backend -- which deadlocks,
        # since the abandoned process can never be woken.
        from repro.machine.event import SimulationError

        bare = get_machine("event:e16")
        assert bare.run({0: _long_program}, max_cycles=1000).stalled
        with pytest.raises(SimulationError, match="deadlock"):
            bare.run({1: _short_program})

        m = get_machine("replay(event:e16)")
        stalled = m.run({0: _long_program}, max_cycles=1000)
        assert stalled.stalled
        n_bypassed = m.stats()["bypassed"]
        with pytest.raises(SimulationError, match="deadlock"):
            m.run({1: _short_program})
        # The failing run was bypassed (never keyed), not captured.
        assert m.stats()["bypassed"] == n_bypassed + 1
        assert m.stats()["captures"] == 0


class TestProtocolSurface:
    def test_delegated_properties(self):
        m = get_machine("replay(event:e16)")
        inner = m.inner
        assert m.spec is inner.spec
        assert m.n_cores == inner.n_cores
        assert m.now == inner.now
        assert m.energy is inner.energy
        assert m.hops(0, 5) == inner.hops(0, 5)
        assert m.context(3) is inner.context(3)

    def test_recorder_assignment_reaches_the_chip(self):
        from repro.machine.tracing import ActivityRecorder

        m = get_machine("replay(event:e16)")
        rec = ActivityRecorder()
        m.recorder = rec
        assert m.inner.recorder is rec

    def test_analytic_inner_passes_through(self):
        m = get_machine("replay(analytic:e16)")
        assert not m._cacheable
        res = _spmd_run(m, pulses=32, ranges=33)
        cold = _spmd_run(get_machine("analytic:e16"), pulses=32, ranges=33)
        assert res.cycles == cold.cycles

    def test_stats_shape(self):
        m = get_machine("replay(event:e16)")
        assert m.stats() == {
            "captures": 0,
            "replays": 0,
            "bypassed": 0,
            "uncacheable": 0,
        }
