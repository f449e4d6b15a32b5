"""Snapshot/restore round-trip tests for the compiled-schedule layer."""

import copy
import pickle

import numpy as np

from repro.machine.backends import get_machine
from repro.replay.schedule import (
    INVALID_SCHEDULE,
    ChipState,
    CompiledSchedule,
    compile_schedule,
    restore_chip,
    snapshot_chip,
)


def _run_some_work(chip):
    from repro.kernels.ffbp_common import plan_ffbp
    from repro.kernels.ffbp_spmd import run_ffbp_spmd
    from repro.sar.config import RadarConfig

    plan = plan_ffbp(RadarConfig.small(n_pulses=32, n_ranges=33))
    return run_ffbp_spmd(chip, plan, 16)


class TestSnapshotRestore:
    def test_round_trip_is_exact(self):
        chip = get_machine("event:e16")
        _run_some_work(chip)
        state = snapshot_chip(chip)

        other = get_machine("event:e16")
        restore_chip(other, state)
        assert snapshot_chip(other) == state

    def test_restore_preserves_object_identity(self):
        # The byte-identity contract depends on aliasing: RunResults
        # hold references to the live trace objects, so restore must
        # mutate them in place, never swap in fresh ones.
        chip = get_machine("event:e16")
        _run_some_work(chip)
        state = snapshot_chip(chip)

        other = get_machine("event:e16")
        traces_before = [other.context(c).trace for c in range(16)]
        meter_before = other.energy
        mesh_before = other.mesh
        restore_chip(other, state)
        assert [other.context(c).trace for c in range(16)] == traces_before
        for a, b in zip(
            (other.energy, other.mesh), (meter_before, mesh_before)
        ):
            assert a is b

    def test_snapshot_captures_a_fresh_chip(self):
        chip = get_machine("event:e16")
        state = snapshot_chip(chip)
        assert state.now == 0
        assert state.seq == 0
        assert state.live == 0
        assert state.links == ()

    def test_state_is_picklable_and_stable(self):
        chip = get_machine("event:e16")
        _run_some_work(chip)
        state = snapshot_chip(chip)
        clone = pickle.loads(pickle.dumps(state))
        assert clone == state
        assert isinstance(clone, ChipState)


class TestCompiledSchedule:
    def test_compile_then_apply_reproduces_the_run(self):
        from repro.replay.schedule import apply_schedule

        chip = get_machine("event:e16")
        result = _run_some_work(chip)
        sched = compile_schedule(
            chip, result, tuple(range(16)), intervals_before=0
        )
        assert sched.valid
        assert sched.cycles == result.cycles

        fresh = get_machine("event:e16")
        replayed = apply_schedule(fresh, sched)
        assert replayed.cycles == result.cycles
        assert replayed.energy_joules == result.energy_joules
        assert replayed.trace.compute_cycles == result.trace.compute_cycles
        assert snapshot_chip(fresh) == snapshot_chip(chip)

    def test_results_are_isolated_from_the_caller(self):
        # compile deep-copies results so a caller mutating its arrays
        # cannot corrupt the cached schedule (and vice versa).
        chip = get_machine("event:e16")
        result = _run_some_work(chip)
        sched = compile_schedule(
            chip, result, tuple(range(16)), intervals_before=0
        )
        for cached, live in zip(sched.results, result.results):
            if isinstance(live, np.ndarray):
                assert cached is not live

    def test_invalid_sentinel(self):
        assert not INVALID_SCHEDULE.valid
        assert INVALID_SCHEDULE.post is None
        assert INVALID_SCHEDULE.n_intervals() == 0
        assert isinstance(INVALID_SCHEDULE, CompiledSchedule)
