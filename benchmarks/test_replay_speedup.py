"""Benchmark: a compiled-schedule cache hit beats the cold event engine.

The replay tier (``replay(event:e16)``, docs/architecture.md §16)
captures the event engine's resolved schedule on the first run of a
workload and restores it on every later run.  For the two Table-I
event rows -- the 16-core FFBP SPMD program at quick scale (256x257)
and the autofocus MPMD pipeline -- this times one cold ``event:e16``
run, warms the cache with one capture run, then keeps the best of
``HIT_REPEATS`` hits on fresh machines.  A hit must reproduce the cold
run's cycle count exactly, restore every run from the cache, and be at
least ``SPEEDUP_FLOOR`` times faster.  The floor is loose for shared CI
runners; on a developer host the ratio is in the tens.

Run with ``pytest benchmarks/test_replay_speedup.py -s`` to see the
measured ratios.
"""

from __future__ import annotations

import time

import pytest

from repro.kernels.autofocus_mpmd import run_autofocus_mpmd
from repro.kernels.ffbp_common import plan_ffbp
from repro.kernels.ffbp_spmd import run_ffbp_spmd
from repro.kernels.opcounts import AutofocusWorkload
from repro.machine.backends import get_machine
from repro.sar.config import RadarConfig

SPEEDUP_FLOOR = 2.0
HIT_REPEATS = 3
COLD = "event:e16"
REPLAY = "replay(event:e16)"


def _ffbp_spmd16():
    plan = plan_ffbp(RadarConfig.small(n_pulses=256, n_ranges=257))
    return lambda machine: run_ffbp_spmd(machine, plan, 16)


def _autofocus_mpmd():
    work = AutofocusWorkload()
    return lambda machine: run_autofocus_mpmd(machine, work)


def _timed(run, backend):
    """Wall seconds (machine construction included), result and machine
    of one run on a fresh machine."""
    t0 = time.perf_counter()
    machine = get_machine(backend)
    result = run(machine)
    return time.perf_counter() - t0, result, machine


@pytest.mark.parametrize(
    "workload", [_ffbp_spmd16, _autofocus_mpmd],
    ids=["ffbp_spmd16", "autofocus_mpmd"],
)
def test_replay_hit_is_2x_faster_than_cold(workload):
    run = workload()  # planning stays out of every timed run
    cold, cold_result, _ = _timed(run, COLD)
    _timed(run, REPLAY)  # the capture run fills the schedule cache
    hits = [_timed(run, REPLAY) for _ in range(HIT_REPEATS)]
    hit, hit_result, machine = min(hits, key=lambda h: h[0])

    ratio = cold / hit
    print(
        f"\n{workload.__name__[1:]}: cold {cold * 1e3:.1f} ms, "
        f"replay hit {hit * 1e3:.2f} ms -> {ratio:.1f}x"
    )
    assert hit_result.cycles == cold_result.cycles
    stats = machine.stats()
    assert stats["captures"] == 0 and stats["replays"] >= 1, stats
    assert ratio >= SPEEDUP_FLOOR, (
        f"replay speedup {ratio:.2f}x below the {SPEEDUP_FLOOR}x floor"
    )
