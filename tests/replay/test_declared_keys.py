"""Declared replay keys: identity, completeness and must-miss.

Every kernel builder that can reach the replay cache declares a
``__replay_fp__`` key.  These tests hold each declaration to its
contract:

- **identity** -- for every builder, a cold event run, a fresh capture
  and a fresh cache hit are byte-identical, and the hit really replays;
- **completeness** -- perturbing one builder input at a time, any
  change in the cold run's cycles, energy or trace must change the key
  too (a key that leaves an input out would serve a wrong schedule);
- **must-miss** -- re-running a pipeline whose channels already carry
  state never declares a key.
"""

import pytest

from repro.kernels.ffbp_common import plan_ffbp
from repro.kernels.opcounts import AutofocusWorkload
from repro.machine.backends import get_machine
from repro.machine.core import OpBlock
from repro.perf import clear_memo
from repro.replay.machine import declared_key
from repro.sar.config import RadarConfig
from repro.verify.replay import (
    REPLAY_TRACE_FIELDS,
    REPLAY_WORKLOADS,
    replay_identity_oracle,
)


@pytest.fixture(autouse=True)
def _fresh_memo():
    clear_memo()
    yield
    clear_memo()


def _plan(pulses, ranges):
    return plan_ffbp(RadarConfig.small(n_pulses=pulses, n_ranges=ranges))


def _declared(tag, value):
    def program(ctx):
        yield from ()

    program.__replay_fp__ = (tag, value)
    return program


class TestDeclaredKey:
    def test_program_map_keys_by_core(self):
        progs_a = {0: _declared("k", 1), 1: _declared("k", 2)}
        progs_b = {1: _declared("k", 2), 0: _declared("k", 1)}
        assert declared_key(progs_a) == declared_key(progs_b)

    def test_core_assignment_is_part_of_the_key(self):
        p = _declared("k", 1)
        assert declared_key({0: p}) != declared_key({1: p})

    def test_one_undeclared_program_poisons_the_map(self):
        def undeclared(ctx):
            yield from ()

        assert declared_key({0: _declared("k", 1), 1: undeclared}) is None

    def test_shared_program_keys_every_core_alike(self):
        p = _declared("k", [1, 2, 3])
        key = declared_key({c: p for c in range(16)})
        assert [core for core, _ in key] == list(range(16))
        assert len({digest for _, digest in key}) == 1

    def test_key_is_deterministic_across_rebuilds(self):
        def build():
            p = _declared("k", [1, 2, 3])
            return declared_key({0: p, 1: p})

        assert build() == build()

    def test_ffbp_spmd_kernel_declares_its_key(self):
        from repro.kernels.ffbp_spmd import ffbp_spmd_kernel

        plan = _plan(64, 65)

        def key(kernel):
            return declared_key({0: kernel})

        k = ffbp_spmd_kernel(plan, 16)
        assert k.__replay_fp__[0] == "ffbp-spmd"
        # Rebuilds agree; plan, core count and interpolation split it.
        assert key(k) == key(ffbp_spmd_kernel(_plan(64, 65), 16))
        assert key(k) != key(ffbp_spmd_kernel(plan, 8))
        assert key(k) != key(ffbp_spmd_kernel(plan, 16, "bilinear"))
        assert key(k) != key(ffbp_spmd_kernel(_plan(128, 65), 16))


@pytest.mark.parametrize("workload", REPLAY_WORKLOADS)
def test_capture_and_hit_are_byte_identical(workload):
    bad = [c.format() for c in replay_identity_oracle(workload) if not c.passed]
    assert not bad


def test_focused_image_hit_matches_cold():
    from repro.kernels.application import run_focused_image

    plan = _plan(64, 65)

    def run(spec):
        machine = get_machine(spec)
        return run_focused_image(machine, plan, min_beams=4), machine

    cold, _ = run("event:e16")
    captured, capture_machine = run("replay(event:e16)")
    hit, hit_machine = run("replay(event:e16)")
    assert capture_machine.stats()["uncacheable"] == 0
    stats = hit_machine.stats()
    assert stats["replays"] >= 1
    assert stats["captures"] == stats["uncacheable"] == 0
    for app in (captured, hit):
        assert app.phases == cold.phases
        assert app.total_cycles == cold.total_cycles
        assert app.energy_joules == cold.energy_joules
        assert app.average_power_w == cold.average_power_w


# ---------------------------------------------------------------------------
# Key completeness
# ---------------------------------------------------------------------------

class _KeySpy:
    """An event chip that records the declared key of each run."""

    def __init__(self):
        self.inner = get_machine("event:e16")
        self.keys = []

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def run(self, programs, max_cycles=None):
        self.keys.append(declared_key(programs))
        return self.inner.run(programs, max_cycles=max_cycles)


def _observe(launch):
    """(declared keys, cold-run outcome) of one launch on a fresh chip."""
    spy = _KeySpy()
    result = launch(spy)
    trace = result.trace
    outcome = (
        result.cycles,
        result.energy_joules,
        tuple(getattr(trace, f) for f in REPLAY_TRACE_FIELDS),
    )
    assert spy.keys and None not in spy.keys, "every program must declare"
    return tuple(spy.keys), outcome


def _ffbp_spmd(plan=None, n_cores=16, interpolation="nearest"):
    from repro.kernels.ffbp_spmd import run_ffbp_spmd

    plan = plan or _plan(32, 33)
    return lambda m: run_ffbp_spmd(m, plan, n_cores, interpolation)


def _ffbp_seq(plan=None):
    from repro.kernels.ffbp_seq import run_ffbp_seq_epiphany

    plan = plan or _plan(32, 33)
    return lambda m: run_ffbp_seq_epiphany(m, plan)


def _merge_stage(level=1, n_cores=16, plan=None):
    from repro.kernels.application import _merge_stage_kernel

    stage = (plan or _plan(32, 33)).stages[level - 1]
    kernel = _merge_stage_kernel(stage, n_cores)
    return lambda m: m.run({c: kernel for c in range(n_cores)})


def _autofocus_seq(**fields):
    from repro.kernels.autofocus_seq import run_autofocus_seq_epiphany

    work = AutofocusWorkload(**{"n_candidates": 8, **fields})
    return lambda m: run_autofocus_seq_epiphany(m, work)


def _gbp_spmd(cfg=None, n_cores=16, n_pixels=None):
    from repro.kernels.gbp_ref import run_gbp_spmd

    cfg = cfg or RadarConfig.small(n_pulses=32, n_ranges=33)
    return lambda m: run_gbp_spmd(m, cfg, n_cores, n_pixels)


def _autofocus_mpmd(naive=False, channel_capacity=2, watchdog=None, **fields):
    from repro.kernels.autofocus_mpmd import build_pipeline, naive_placement

    work = AutofocusWorkload(**{"n_candidates": 4, **fields})

    def launch(m):
        place = naive_placement(work) if naive else None
        return build_pipeline(
            m, work, place, channel_capacity=channel_capacity, watchdog=watchdog
        ).run()

    return launch


def _dataflow(flops=(64.0, 128.0, 96.0), payload=64, firings=4, capacity=2):
    from repro.runtime.dataflow import linear_chain

    graph = linear_chain([OpBlock(flops=f) for f in flops], payload=payload)
    return lambda m: graph.build(m, firings, channel_capacity=capacity).run()


VARIANTS = {
    "ffbp_spmd": [
        _ffbp_spmd(),
        _ffbp_spmd(plan=_plan(32, 65)),
        _ffbp_spmd(plan=_plan(64, 33)),
        _ffbp_spmd(n_cores=8),
        _ffbp_spmd(interpolation="bilinear"),
    ],
    "ffbp_seq": [
        _ffbp_seq(),
        _ffbp_seq(plan=_plan(32, 65)),
        _ffbp_seq(plan=_plan(64, 33)),
    ],
    "merge_stage": [
        _merge_stage(),
        _merge_stage(level=2),
        _merge_stage(n_cores=8),
        _merge_stage(plan=_plan(32, 65)),
    ],
    "autofocus_seq": [
        _autofocus_seq(),
        _autofocus_seq(n_candidates=9),
        _autofocus_seq(iterations=2),
        _autofocus_seq(block_beams=8),
        _autofocus_seq(block_ranges=8),
    ],
    "gbp_spmd": [
        _gbp_spmd(),
        _gbp_spmd(cfg=RadarConfig.small(n_pulses=32, n_ranges=65)),
        _gbp_spmd(cfg=RadarConfig.small(n_pulses=64, n_ranges=33)),
        _gbp_spmd(n_cores=8),
        _gbp_spmd(n_pixels=500),
    ],
    "autofocus_mpmd": [
        _autofocus_mpmd(),
        _autofocus_mpmd(n_candidates=5),
        _autofocus_mpmd(iterations=2),
        _autofocus_mpmd(block_beams=9),
        _autofocus_mpmd(naive=True),
        _autofocus_mpmd(channel_capacity=1),
        _autofocus_mpmd(watchdog=10**9),
    ],
    "dataflow": [
        _dataflow(),
        _dataflow(flops=(64.0, 128.0, 97.0)),
        _dataflow(flops=(64.0, 128.0, 96.0, 32.0)),
        _dataflow(payload=128),
        _dataflow(firings=5),
        _dataflow(capacity=1),
    ],
}


@pytest.mark.parametrize("builder", sorted(VARIANTS))
def test_key_changes_whenever_the_cold_run_does(builder):
    observed = [_observe(launch) for launch in VARIANTS[builder]]
    # Rebuilding the base variant reproduces its key (a hit is possible).
    assert _observe(VARIANTS[builder][0]) == observed[0]
    outcomes_by_key = {}
    for keys, outcome in observed:
        outcomes_by_key.setdefault(keys, set()).add(outcome)
    stale = {k: v for k, v in outcomes_by_key.items() if len(v) > 1}
    assert not stale, f"{builder}: one key, several cold outcomes"
    # The perturbations are real: they move the simulation.
    assert len({outcome for _keys, outcome in observed}) > 1


# ---------------------------------------------------------------------------
# Must-miss
# ---------------------------------------------------------------------------

def test_rerun_pipeline_runs_cold():
    from repro.runtime.dataflow import linear_chain

    graph = linear_chain([OpBlock(flops=64.0)] * 3, payload=64)
    machine = get_machine("replay(event:e16)")
    pipe = graph.build(machine, 4)
    pipe.run()
    assert machine.stats()["captures"] == 1
    pipe.run()  # channels now carry message counts: undeclared
    assert machine.stats()["uncacheable"] == 1


def test_undeclared_task_program_leaves_the_pipeline_uncacheable():
    from repro.runtime.mapping import TaskGraph, linear_place
    from repro.runtime.mpmd import Pipeline, Task

    def producer(ctx, ins, outs):
        yield from outs["b"].send(ctx, 64)

    def consumer(ctx, ins, outs):
        yield from ins["a"].recv(ctx)

    producer.__replay_fp__ = ("producer",)
    graph = TaskGraph(tasks=("a", "b"), edges={("a", "b"): 64.0})
    machine = get_machine("replay(event:e16)")
    pipe = Pipeline(
        machine,
        [Task("a", producer), Task("b", consumer)],
        linear_place(graph, 4, 4),
    )
    pipe.run()
    assert machine.stats()["uncacheable"] == 1
    assert machine.stats()["captures"] == 0
