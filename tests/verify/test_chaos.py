"""Chaos gate: containment, determinism, and jobs-level independence.

Worker functions live at module level so they pickle for the process
pool (fork workers resolve them by name from the inherited modules).
"""

import pytest

from repro.exec import ExperimentRunner, TaskSpec
from repro.faults.plan import FaultSchedule, parse_plan
from repro.machine.backends import available_backends
from repro.verify.chaos import (
    CHAOS_BACKENDS,
    chaos_cell,
    random_plan,
    run_chaos_case,
)
from repro.verify.gate import DEFAULT_SEED

SMOKE_CASES = 6


def _schedule_fingerprints(seed, lo, hi):
    """Expand the chaos plans for cases [lo, hi) into schedule digests."""
    return [
        FaultSchedule(parse_plan(random_plan(seed, case))).fingerprint()
        for case in range(lo, hi)
    ]


def _stable_view(checks):
    """Check fields that must match across processes and jobs levels
    (the `.bounded` note carries wall time, which legitimately varies)."""
    return [
        (c.name, c.passed, c.note)
        for c in checks
        if not c.name.endswith(".bounded")
    ]


class TestPlanGeneration:
    def test_plans_are_pure_in_seed_and_case(self):
        for case in range(16):
            assert random_plan(DEFAULT_SEED, case) == random_plan(
                DEFAULT_SEED, case
            )

    def test_plans_parse_and_vary(self):
        plans = {random_plan(DEFAULT_SEED, case) for case in range(24)}
        assert len(plans) > 12  # the generator explores, not repeats
        for text in plans:
            parse_plan(text)  # every generated plan is grammatical

    def test_seed_changes_the_case_set(self):
        a = [random_plan(1, case) for case in range(8)]
        b = [random_plan(2, case) for case in range(8)]
        assert a != b


class TestContainment:
    def test_chaos_covers_every_registered_backend(self):
        assert set(CHAOS_BACKENDS) == set(available_backends())

    @pytest.mark.parametrize("backend", CHAOS_BACKENDS)
    def test_smoke_batch_is_contained_and_deterministic(self, backend):
        for case in range(SMOKE_CASES):
            checks = run_chaos_case(backend, case, DEFAULT_SEED)
            bad = [c for c in checks if not c.passed]
            assert not bad, [f"{c.name}: {c.note}" for c in bad]

    @pytest.mark.parametrize("backend", CHAOS_BACKENDS)
    def test_rerun_reproduces_checks(self, backend):
        first = chaos_cell(backend, range(4), DEFAULT_SEED)
        second = chaos_cell(backend, range(4), DEFAULT_SEED)
        assert _stable_view(first) == _stable_view(second)


class TestJobsIndependence:
    """Satellite: plan + seed is a cross-process reproducer -- the
    schedules and gate outcomes are byte-identical at jobs=1 and 4."""

    def test_schedule_fingerprints_identical_across_jobs(self):
        tasks = [
            TaskSpec(
                key=f"fp/{lo}",
                fn=_schedule_fingerprints,
                args=(DEFAULT_SEED, lo, lo + 4),
            )
            for lo in range(0, 16, 4)
        ]
        serial = ExperimentRunner(jobs=1, cache=None).run(tasks)
        parallel = ExperimentRunner(jobs=4, cache=None).run(tasks)
        assert [r.value for r in serial] == [r.value for r in parallel]

    @pytest.mark.parametrize("backend", CHAOS_BACKENDS)
    def test_gate_cells_identical_across_jobs(self, backend):
        tasks = [
            TaskSpec(
                key=f"chaos/{backend}/{lo}",
                fn=chaos_cell,
                args=(backend, range(lo, lo + 3), DEFAULT_SEED),
            )
            for lo in range(0, 12, 3)
        ]
        serial = ExperimentRunner(jobs=1, cache=None).run(tasks)
        parallel = ExperimentRunner(jobs=4, cache=None).run(tasks)
        assert [_stable_view(r.value) for r in serial] == [
            _stable_view(r.value) for r in parallel
        ]
        # And every check in the batch passed on both paths.
        for r in serial + parallel:
            assert all(c.passed for c in r.value)


class TestFabricChaos:
    def test_single_chip_plans_never_draw_chiplink(self):
        for case in range(0, 24):
            plan = random_plan(DEFAULT_SEED, case, chips=1)
            assert "chiplink:" not in plan

    def test_chips_param_leaves_single_chip_draws_unchanged(self):
        # chips=1 must reproduce the historical plan stream exactly.
        for case in range(0, 12):
            assert random_plan(DEFAULT_SEED, case) == random_plan(
                DEFAULT_SEED, case, chips=1
            )

    def test_multi_chip_plans_eventually_draw_chiplink(self):
        plans = [
            random_plan(DEFAULT_SEED, case, chips=2)
            for case in range(2, 120, 3)
        ]
        assert any("chiplink:" in p for p in plans)
        for p in plans:
            parse_plan(p)  # every drawn plan must be grammatical

    def test_chiplink_clauses_stay_on_fabric_routes(self):
        from repro.verify.chaos import CHAOS_FABRIC_CHIPS, _case_chips

        for case in range(2, 120, 3):
            assert _case_chips(case) == CHAOS_FABRIC_CHIPS
            plan = parse_plan(
                random_plan(DEFAULT_SEED, case, chips=CHAOS_FABRIC_CHIPS)
            )
            for f in plan.chiplink_faults:
                assert 0 <= f.src_chip < CHAOS_FABRIC_CHIPS
                assert 0 <= f.dst_chip < CHAOS_FABRIC_CHIPS
                assert f.src_chip != f.dst_chip

    @pytest.mark.parametrize("backend", CHAOS_BACKENDS)
    def test_fabric_case_passes_the_contract(self, backend):
        # case 14 draws a chiplink clause under the default seed.
        checks = run_chaos_case(backend, 14, DEFAULT_SEED)
        assert any("chiplink:" in c.note for c in checks if c.note)
        assert all(c.passed for c in checks)
