"""Serve-level chaos gate: the scripted scenario and its gate cell.

The heavy lifting -- booting a real :class:`ImageService`, SIGKILLing
pool workers, tripping the breaker, bursting admission control,
draining shutdown -- happens inside :func:`run_chaos_serve_case`; the
tests here assert the *gate's* contract: every check passes on a
healthy tree, check names are stable addresses, and the cell wiring
reaches the same checks the CLI flag does.
"""

import pytest

from repro.serve.load import STRUCTURED_ERROR_CODES
from repro.verify.chaos import (
    CHAOS_SERVE_STALL_PLAN,
    chaos_serve_cell,
    run_chaos_serve_case,
)
from repro.verify.gate import DEFAULT_SEED

EXPECTED_CHECKS = (
    "contained",
    "exactly-once",
    "cache-byte-identical",
    "deadline",
    "degraded-flagged",
    "pool-heals",
    "health-observability",
    "shutdown-drains",
    "decision-identical",
    "bounded",
)


class TestChaosServeCase:
    def test_case_zero_passes_every_check(self):
        checks = run_chaos_serve_case(0, DEFAULT_SEED)
        failed = [c for c in checks if not c.passed]
        assert not failed, "\n".join(f"{c.name}: {c.note}" for c in failed)

    def test_check_names_cover_the_contract(self):
        checks = run_chaos_serve_case(1, DEFAULT_SEED)
        names = [c.name for c in checks]
        assert names == [f"chaos-serve/1.{k}" for k in EXPECTED_CHECKS]

    def test_cell_concatenates_cases(self):
        checks = chaos_serve_cell(range(2, 3), DEFAULT_SEED)
        assert len(checks) == len(EXPECTED_CHECKS)
        assert all(c.name.startswith("chaos-serve/2.") for c in checks)

    def test_gate_cell_wrapper_matches_direct_call(self):
        direct = run_chaos_serve_case(3, DEFAULT_SEED)
        # The gate schedules the public cell with a range of cases.
        via_gate = chaos_serve_cell(range(3, 4), DEFAULT_SEED)
        stable = lambda cs: [  # noqa: E731 - wall time varies
            (c.name, c.passed)
            for c in cs
            if not c.name.endswith(".bounded")
        ]
        assert stable(via_gate) == stable(direct)

    def test_structured_codes_include_the_resilience_answers(self):
        # The serve contract is strictly wider than batch containment:
        # backpressure, deadlines and pool loss are structured too.
        assert {"overloaded", "deadline", "broken-pool"} <= set(
            STRUCTURED_ERROR_CODES
        )
        assert {"fault", "stall", "deadlock"} <= set(STRUCTURED_ERROR_CODES)

    def test_stall_plan_is_the_pinned_degradation_pivot(self):
        from repro.faults.plan import parse_plan

        plan = parse_plan(CHAOS_SERVE_STALL_PLAN)
        (fault,) = plan.faults
        assert fault.action == "stall"
        assert fault.p == 1.0  # deterministic, not probabilistic
