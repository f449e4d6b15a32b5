"""Tests for the sharded FFBP executive over a multi-chip fabric."""

import pytest

from repro.faults.report import FaultReport
from repro.kernels.ffbp_common import plan_ffbp
from repro.kernels.ffbp_fabric import fabric_chips, run_ffbp_fabric, split_plan
from repro.kernels.ffbp_spmd import run_ffbp_spmd
from repro.machine.backends import get_machine, resolve_backend
from repro.sar.config import RadarConfig


@pytest.fixture(scope="module")
def cfg():
    return RadarConfig.small(n_pulses=64, n_ranges=65)


@pytest.fixture(scope="module")
def plan(cfg):
    return plan_ffbp(cfg)


class TestSplitPlan:
    def test_local_stages_divide_parents(self, plan):
        local, top = split_plan(plan, 4)
        assert len(local.stages) + len(top.stages) == len(plan.stages)
        assert len(top.stages) == 2  # log2(4) cross-chip levels
        for mine, orig in zip(local.stages, plan.stages):
            assert mine.n_parents * 4 == orig.n_parents
            assert mine.beams == orig.beams
        assert top.stages == plan.stages[len(local.stages):]

    def test_one_chip_split_is_trivial(self, plan):
        local, top = split_plan(plan, 1)
        assert local.stages == plan.stages
        assert top.stages == ()

    def test_bad_shard_count_raises(self, plan):
        with pytest.raises(ValueError, match="power of merge base"):
            split_plan(plan, 3)


class TestFabricChips:
    def test_single_chip_machines_have_no_chips(self):
        assert fabric_chips(get_machine("analytic:e16")) is None

    def test_fabric_machines_expose_their_chips(self):
        chips = fabric_chips(get_machine("analytic:2x(e16)"))
        assert chips is not None and len(chips) == 2

    def test_faulty_fabric_still_exposes_chips(self):
        m = get_machine("faulty():analytic:2x(e16)")
        chips = fabric_chips(m)
        assert chips is not None and len(chips) == 2


class TestRunFfbpFabric:
    def test_single_chip_machine_delegates_to_spmd(self, plan):
        direct = run_ffbp_spmd(get_machine("analytic:e16"), plan, 16)
        via = run_ffbp_fabric(get_machine("analytic:e16"), plan, 16)
        assert via.cycles == direct.cycles
        assert via.energy_joules == direct.energy_joules

    @pytest.mark.parametrize("backend", ["analytic", "event"])
    def test_one_chip_fabric_matches_plain_chip_exactly(self, plan, backend):
        """The E64-parity contract at E16 scale: 1x(...) adds nothing."""
        plain = run_ffbp_spmd(get_machine(f"{backend}:e16"), plan, 16)
        fabric = run_ffbp_fabric(get_machine(f"{backend}:1x(e16)"), plan, 16)
        assert fabric.cycles == plain.cycles
        assert fabric.energy_joules == plain.energy_joules
        assert fabric.results == plain.results

    def test_two_chips_cost_the_elink_but_less_than_double(self, plan):
        one = run_ffbp_fabric(get_machine("analytic:1x(e16)"), plan, 16)
        two = run_ffbp_fabric(get_machine("analytic:2x(e16)"), plan, 16)
        assert two.cycles < one.cycles  # local phase halves
        assert two.energy_joules > 0
        assert not two.stalled
        assert len(two.traces) == 2 * len(one.traces)

    def test_per_chip_core_count_validated(self, plan):
        with pytest.raises(ValueError, match="per chip"):
            run_ffbp_fabric(get_machine("analytic:2x(e16)"), plan, 17)

    def test_chiplink_stall_delays_the_merge(self, plan):
        clean = run_ffbp_fabric(get_machine("analytic:2x(e16)"), plan)
        stalled = run_ffbp_fabric(
            get_machine(
                "faulty(chiplink:(1)->(0)@p=1:stall=5000):analytic:2x(e16)"
            ),
            plan,
        )
        assert stalled.cycles == clean.cycles + 5000
        assert stalled.results == clean.results

    def test_chiplink_drop_surfaces_as_structured_fault(self, plan):
        machine = get_machine(
            "faulty(chiplink:(1)->(0)@p=1:drop):analytic:2x(e16)"
        )
        with pytest.raises(FaultReport) as err:
            run_ffbp_fabric(machine, plan)
        assert err.value.kind == "chiplink-drop"

    def test_chiplink_fault_on_unused_route_is_harmless(self, plan):
        clean = run_ffbp_fabric(get_machine("analytic:2x(e16)"), plan)
        other = run_ffbp_fabric(
            get_machine(
                "faulty(chiplink:(0)->(1)@p=1:drop):analytic:2x(e16)"
            ),
            plan,
        )
        assert other.cycles == clean.cycles


class TestQuickScaleFabricCycles:
    """The quick-scale ``analytic:4x(8x8)`` row, pinned cycle for cycle.

    Both engines are deterministic, so the cycle counts and the
    one-chip/fabric ratio (``speedup_vs_1chip`` in ``BENCH_6.json``)
    are exact; any model change that moves them must update them here.
    """

    def test_four_chips_beat_one_chip_of_the_fabric(self):
        plan = plan_ffbp(RadarConfig.small(n_pulses=256, n_ranges=257))
        make, spec = resolve_backend("analytic:4x(8x8)")
        one = run_ffbp_spmd(make(spec.chip), plan, spec.cores_per_chip)
        fabric = run_ffbp_fabric(make(spec), plan)
        assert one.cycles == 2_155_701
        assert fabric.cycles == 2_016_599
        assert round(one.cycles / fabric.cycles, 3) == 1.069
