"""Tests for the FFBP machine kernels and their plans."""

import numpy as np
import pytest

from repro.geometry.apertures import SubapertureTree
from repro.kernels.cpu_ref import run_ffbp_cpu
from repro.kernels.ffbp_common import FfbpPlan, plan_ffbp, plan_stage
from repro.kernels.ffbp_seq import run_ffbp_seq_epiphany
from repro.kernels.ffbp_spmd import _core_row_spans, run_ffbp_spmd
from repro.machine.chip import EpiphanyChip
from repro.machine.cpu import CpuMachine
from repro.perf import memo_disabled
from repro.sar.config import RadarConfig


@pytest.fixture(scope="module")
def plan(small_cfg) -> FfbpPlan:
    return plan_ffbp(small_cfg)


class TestPlan:
    def test_stage_count(self, small_cfg, plan):
        assert plan.n_stages == 6  # 64 pulses, base 2
        assert plan.total_samples == 6 * 64 * small_cfg.n_ranges

    def test_rows_constant_across_stages(self, small_cfg, plan):
        for stage in plan.stages:
            assert stage.rows == small_cfg.n_pulses

    def test_ext_reads_never_exceed_total(self, plan):
        for stage in plan.stages:
            assert np.all(stage.reads_row_ext <= stage.reads_row_total)
            assert np.all(stage.reads_row_total <= 2 * stage.n_ranges)

    def test_early_stages_fully_local(self, plan):
        """Stage 1's children are single rows: the two-pulse window
        holds everything (the paper: 'during the first merge iteration
        the prefetched data is sufficient')."""
        assert plan.stages[0].reads_row_ext.sum() == 0

    @pytest.fixture(scope="class")
    def deep_plan(self) -> FfbpPlan:
        """A deeper swath makes the index curves outrun the window --
        the configuration where spill appears (as at paper scale)."""
        return plan_ffbp(RadarConfig.small(n_pulses=128, n_ranges=513))

    def test_late_stages_spill(self, deep_plan):
        """Later iterations need external reads (the paper's 'in the
        later iterations it still requires contributing data to be
        read from the external memory')."""
        assert deep_plan.stages[-1].reads_row_ext.sum() > 0

    def test_spill_fraction_grows_monotonically_at_tail(self, deep_plan):
        fractions = [
            s.reads_row_ext.sum() / max(1, s.reads_row_total.sum())
            for s in deep_plan.stages
        ]
        assert fractions[-1] > fractions[len(fractions) // 2]

    def test_prefetch_rows_for_span_bounds(self, plan):
        s = plan.stages[-1]
        rows = s.prefetch_rows_for_span(0, s.beams)
        assert rows >= 2  # at least one row per child
        assert rows <= 2 * s.child_beams
        with pytest.raises(ValueError):
            s.prefetch_rows_for_span(3, 2)

    def test_window_respects_budget(self, small_cfg):
        """Half a row per child -> no prefetch; a row each -> one."""
        none = plan_ffbp(small_cfg, window_bytes=small_cfg.n_ranges * 8)
        for s in none.stages:
            assert s.window_rows == 0
            assert np.array_equal(s.reads_row_ext, s.reads_row_total)
            assert s.prefetch_rows_for_span(0, s.beams) == 0
        one = plan_ffbp(small_cfg, window_bytes=2 * small_cfg.n_ranges * 8)
        for s in one.stages:
            assert s.window_rows == 1

    @pytest.mark.parametrize(
        "window", [-1, -100000, 1.5, float("nan"), float("inf"), "16016", None]
    )
    def test_unplannable_window_is_refused(self, small_cfg, window):
        """A negative window once planned ``window_rows < 0`` and a
        negative prefetch count; a fractional one was keyed as its int
        but built with the float."""
        with pytest.raises(ValueError, match="integer >= 0"):
            plan_ffbp(small_cfg, window)
        tree = SubapertureTree(small_cfg.n_pulses, small_cfg.spacing, 2)
        with pytest.raises(ValueError, match="integer >= 0"):
            plan_stage(small_cfg, tree, 1, window)

    @pytest.mark.parametrize("window", [np.int64(16016), 16016.0])
    def test_integral_window_is_built_as_its_int(self, small_cfg, window):
        with memo_disabled():
            plan = plan_ffbp(small_cfg, window)
        assert type(plan.window_bytes) is int
        assert plan.window_bytes == 16016
        assert all(type(s.window_rows) is int for s in plan.stages)

    def test_sweep_class_plan_arrays_are_compact(self):
        """A 1024-pulse plan's per-row arrays once took 81,840 bytes
        (all int64 or float64); the int32 rows hold them to 60%."""
        cfg = RadarConfig.paper().with_(n_pulses=1024, n_ranges=400)
        with memo_disabled():
            plan = plan_ffbp(cfg)
        nbytes = sum(
            s.valid_frac.nbytes + s.reads_row_total.nbytes
            + s.reads_row_ext.nbytes + s.med_row.nbytes
            for s in plan.stages
        )
        assert nbytes <= 0.6 * 81_840


class TestCoreRowSpans:
    def test_spans_cover_all_rows_once(self, plan):
        for stage in plan.stages:
            seen = []
            for core in range(16):
                for parent, k0, k1 in _core_row_spans(stage, core, 16):
                    for k in range(k0, k1):
                        seen.append((parent, k))
            assert len(seen) == stage.rows
            assert len(set(seen)) == stage.rows

    def test_single_core_gets_everything(self, plan):
        stage = plan.stages[0]
        spans = _core_row_spans(stage, 0, 1)
        total = sum(k1 - k0 for _p, k0, k1 in spans)
        assert total == stage.rows


class TestKernelRuns:
    def test_seq_epiphany_runs(self, plan):
        res = run_ffbp_seq_epiphany(EpiphanyChip(), plan)
        assert res.cycles > 0
        # All valid lookups went external, one word each.
        want_bytes = 8 * sum(
            s.n_parents * s.reads_row_total.sum() for s in plan.stages
        )
        assert res.trace.ext_read_bytes == pytest.approx(want_bytes)

    def test_spmd_runs_and_balances(self, plan):
        res = run_ffbp_spmd(EpiphanyChip(), plan, 16)
        assert len(res.traces) == 16
        cycles = [t.compute_cycles for t in res.traces]
        assert max(cycles) < 2.0 * min(cycles)

    def test_spmd_core_count_validated(self, plan):
        with pytest.raises(ValueError):
            run_ffbp_spmd(EpiphanyChip(), plan, 17)

    def test_cpu_runs(self, plan):
        res = run_ffbp_cpu(CpuMachine(), plan)
        assert res.cycles > 0
        assert res.trace.total_flops > 0

    def test_same_arithmetic_on_both_machines(self, plan):
        """The controlled-experiment invariant: identical op mixes."""
        r_cpu = run_ffbp_cpu(CpuMachine(), plan)
        r_epi = run_ffbp_seq_epiphany(EpiphanyChip(), plan)
        assert r_cpu.trace.total_flops == pytest.approx(
            r_epi.trace.total_flops
        )
        assert r_cpu.trace.ops.sqrts == pytest.approx(r_epi.trace.ops.sqrts)

    def test_parallel_does_same_compute_as_sequential(self, plan):
        r_seq = run_ffbp_seq_epiphany(EpiphanyChip(), plan)
        r_par = run_ffbp_spmd(EpiphanyChip(), plan, 16)
        assert r_par.trace.total_flops == pytest.approx(
            r_seq.trace.total_flops
        )

    def test_prefetch_reduces_scatter_reads(self, plan):
        """The parallel kernel's word-granular external reads are a
        strict subset of the sequential kernel's."""
        r_seq = run_ffbp_seq_epiphany(EpiphanyChip(), plan)
        chip = EpiphanyChip()
        r_par = run_ffbp_spmd(chip, plan, 16)
        assert chip.ext.n_reads < r_seq.trace.ext_read_bytes / 8


class TestPerformanceShape:
    """The orderings the paper reports must hold at any scale."""

    def test_parallel_beats_sequential_epiphany(self, plan):
        t_seq = run_ffbp_seq_epiphany(EpiphanyChip(), plan).cycles
        t_par = run_ffbp_spmd(EpiphanyChip(), plan, 16).cycles
        assert t_seq / t_par > 4.0

    def test_cpu_beats_sequential_epiphany(self, plan):
        t_cpu = run_ffbp_cpu(CpuMachine(), plan).seconds
        t_seq = run_ffbp_seq_epiphany(EpiphanyChip(), plan).seconds
        assert t_seq > 1.5 * t_cpu

    def test_core_sweep_monotone(self, plan):
        times = [
            run_ffbp_spmd(EpiphanyChip(), plan, n).cycles for n in (1, 4, 16)
        ]
        assert times[0] > times[1] > times[2]

    def test_spmd_one_core_slower_than_seq_kernel_is_bounded(self, plan):
        """The 1-core SPMD run (with prefetch) should beat the naive
        sequential kernel (without) -- prefetching is never a loss."""
        t_naive = run_ffbp_seq_epiphany(EpiphanyChip(), plan).cycles
        t_spmd1 = run_ffbp_spmd(EpiphanyChip(), plan, 1).cycles
        assert t_spmd1 < t_naive
