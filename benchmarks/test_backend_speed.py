"""Benchmark: analytic-backend fidelity and speed at paper scale.

The analytic backend exists so design-space sweeps don't pay the event
engine's price.  Two claims back that:

1. **fidelity** -- on the Table I workloads (16-core FFBP, 13-core
   autofocus) the analytic cycle and energy totals agree with the
   calibrated event engine within 5%;
2. **speed** -- a warm paper-scale core-count sweep on the analytic
   backend stays within ``CEILING_FACTOR`` of its committed wall-time
   baseline, ``ANALYTIC_SWEEP_BASELINE_S``.  The bound is on the
   analytic sweep itself: a ratio against the event sweep shrank every
   time the event engine got faster, though the analytic backend had
   not slowed down.

The baseline is the median of three runs at exactly these settings on
a 2-core Intel Xeon host under Python 3.11.  The 2x factor is a cross-host ceiling, as in
``benchmarks/test_perfbench_gate.py``.  Run with
``pytest benchmarks/test_backend_speed.py -s`` to see the measured
ratios and times.
"""

from __future__ import annotations

import time

import pytest

from repro.kernels.autofocus_mpmd import run_autofocus_mpmd
from repro.kernels.ffbp_spmd import run_ffbp_spmd
from repro.kernels.opcounts import AutofocusWorkload
from repro.machine.backends import get_machine

PARITY = 0.05
SWEEP_CORES = (1, 2, 4, 8, 16)
CEILING_FACTOR = 2.0
ANALYTIC_SWEEP_BASELINE_S = 0.133


class TestParityAtPaperScale:
    def test_ffbp_16_core_cycles_and_energy(self, paper_plan):
        ev = run_ffbp_spmd(get_machine("event"), paper_plan, 16)
        an = run_ffbp_spmd(get_machine("analytic"), paper_plan, 16)
        print(
            f"\nFFBP-16  cycles: event {ev.cycles:,}  analytic {an.cycles:,}"
            f"  ratio {an.cycles / ev.cycles:.4f}"
        )
        assert an.cycles == pytest.approx(ev.cycles, rel=PARITY)
        assert an.energy_joules == pytest.approx(ev.energy_joules, rel=PARITY)

    def test_autofocus_13_core_cycles_and_energy(self):
        work = AutofocusWorkload()
        ev = run_autofocus_mpmd(get_machine("event"), work)
        an = run_autofocus_mpmd(get_machine("analytic"), work)
        print(
            f"\nAF-13    cycles: event {ev.cycles:,}  analytic {an.cycles:,}"
            f"  ratio {an.cycles / ev.cycles:.4f}"
        )
        assert an.cycles == pytest.approx(ev.cycles, rel=PARITY)
        assert an.energy_joules == pytest.approx(ev.energy_joules, rel=PARITY)


class TestSweepSpeed:
    def test_analytic_core_sweep_within_baseline(self, paper_plan):
        def sweep() -> float:
            start = time.perf_counter()
            for n in SWEEP_CORES:
                run_ffbp_spmd(get_machine("analytic"), paper_plan, n)
            return time.perf_counter() - start

        sweep()  # warm caches so the measurement is steady-state
        t_analytic = sweep()
        ceiling = CEILING_FACTOR * ANALYTIC_SWEEP_BASELINE_S
        print(
            f"\nanalytic core sweep {SWEEP_CORES}: {t_analytic:.3f}s "
            f"(baseline {ANALYTIC_SWEEP_BASELINE_S}s, ceiling {ceiling:.3f}s)"
        )
        assert t_analytic <= ceiling
