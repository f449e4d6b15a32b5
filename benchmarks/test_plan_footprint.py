"""Regression guard: a paper-scale FFBP plan stays small to build.

:func:`repro.kernels.ffbp_common.plan_ffbp` streams the cosine-theorem
child indices over chunks of parent beams and keeps only per-row
reductions.  Before it did, a cold paper-scale plan built and memoised
the full stage maps of all ten merge stages: a ``tracemalloc`` peak of
160 MB with the memo off (209 MB with it on) and eleven memo entries.
Streamed, the peak is 2.9 MB on a 2-core x86 host and the plan is the
only entry.

Run with ``pytest benchmarks/test_plan_footprint.py -s`` to see the
measured peak.
"""

from __future__ import annotations

import tracemalloc

from repro.kernels.ffbp_common import plan_ffbp
from repro.perf import clear_memo, memo_disabled, memo_stats
from repro.sar.config import RadarConfig

PEAK_CEILING_MB = 16.0


def test_cold_paper_plan_memoises_only_the_plan():
    clear_memo()
    plan_ffbp(RadarConfig.paper())
    assert memo_stats()["entries"] == 1


def test_cold_paper_plan_peak_allocation():
    cfg = RadarConfig.paper()
    # Memo off: every stage is built cold, whatever a disk tier holds.
    with memo_disabled():
        tracemalloc.start()
        try:
            plan_ffbp(cfg)
            peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
    print(f"\ncold paper plan: tracemalloc peak {peak_mb:.1f} MB")
    assert peak_mb < PEAK_CEILING_MB, (
        f"cold paper plan peaked at {peak_mb:.1f} MB, over {PEAK_CEILING_MB} MB"
    )
