"""Benchmark: the perf memo buys >= 2x on repeated-geometry sweeps.

The ISSUE acceptance bar for the performance layer: a sweep that
revisits the same grid geometry (every Monte-Carlo repeat, every
backend of a differential-oracle cell) must run at least 2x faster
with the memo than with it disabled.  The workload here is the
honest one from the hot paths: build the full FFBP cost plan --
cosine-theorem child indices streamed over beam chunks for every
merge stage and reduced to per-stage window statistics, with no stage
maps built or memoised -- ``N_REPEATS`` times for the same
configuration, exactly what a sweep over window sizes or cores used to
recompute per point.  The plan itself is the one memo entry.

Run with ``pytest benchmarks/test_perf_memo.py -s`` to see the
measured ratio.
"""

from __future__ import annotations

import time

from repro.kernels.ffbp_common import plan_ffbp
from repro.perf import clear_memo, memo_disabled, memo_stats
from repro.sar.config import RadarConfig

SPEEDUP_FLOOR = 2.0
N_REPEATS = 6


def _sweep_seconds(cfg: RadarConfig) -> float:
    t0 = time.perf_counter()
    for _ in range(N_REPEATS):
        plan_ffbp(cfg)
    return time.perf_counter() - t0


class TestMemoSpeedup:
    def test_repeated_geometry_sweep_is_2x_faster(self):
        # 256 x 1001: hundreds of milliseconds uncached -- comfortably
        # above timer noise -- while staying under the paper scale so
        # the benchmark suite stays quick.  (256 pulses is the largest
        # aperture the reduced geometry's angular sampling bound
        # admits; the range axis provides the rest of the work.)
        cfg = RadarConfig.small(n_pulses=256, n_ranges=1001)

        with memo_disabled():
            cold = _sweep_seconds(cfg)

        clear_memo()
        warm = _sweep_seconds(cfg)

        ratio = cold / warm
        print(
            f"\nrepeated-geometry plan sweep x{N_REPEATS}: "
            f"uncached {cold:.3f}s, memoised {warm:.3f}s -> {ratio:.1f}x"
        )
        assert ratio >= SPEEDUP_FLOOR, (
            f"memo speedup {ratio:.2f}x below the {SPEEDUP_FLOOR}x floor"
        )

    def test_memo_actually_hit(self):
        cfg = RadarConfig.small(n_pulses=64, n_ranges=65)
        clear_memo()
        before = memo_stats()["hits"]
        for _ in range(3):
            plan_ffbp(cfg)
        assert memo_stats()["hits"] >= before + 2
