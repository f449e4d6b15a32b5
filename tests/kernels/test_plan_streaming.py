"""Streamed stage plans are byte-identical to reducing the full maps.

:func:`repro.kernels.ffbp_common.plan_stage` generates child lookup
indices chunk by chunk and keeps only per-row reductions.  The oracle
here is the map-based reduction it replaced: build the whole
:func:`repro.sar.ffbp.stage_maps` array set for the stage and reduce
it.  Every ``StagePlan`` array must match it in dtype, shape and bytes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.geometry.apertures import SubapertureTree
from repro.kernels import ffbp_common
from repro.kernels.ffbp_common import plan_stage
from repro.perf import clear_memo, memo_disabled, memo_stats
from repro.sar.config import RadarConfig
from repro.sar.ffbp import stage_maps

ARRAYS = ("valid_frac", "reads_row_total", "reads_row_ext", "med_row")
SCALARS = ("level", "n_parents", "beams", "n_ranges", "window_rows", "child_beams")


def map_reductions(cfg, tree, level, window_bytes) -> dict:
    """The per-row plan statistics reduced from the full stage maps."""
    maps = stage_maps(cfg, tree, level)
    n_children, beams, n_ranges = maps.valid.shape
    window_rows = (window_bytes // max(1, n_children)) // (n_ranges * 8)
    med = np.median(maps.beam_idx, axis=2).astype(np.int64)
    if window_rows == 0:
        in_window = np.zeros_like(maps.valid)
    else:
        in_window = np.abs(maps.beam_idx - med[:, :, None]) <= window_rows // 2
    return {
        "level": level,
        "n_parents": tree.stage(level).n_subapertures,
        "beams": beams,
        "n_ranges": n_ranges,
        "window_rows": window_rows,
        "child_beams": tree.stage(level - 1).beams,
        "valid_frac": maps.valid.mean(axis=(0, 2)),
        "reads_row_total": maps.valid.sum(axis=(0, 2)).astype(np.int64),
        "reads_row_ext": (maps.valid & ~in_window).sum(axis=(0, 2)).astype(np.int64),
        "med_row": med,
    }


def assert_stage_identical(cfg: RadarConfig, window_bytes: int) -> None:
    tree = SubapertureTree(cfg.n_pulses, cfg.spacing, cfg.merge_base)
    with memo_disabled():
        for level in range(1, tree.n_stages + 1):
            plan = plan_stage(cfg, tree, level, window_bytes)
            want = map_reductions(cfg, tree, level, window_bytes)
            for name in SCALARS:
                assert getattr(plan, name) == want[name], (level, name)
            for name in ARRAYS:
                got = getattr(plan, name)
                assert got.dtype == want[name].dtype, (level, name)
                assert got.shape == want[name].shape, (level, name)
                assert got.tobytes() == want[name].tobytes(), (level, name)


APERTURES = [(2, 32), (2, 128), (3, 81), (3, 243), (4, 64)]  # (base, pulses)
WINDOWS = [0, 1000, 16016, 64000]
# Beams per chunk: at these ranges the module default holds a whole
# stage; 4 divides every power of 2 and 4 but no power of 3, and 7
# divides no stage's beam count.
CHUNK_BEAMS = [None, 4, 7]


@pytest.mark.parametrize("base,pulses", APERTURES)
@pytest.mark.parametrize("n_ranges", [64, 65])
@pytest.mark.parametrize("window_bytes", WINDOWS)
@pytest.mark.parametrize("chunk_beams", CHUNK_BEAMS)
def test_streamed_plan_matches_map_reductions(
    monkeypatch, base, pulses, n_ranges, window_bytes, chunk_beams
):
    if chunk_beams is not None:
        monkeypatch.setattr(
            ffbp_common, "PLAN_CHUNK_SAMPLES", chunk_beams * n_ranges
        )
    cfg = RadarConfig.small(n_pulses=pulses, n_ranges=n_ranges).with_(
        merge_base=base
    )
    assert_stage_identical(cfg, window_bytes)


def test_paper_scale_plan_matches_map_reductions():
    assert_stage_identical(RadarConfig.paper(), 16016)


def test_plan_stage_builds_no_stage_maps():
    cfg = RadarConfig.small(n_pulses=64, n_ranges=65)
    tree = SubapertureTree(cfg.n_pulses, cfg.spacing, cfg.merge_base)
    clear_memo()
    before = memo_stats()
    for level in range(1, tree.n_stages + 1):
        plan_stage(cfg, tree, level)
    after = memo_stats()
    assert after["entries"] == 0
    assert after["misses"] == before["misses"]
