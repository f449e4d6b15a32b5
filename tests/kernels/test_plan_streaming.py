"""Streamed stage plans are byte-identical to reducing the full maps.

:func:`repro.kernels.ffbp_common.plan_stage` generates child lookup
indices chunk by chunk and keeps only per-row reductions.  The oracle
here is the map-based reduction it replaced: build the whole
:func:`repro.sar.ffbp.stage_maps` array set for the stage and reduce
it.  Every ``StagePlan`` array must have its declared dtype (``DTYPES``:
the per-row integers are int32, half the reduction's int64) and match
the reduction's values exactly, shape and bytes after widening.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.geometry.apertures import SubapertureTree
from repro.geometry.cosine import ChildSample
from repro.kernels import ffbp_common
from repro.kernels.ffbp_common import _IndexRule, plan_stage
from repro.perf import clear_memo, memo_disabled, memo_stats
from repro.sar.config import RadarConfig
from repro.sar.ffbp import nearest_child_bins, stage_maps

DTYPES = {
    "valid_frac": np.float64,
    "reads_row_total": np.int32,
    "reads_row_ext": np.int32,
    "med_row": np.int32,
}
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
            for name, dtype in DTYPES.items():
                got = getattr(plan, name)
                assert got.dtype == dtype, (level, name)
                assert got.shape == want[name].shape, (level, name)
                wide = got.astype(want[name].dtype)
                assert wide.tobytes() == want[name].tobytes(), (level, name)


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


@pytest.mark.parametrize("window_rows", [0, 1, 4])
def test_float_index_rule_matches_nearest_child_bins_at_the_edges(window_rows):
    """The planner's fused float rule against the image path's int rule
    on bins no real geometry hits often: NaN, ``-0.0`` from rounding,
    exact half-bins at both ends, and far outside the grid."""
    cfg = RadarConfig.small(n_pulses=64, n_ranges=65)
    theta0, dtheta, child_beams = 1.25, 0.01, 16
    rng = np.random.default_rng(7)
    fb = rng.uniform(-3.0, child_beams + 3.0, size=(8, cfg.n_ranges))
    fr = rng.uniform(-3.0, cfg.n_ranges + 3.0, size=(8, cfg.n_ranges))
    for rows, bins, n in (
        (slice(0, 3), fb, child_beams),
        (slice(3, 6), fr, cfg.n_ranges),
    ):
        edges = [np.nan, -0.0, 0.0, -0.3, -0.5, -0.5001, n - 0.5, n - 0.4999]
        edges += [-1e9, 1e9]
        bins[rows, : len(edges)] = edges
    fb[6, :40] = np.nan  # a NaN majority sets the median
    theta = theta0 + fb * dtheta
    r = cfg.r0 + fr * cfg.dr

    with np.errstate(invalid="ignore"):  # the int rule casts NaN
        ib, _, ok = nearest_child_bins(
            ChildSample(r.copy(), theta.copy()), cfg, theta0, dtheta, child_beams
        )
    med = np.median(ib, axis=1).astype(np.int64)
    outside = np.abs(ib - med[:, None]) > window_rows // 2
    ext = (ok & outside) if window_rows else ok

    rule = _IndexRule(
        theta0, dtheta, cfg.r0, cfg.dr, cfg.n_ranges, child_beams, window_rows
    )
    shape = r.shape
    got = rule.reduce(
        r.copy(), theta.copy(), np.empty(shape, np.int32),
        np.empty(shape, bool), np.empty(shape, bool),
    )
    assert np.array_equal(got[0], ok.sum(axis=1))
    assert np.array_equal(got[1], ext.sum(axis=1))
    assert np.array_equal(got[2], med)
