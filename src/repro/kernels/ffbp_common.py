"""Shared FFBP kernel planning.

The machine kernels charge costs at *output-row* granularity (one
parent beam row of ``n_ranges`` samples).  Everything they need --
valid-sample fractions (the skip-zero optimisation), how many child
lookups fall inside the prefetched local-memory window versus going to
external memory, and how much data the window prefetch itself moves --
is derived here from the **actual child lookup indices** of each merge
stage, not from hand-waved locality assumptions.

The indices are generated on the fly from the cosine theorem (paper
eqs. 1-4), as the Epiphany kernels generate them into their local
banks: :func:`plan_stage` streams over chunks of parent beams
(``PLAN_CHUNK_SAMPLES`` samples each), applies the image path's
nearest-bin rule (:func:`repro.sar.ffbp.nearest_child_bins`) to each
chunk and keeps only the per-row reductions.  No gather table
(:class:`~repro.sar.ffbp.StageMaps`) is built or memoised for a plan;
only the finished plan is.

A key structural fact keeps plans small: the index maps depend only on
the stage geometry, never on which parent is being merged, so per-row
statistics are computed once per stage for the ``K`` parent beams and
hold for every parent subaperture.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry.apertures import SubapertureTree
from repro.perf import memo_key, memoize
from repro.sar.config import RadarConfig
from repro.sar.ffbp import (
    child_axis,
    child_samples,
    nearest_child_bins,
    stage_maps,  # noqa: F401  (the perfbench traced sweep patches this name)
    stage_theta_axis,
)

PREFETCH_WINDOW_BYTES = 16016
"""The paper's prefetch budget: "the two upper data banks ... to store
the subaperture data corresponding to two pulses, which is equal to
16,016 bytes" (two 1001-sample complex64 rows)."""

PLAN_CHUNK_SAMPLES = 32 * 1024
"""Parent samples (beams x ranges) whose child indices :func:`plan_stage`
holds at once: under 3 MB of temporaries, however large the stage."""


@dataclass(frozen=True)
class StagePlan:
    """Cost-relevant statistics of one merge stage.

    All per-row arrays have shape ``(K,)`` where ``K`` is the parent
    beam count; they apply identically to every parent of the stage.

    Attributes
    ----------
    level:
        Merge level (1-based).
    n_parents, beams, n_ranges:
        Stage dimensions.
    valid_frac:
        Mean in-range fraction of child lookups per parent row.
    reads_row_total:
        Valid child lookups per row (what the *sequential* kernel
        fetches from external memory one word at a time).
    reads_row_ext:
        Valid lookups per row that fall *outside* the prefetch window
        (what the *parallel* kernel still fetches word-wise).
    med_row:
        ``(n_children, K)`` median child beam row of each parent row's
        lookups -- the centre the prefetch window tracks.
    window_rows:
        Child beam rows the per-child window holds.
    child_beams:
        Beam rows in each child subaperture.
    """

    level: int
    n_parents: int
    beams: int
    n_ranges: int
    valid_frac: np.ndarray
    reads_row_total: np.ndarray
    reads_row_ext: np.ndarray
    med_row: np.ndarray
    window_rows: int
    child_beams: int

    @property
    def rows(self) -> int:
        """Total output rows of the stage (parents x beams)."""
        return self.n_parents * self.beams

    def prefetch_rows_for_span(self, k0: int, k1: int) -> int:
        """Distinct child beam rows a window sweep over rows
        ``[k0, k1)`` of one parent must fetch, summed over children.

        The window tracks the per-row median; the distinct rows covered
        are the span of medians plus the window width, clipped to the
        child's extent.
        """
        if not 0 <= k0 < k1 <= self.beams:
            raise ValueError(f"bad beam span [{k0}, {k1}) for {self.beams} beams")
        if self.window_rows == 0:
            return 0
        total = 0
        half = self.window_rows // 2
        for c in range(self.med_row.shape[0]):
            med = self.med_row[c, k0:k1]
            lo = max(0, int(med.min()) - half)
            hi = min(self.child_beams - 1, int(med.max()) + half)
            total += hi - lo + 1
        return total


@dataclass(frozen=True)
class FfbpPlan:
    """Per-stage plans for a full FFBP run."""

    cfg: RadarConfig
    stages: tuple[StagePlan, ...]
    window_bytes: int

    @property
    def n_stages(self) -> int:
        return len(self.stages)

    @property
    def total_samples(self) -> int:
        return sum(s.rows * s.n_ranges for s in self.stages)


def plan_stage(
    cfg: RadarConfig,
    tree: SubapertureTree,
    level: int,
    window_bytes: int = PREFETCH_WINDOW_BYTES,
) -> StagePlan:
    """Build the cost plan of one merge stage, streaming its indices.

    Child lookup indices are generated for a chunk of parent beams
    (``PLAN_CHUNK_SAMPLES`` samples) at a time and reduced per row at
    once: valid count, median child beam, and valid lookups outside the
    prefetch window around that median.  Every reduction is per row, so the plan is byte-identical
    to reducing the full stage maps (``tests/kernels/
    test_plan_streaming.py`` keeps that reduction as its oracle).
    """
    parent = tree.stage(level)
    child = tree.stage(level - 1)
    n_children, beams, n_ranges = tree.merge_base, parent.beams, cfg.n_ranges

    row_bytes = n_ranges * 8
    per_child_window = window_bytes // max(1, n_children)
    window_rows = per_child_window // row_bytes  # 0 = no prefetch at all
    half = window_rows // 2

    theta = stage_theta_axis(cfg, tree, level)[:, None]  # (K, 1)
    theta0, dtheta = child_axis(cfg, tree, level)
    reads_total = np.zeros(beams, dtype=np.int64)
    reads_ext = np.zeros(beams, dtype=np.int64)
    med = np.empty((n_children, beams), dtype=np.int64)
    chunk = max(1, PLAN_CHUNK_SAMPLES // n_ranges)
    for k0 in range(0, beams, chunk):
        rows = slice(k0, k0 + chunk)
        samples = child_samples(cfg, tree, level, theta[rows])
        for c, s in enumerate(samples):
            ib, _, ok = nearest_child_bins(s, cfg, theta0, dtheta, child.beams)
            m = np.median(ib, axis=1).astype(np.int64)
            med[c, rows] = m
            reads_total[rows] += np.count_nonzero(ok, axis=1)
            if window_rows:
                # |ib - m| > half, as one unsigned compare: ib - (m -
                # half) wraps past 2 * half exactly when it is negative.
                ib -= (m - half)[:, None]
                ok &= ib.view(np.uint64) > 2 * half
            reads_ext[rows] += np.count_nonzero(ok, axis=1)

    return StagePlan(
        level=level,
        n_parents=parent.n_subapertures,
        beams=beams,
        n_ranges=n_ranges,
        valid_frac=reads_total / (n_children * n_ranges),
        reads_row_total=reads_total,
        reads_row_ext=reads_ext,
        med_row=med,
        window_rows=window_rows,
        child_beams=child.beams,
    )


def plan_ffbp(
    cfg: RadarConfig, window_bytes: int = PREFETCH_WINDOW_BYTES
) -> FfbpPlan:
    """Build the full multi-stage plan for a configuration.

    The plan is machine-independent; the same plan feeds the Epiphany
    sequential, Epiphany SPMD and CPU reference kernels, which is what
    makes their comparison a controlled experiment.

    Plans depend only on ``(cfg, window_bytes)``, so they are a
    persisted kind of the process memo (:mod:`repro.perf`), whose key
    embeds the code version so any source edit invalidates them.  A
    memo hit returns a byte-identical, read-only plan.
    """
    return memoize(
        memo_key("ffbp/plan", (cfg, int(window_bytes))),
        lambda: _build_plan_ffbp(cfg, window_bytes),
        persist=True,
    )


def _build_plan_ffbp(cfg: RadarConfig, window_bytes: int) -> FfbpPlan:
    """Cold build of :func:`plan_ffbp`."""
    tree = SubapertureTree(cfg.n_pulses, cfg.spacing, cfg.merge_base)
    stages = tuple(
        plan_stage(cfg, tree, level, window_bytes)
        for level in range(1, tree.n_stages + 1)
    )
    return FfbpPlan(cfg=cfg, stages=stages, window_bytes=window_bytes)
