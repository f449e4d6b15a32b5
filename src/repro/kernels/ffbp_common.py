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
(``PLAN_CHUNK_SAMPLES`` samples each) and over the children one at a
time, writing each child's coordinates into buffers allocated once per
stage (:func:`repro.geometry.cosine.child_range` and
:func:`~repro.geometry.cosine.child_angle` take ``out=``).  It applies
the image path's nearest-bin rule
(:func:`repro.sar.ffbp.nearest_child_bins`) with the same rounding
operations, fused in place: the rounded bins stay floats, validity is
``0 <= f < n`` on them, only the clipped beam bin is cast (to int32)
and the range bin never is.  Only the per-row reductions are kept, as
int32.  No gather table (:class:`~repro.sar.ffbp.StageMaps`) is built
or memoised for a plan; only the finished plan is.

A key structural fact keeps plans small: the index maps depend only on
the stage geometry, never on which parent is being merged, so per-row
statistics are computed once per stage for the ``K`` parent beams and
hold for every parent subaperture.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from repro.geometry.apertures import SubapertureTree
from repro.geometry.cosine import child_angle, child_range
from repro.perf import memo_key, memoize
from repro.sar.config import RadarConfig
from repro.sar.ffbp import (
    child_axis,
    child_samples,
    stage_maps,  # noqa: F401  (the perfbench traced sweep patches this name)
    stage_theta_axis,
)

PREFETCH_WINDOW_BYTES = 16016
"""The paper's prefetch budget: "the two upper data banks ... to store
the subaperture data corresponding to two pulses, which is equal to
16,016 bytes" (two 1001-sample complex64 rows)."""

PLAN_CHUNK_SAMPLES = 32 * 1024
"""Parent samples (beams x ranges) whose child coordinates
:func:`plan_stage` holds at once: its chunk buffers take 30 bytes a
sample (under 1 MB), however large the stage."""


@dataclass(frozen=True)
class StagePlan:
    """Cost-relevant statistics of one merge stage.

    All per-row arrays have shape ``(K,)`` where ``K`` is the parent
    beam count; they apply identically to every parent of the stage.
    ``valid_frac`` is float64 and the integer rows are int32 (half the
    memo footprint of int64).

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

    Child coordinates are generated for a chunk of parent beams
    (``PLAN_CHUNK_SAMPLES`` samples) and one child at a time, into
    buffers allocated once per stage, and reduced per row at once
    (:meth:`_IndexRule.reduce`): valid count, median child beam, and
    valid lookups outside the prefetch window around that median.
    Every reduction is per row, so the plan is byte-identical to
    reducing the full stage maps (``tests/kernels/
    test_plan_streaming.py`` keeps that reduction as its oracle).
    """
    parent = tree.stage(level)
    child = tree.stage(level - 1)
    n_children, beams, n_ranges = tree.merge_base, parent.beams, cfg.n_ranges

    row_bytes = n_ranges * 8
    per_child_window = _window_int(window_bytes) // max(1, n_children)
    window_rows = per_child_window // row_bytes  # 0 = no prefetch at all

    theta = stage_theta_axis(cfg, tree, level)[:, None]  # (K, 1)
    rule = _IndexRule(
        *child_axis(cfg, tree, level), cfg.r0, cfg.dr, n_ranges, child.beams,
        window_rows,
    )
    reads_total = np.zeros(beams, dtype=np.int32)
    reads_ext = np.zeros(beams, dtype=np.int32)
    med = np.empty((n_children, beams), dtype=np.int32)
    chunk = min(beams, max(1, PLAN_CHUNK_SAMPLES // n_ranges))
    shape = (chunk, n_ranges)
    r_buf, theta_buf, den_buf = (np.empty(shape) for _ in range(3))
    ib_buf = np.empty(shape, dtype=np.int32)
    ok_buf, tmp_buf = (np.empty(shape, dtype=bool) for _ in range(2))
    for k0 in range(0, beams, chunk):
        rows = slice(k0, k0 + chunk)
        k = min(chunk, beams - k0)
        scratch = ib_buf[:k], ok_buf[:k], tmp_buf[:k]
        coords = _child_coords(
            cfg, tree, level, theta[rows], r_buf[:k], theta_buf[:k], den_buf[:k]
        )
        for c, (r, th) in enumerate(coords):
            total, ext, med[c, rows] = rule.reduce(r, th, *scratch)
            reads_total[rows] += total
            reads_ext[rows] += ext

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


def _child_coords(
    cfg: RadarConfig,
    tree: SubapertureTree,
    level: int,
    theta: np.ndarray,
    r_out: np.ndarray,
    theta_out: np.ndarray,
    den: np.ndarray,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Each child's ``(r, theta)`` for the parent samples ``range_axis x
    theta``, one child at a time.

    For merge base 2 they are paper eqs. 1-4 (:mod:`repro.geometry.
    cosine`) written into ``r_out``/``theta_out`` (``den`` is scratch),
    so the caller must reduce one child before asking for the next.
    Other bases take :func:`~repro.sar.ffbp.child_samples`'s direct
    transform into fresh arrays.
    """
    if tree.merge_base != 2:
        for s in child_samples(cfg, tree, level, theta):
            yield s.r, s.theta
        return
    r = cfg.range_axis()[None, :]  # (1, J)
    l = tree.stage(level - 1).length
    for c in (1, 2):
        ri = child_range(r, theta, l, c, out=r_out)
        yield ri, child_angle(r, l, ri, c, out=theta_out, den=den)


class _IndexRule(NamedTuple):
    """One stage's nearest-bin rule and per-row plan reductions."""

    theta0: float
    dtheta: float
    r0: float
    dr: float
    n_ranges: int
    child_beams: int
    window_rows: int

    def reduce(
        self,
        r: np.ndarray,
        theta: np.ndarray,
        ib: np.ndarray,
        ok: np.ndarray,
        tmp: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(valid, outside window, median beam)`` per row of one child.

        Applies :func:`~repro.sar.ffbp.nearest_child_bins`'s rule with
        its exact operations, fused and in place: ``r`` and ``theta``
        are rounded to fractional bins and overwritten, and ``ib``,
        ``ok`` and ``tmp`` are scratch of the same shape.  The rounded
        bins stay floats: ``0 <= f < n`` on them decides validity
        exactly as the unsigned test on their int64 casts does
        (``-0.0`` is valid, NaN is not), the range bin is never cast,
        and only the clipped beam bin becomes int32.
        """
        fb = np.subtract(theta, self.theta0, out=theta)
        fb /= self.dtheta
        np.rint(fb, out=fb)
        fr = np.subtract(r, self.r0, out=r)
        fr /= self.dr
        np.rint(fr, out=fr)
        np.less(fr, self.n_ranges, out=ok)
        ok &= np.less_equal(0.0, fr, out=tmp)
        ok &= np.less(fb, self.child_beams, out=tmp)
        ok &= np.less_equal(0.0, fb, out=tmp)
        # fmax sends NaN to 0, where an int cast then a clip sends it.
        np.fmax(fb, 0.0, out=fb)
        np.minimum(fb, self.child_beams - 1, out=fb)
        np.copyto(ib, fb, casting="unsafe")
        med = np.median(ib, axis=1).astype(np.int32)
        total = np.count_nonzero(ok, axis=1)
        if not self.window_rows:
            return total, total, med
        # |ib - med| > half, as one unsigned compare: ib - (med - half)
        # wraps past 2 * half exactly when it is negative.
        half = self.window_rows // 2
        ib -= (med - half)[:, None]
        ok &= np.greater(ib.view(np.uint32), 2 * half, out=tmp)
        return total, np.count_nonzero(ok, axis=1), med


def plan_ffbp(
    cfg: RadarConfig, window_bytes: int = PREFETCH_WINDOW_BYTES
) -> FfbpPlan:
    """Build the full multi-stage plan for a configuration.

    The plan is machine-independent; the same plan feeds the Epiphany
    sequential, Epiphany SPMD and CPU reference kernels, which is what
    makes their comparison a controlled experiment.

    ``window_bytes`` must be an integer ``>= 0`` (a float is accepted
    only if it is integral); the plan is keyed and built with that int.

    Plans depend only on ``(cfg, window_bytes)``, so they are a
    persisted kind of the process memo (:mod:`repro.perf`), whose key
    embeds the code version so any source edit invalidates them.  A
    memo hit returns a byte-identical, read-only plan.
    """
    window = _window_int(window_bytes)
    return memoize(
        memo_key("ffbp/plan", (cfg, window)),
        lambda: _build_plan_ffbp(cfg, window),
        persist=True,
    )


def _window_int(window_bytes) -> int:
    """``window_bytes`` as an int, refusing what no plan can hold."""
    try:
        window = int(window_bytes)
    except (TypeError, ValueError, OverflowError):
        window = -1
    if window < 0 or window != window_bytes:
        raise ValueError(
            f"window_bytes must be an integer >= 0, got {window_bytes!r}"
        )
    return window


def _build_plan_ffbp(cfg: RadarConfig, window_bytes: int) -> FfbpPlan:
    """Cold build of :func:`plan_ffbp`."""
    tree = SubapertureTree(cfg.n_pulses, cfg.spacing, cfg.merge_base)
    stages = tuple(
        plan_stage(cfg, tree, level, window_bytes)
        for level in range(1, tree.n_stages + 1)
    )
    return FfbpPlan(cfg=cfg, stages=stages, window_bytes=window_bytes)
