"""Autofocus criterion calculation and flight-path compensation search.

Paper Section II-A: when GPS positioning is insufficient, the flight
path compensation applied before each FFBP merge is found from the image
data itself.  With merge base 2, several candidate compensations are
tested; for each candidate the two contributing subaperture images are
resampled along tilted paths (cubic interpolation in the range
direction, then the beam direction -- Neville's algorithm, paper ref.
[16]) and scored by the intensity-correlation focus criterion
(paper eq. 6).  The candidate that maximises the criterion wins.

The images compared are only small subimages (the paper uses two 6x6
pixel blocks), over which a path error is well approximated by a linear
shift of the data set -- hence the candidate space is (shift, tilt)
pairs in the range and beam directions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.geometry.apertures import SubapertureTree
from repro.sar.config import RadarConfig
from repro.sar.ffbp import FfbpOptions, combine_children, initial_stage, stage_maps
from repro.signal.correlation import focus_criterion
from repro.signal.interpolation import cubic_neville_rows

BLOCK_SHAPE = (6, 6)
"""The paper's autofocus subimage size (beam x range pixels)."""


@dataclass(frozen=True)
class Compensation:
    """One candidate flight-path compensation, as a data-set shift.

    Shifts and tilts are in fractional pixels; ``range_tilt`` is the
    per-beam-row slope of the range shift (the "tilted path"), and
    symmetrically for ``beam_tilt``.
    """

    range_shift: float = 0.0
    range_tilt: float = 0.0
    beam_shift: float = 0.0
    beam_tilt: float = 0.0

    def scaled(self, factor: float) -> "Compensation":
        return Compensation(
            self.range_shift * factor,
            self.range_tilt * factor,
            self.beam_shift * factor,
            self.beam_tilt * factor,
        )


def resample_range(block: np.ndarray, shift: float, tilt: float = 0.0) -> np.ndarray:
    """Cubic resampling of each beam row along a tilted range path.

    Row ``i`` of the output samples row ``i`` of the input at fractional
    range positions ``j + shift + tilt * (i - (nb-1)/2)``.
    """
    block = np.asarray(block)
    nb, nr = block.shape
    j = np.arange(nr, dtype=np.float64)
    rows = np.arange(nb, dtype=np.float64)[:, None] - (nb - 1) / 2.0
    positions = j + shift + tilt * rows  # (nb, nr) tilted paths
    return cubic_neville_rows(block, positions)


def resample_beam(block: np.ndarray, shift: float, tilt: float = 0.0) -> np.ndarray:
    """Cubic resampling of each range column along a tilted beam path."""
    return resample_range(np.asarray(block).T, shift, tilt).T


def apply_compensation(block: np.ndarray, comp: Compensation) -> np.ndarray:
    """Resample a block by a candidate compensation.

    Range direction first, then beam direction -- the stage order of
    the paper's dataflow diagram (Fig. 8).
    """
    out = resample_range(block, comp.range_shift, comp.range_tilt)
    out = resample_beam(out, comp.beam_shift, comp.beam_tilt)
    return out


def criterion_for(
    f_minus: np.ndarray,
    f_plus: np.ndarray,
    comp: Compensation,
    normalized: bool = True,
) -> float:
    """Focus criterion for one candidate compensation.

    The candidate is applied symmetrically: ``f_plus`` is shifted by
    half the compensation and ``f_minus`` by the opposite half, which
    keeps the comparison unbiased for shifts of either sign.

    ``normalized=True`` (the search default) scores with the
    energy-normalised form of eq. 6, which is invariant to the
    energy-concentration side effect of resampling; ``False`` gives the
    paper's raw sum.
    """
    g_minus = apply_compensation(np.asarray(f_minus), comp.scaled(-0.5))
    g_plus = apply_compensation(np.asarray(f_plus), comp.scaled(+0.5))
    if normalized:
        from repro.signal.correlation import normalized_focus_criterion

        return normalized_focus_criterion(g_minus, g_plus)
    return focus_criterion(g_minus, g_plus)


@dataclass(frozen=True)
class AutofocusResult:
    """Outcome of a compensation search."""

    best: Compensation
    best_criterion: float
    candidates: tuple[Compensation, ...]
    criteria: np.ndarray = field(repr=False)

    @property
    def best_index(self) -> int:
        return int(np.argmax(self.criteria))

    def zero_criterion(self) -> float:
        """Criterion of the candidate nearest to no compensation."""
        norms = [
            abs(c.range_shift) + abs(c.range_tilt) + abs(c.beam_shift) + abs(c.beam_tilt)
            for c in self.candidates
        ]
        return float(self.criteria[int(np.argmin(norms))])

    def gain(self) -> float:
        """Relative criterion improvement of the winner over zero."""
        zero = self.zero_criterion()
        if zero <= 0:
            return float("inf") if self.best_criterion > 0 else 0.0
        return self.best_criterion / zero - 1.0


def default_candidates(
    max_range_shift: float = 2.0, n: int = 9
) -> tuple[Compensation, ...]:
    """A 1-D sweep of range shifts, the dominant path-error effect.

    A cross-track deviation ``dy`` of the platform changes the target
    range by ``~ dy * sin(theta) ~ dy`` near broadside, i.e. a range
    shift of the data -- so the default search is over range shifts.
    """
    if n < 1:
        raise ValueError("need at least one candidate")
    shifts = np.linspace(-max_range_shift, max_range_shift, n)
    return tuple(Compensation(range_shift=float(s)) for s in shifts)


def grid_candidates(
    range_shifts: int = 6,
    range_tilts: int = 6,
    beam_shifts: int = 6,
    max_shift: float = 2.0,
    max_tilt: float = 0.5,
) -> tuple[Compensation, ...]:
    """A full 3-D compensation grid over (shift, tilt, beam shift).

    The default 6x6x6 = 216 candidates is the workload the timing
    models assume (see
    :class:`repro.kernels.opcounts.AutofocusWorkload`): the "several
    different flight path compensations ... tested before a merge",
    covering both the constant and the linearly varying (tilted-path)
    parts of the local path error.
    """
    if min(range_shifts, range_tilts, beam_shifts) < 1:
        raise ValueError("every grid dimension needs at least one point")

    def axis(n: int, extent: float) -> np.ndarray:
        return np.linspace(-extent, extent, n) if n > 1 else np.zeros(1)

    out = []
    for rs in axis(range_shifts, max_shift):
        for rt in axis(range_tilts, max_tilt):
            for bs in axis(beam_shifts, max_shift):
                out.append(
                    Compensation(
                        range_shift=float(rs),
                        range_tilt=float(rt),
                        beam_shift=float(bs),
                    )
                )
    return tuple(out)


def autofocus_search(
    f_minus: np.ndarray,
    f_plus: np.ndarray,
    candidates: tuple[Compensation, ...] | None = None,
) -> AutofocusResult:
    """Evaluate the criterion for every candidate and pick the best."""
    cands = candidates if candidates is not None else default_candidates()
    crit = np.array([criterion_for(f_minus, f_plus, c) for c in cands])
    best = int(np.argmax(crit))
    return AutofocusResult(
        best=cands[best],
        best_criterion=float(crit[best]),
        candidates=tuple(cands),
        criteria=crit,
    )


def brightest_block(
    image: np.ndarray, block_shape: tuple[int, int] = BLOCK_SHAPE
) -> tuple[int, int]:
    """Top-left corner of the brightest ``block_shape`` window.

    Autofocus correlates only small subimages around strong scatterers;
    this picks the window with maximum total intensity (via a summed
    area table, so it is exact, not a heuristic scan).
    """
    mag2 = np.abs(np.asarray(image)) ** 2
    nb, nr = mag2.shape
    hb, hr = block_shape
    if nb < hb or nr < hr:
        raise ValueError(f"image {mag2.shape} smaller than block {block_shape}")
    sat = np.zeros((nb + 1, nr + 1))
    sat[1:, 1:] = mag2.cumsum(axis=0).cumsum(axis=1)
    windows = (
        sat[hb:, hr:] - sat[:-hb, hr:] - sat[hb:, :-hr] + sat[:-hb, :-hr]
    )
    i, j = np.unravel_index(int(np.argmax(windows)), windows.shape)
    return int(i), int(j)


def extract_block(
    image: np.ndarray,
    corner: tuple[int, int],
    block_shape: tuple[int, int] = BLOCK_SHAPE,
) -> np.ndarray:
    """Copy one block out of an image."""
    i, j = corner
    hb, hr = block_shape
    return np.array(image[i : i + hb, j : j + hr])


def top_blocks(
    image: np.ndarray,
    n_blocks: int,
    block_shape: tuple[int, int] = BLOCK_SHAPE,
) -> list[tuple[int, int]]:
    """Corners of the ``n_blocks`` brightest non-overlapping windows.

    Greedy selection on the summed-area table: take the brightest
    window, suppress everything overlapping it, repeat.  Supports the
    multi-block criterion (the paper takes its blocks "from the area of
    interest"; several scatterers give a better-conditioned search than
    one).
    """
    if n_blocks < 1:
        raise ValueError("need at least one block")
    mag2 = np.abs(np.asarray(image)) ** 2
    nb, nr = mag2.shape
    hb, hr = block_shape
    if nb < hb or nr < hr:
        raise ValueError(f"image {mag2.shape} smaller than block {block_shape}")
    sat = np.zeros((nb + 1, nr + 1))
    sat[1:, 1:] = mag2.cumsum(axis=0).cumsum(axis=1)
    windows = (
        sat[hb:, hr:] - sat[:-hb, hr:] - sat[hb:, :-hr] + sat[:-hb, :-hr]
    ).copy()
    corners: list[tuple[int, int]] = []
    for _ in range(n_blocks):
        if not np.isfinite(windows.max()) or windows.max() <= 0:
            break
        i, j = np.unravel_index(int(np.argmax(windows)), windows.shape)
        corners.append((int(i), int(j)))
        # Suppress every candidate corner overlapping this window.
        i0 = max(0, i - hb + 1)
        j0 = max(0, j - hr + 1)
        windows[i0 : i + hb, j0 : j + hr] = -np.inf
    return corners


def autofocus_search_multi(
    blocks_minus: list[np.ndarray],
    blocks_plus: list[np.ndarray],
    candidates: tuple[Compensation, ...] | None = None,
) -> AutofocusResult:
    """Candidate search scored over several block pairs jointly.

    Each candidate's score is the sum of its criteria over all block
    pairs, so a shift must help *consistently* to win -- better
    conditioned than a single block when scatterers are weak or noisy.
    """
    if len(blocks_minus) != len(blocks_plus) or not blocks_minus:
        raise ValueError("need equal-length, non-empty block lists")
    cands = candidates if candidates is not None else default_candidates()
    crit = np.zeros(len(cands))
    for bm, bp in zip(blocks_minus, blocks_plus):
        crit += np.array([criterion_for(bm, bp, c) for c in cands])
    best = int(np.argmax(crit))
    return AutofocusResult(
        best=cands[best],
        best_criterion=float(crit[best]),
        candidates=tuple(cands),
        criteria=crit,
    )


def estimate_compensation(
    child_minus: np.ndarray,
    child_plus: np.ndarray,
    candidates: tuple[Compensation, ...] | None = None,
    block_shape: tuple[int, int] = BLOCK_SHAPE,
    n_blocks: int = 1,
) -> AutofocusResult:
    """Estimate the compensation between two child subaperture images.

    Finds the brightest block(s) in the combined intensity and runs the
    candidate search on those block pairs -- the "two 6x6 blocks of
    image pixels from the area of interest of the contributing image"
    of paper Section V-C (``n_blocks > 1`` scores several scatterers
    jointly for robustness).
    """
    child_minus = np.asarray(child_minus)
    child_plus = np.asarray(child_plus)
    if child_minus.shape != child_plus.shape:
        raise ValueError("child images must have equal shapes")
    combined = np.abs(child_minus) + np.abs(child_plus)
    if n_blocks == 1:
        corner = brightest_block(combined, block_shape)
        f_minus = extract_block(child_minus, corner, block_shape)
        f_plus = extract_block(child_plus, corner, block_shape)
        return autofocus_search(f_minus, f_plus, candidates)
    corners = top_blocks(combined, n_blocks, block_shape)
    return autofocus_search_multi(
        [extract_block(child_minus, c, block_shape) for c in corners],
        [extract_block(child_plus, c, block_shape) for c in corners],
        candidates,
    )


def shift_stage_data(stage: np.ndarray, comp: Compensation) -> np.ndarray:
    """Apply a compensation to a whole subaperture data array.

    Resamples every beam row of every subaperture in the
    ``(n_sub, beams, ranges)`` stage array by the compensation's range
    component (the beam component is meaningful only within an image
    block, so whole-data compensation uses range only -- consistent
    with the path-error-as-range-shift model).
    """
    if comp.range_shift == 0.0 and comp.range_tilt == 0.0:
        return stage
    n_sub, nb, nr = stage.shape
    flat = stage.reshape(n_sub * nb, nr)
    j = np.arange(nr, dtype=np.float64)
    out = cubic_neville_rows(flat, j + comp.range_shift).astype(stage.dtype)
    return out.reshape(stage.shape)


def ffbp_with_autofocus(
    data: np.ndarray,
    cfg: RadarConfig,
    options: FfbpOptions | None = None,
    candidates: tuple[Compensation, ...] | None = None,
    start_level: int = 1,
    min_beams: int = 8,
    min_gain: float = 0.02,
) -> tuple[np.ndarray, list[AutofocusResult]]:
    """FFBP with an autofocus compensation search before each merge.

    For each merge (from ``start_level`` on, once child images have at
    least ``min_beams`` beams so a 6x6 block exists), estimate the
    relative compensation between the two children of the *brightest*
    parent, then apply half of it to each child group globally before
    combining.  Returns the final stage array and the per-level search
    results.

    This follows the paper's scheme -- criterion calculations before
    every merge, merge base 2 -- in its simplest usable form; the
    point of the case study is the criterion calculation cost, which is
    what the machine kernels meter.
    """
    opts = options or FfbpOptions()
    tree = SubapertureTree(cfg.n_pulses, cfg.spacing, cfg.merge_base)
    stage = initial_stage(data, cfg, opts)
    results: list[AutofocusResult] = []
    for level in range(1, tree.n_stages + 1):
        beams = tree.stage(level).beams
        maps = stage_maps(cfg, tree, level, opts)
        if level >= start_level and beams >= min_beams and stage.shape[0] >= 2:
            minus = stage[0::2].copy()
            plus = stage[1::2].copy()
            # The two child images live in *different* polar frames
            # (their own phase centres), so they are compared as their
            # contributions to the parent grid -- the two summands of
            # eq. 5 -- which the stage maps already give us.  The path
            # error varies along the aperture, so each merge gets its
            # own compensation search; very dim pairs are skipped.
            energies = (
                np.abs(minus).sum(axis=(1, 2)) + np.abs(plus).sum(axis=(1, 2))
            )
            gate = 0.05 * float(energies.max()) if energies.size else 0.0
            for p in range(minus.shape[0]):
                if energies[p] <= gate:
                    continue
                c1 = np.where(
                    maps.valid[0],
                    minus[p][maps.beam_idx[0], maps.range_idx[0]],
                    0,
                )
                c2 = np.where(
                    maps.valid[1],
                    plus[p][maps.beam_idx[1], maps.range_idx[1]],
                    0,
                )
                res = estimate_compensation(c1, c2, candidates)
                results.append(res)
                # Confidence gate: only move the data when the winner
                # beats no-compensation decisively; a flat criterion
                # surface means the block carries no focus information.
                if res.best.range_shift != 0.0 and res.gain() >= min_gain:
                    half = res.best.scaled(0.5)
                    minus[p] = shift_stage_data(
                        minus[p][None], half.scaled(-1.0)
                    )[0]
                    plus[p] = shift_stage_data(plus[p][None], half)[0]
            merged = np.empty_like(stage)
            merged[0::2] = minus
            merged[1::2] = plus
            stage = merged
        stage = combine_children(stage, maps, cfg, opts)
    return stage, results
