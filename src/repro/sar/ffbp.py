"""Fast Factorized Back-Projection (FFBP).

The paper's core algorithm (Section II, ref. [2]): start from one
single-pulse subaperture per pulse (one beam each, low angular
resolution) and iteratively merge ``merge_base`` neighbours into longer
subapertures with proportionally more beams, until a single
full-aperture, full-resolution polar image remains.  With the paper's
1024 pulses and merge base 2 this takes ten iterations and produces the
1024 x 1001 image.

Each merge evaluates, for every parent polar sample ``(r, theta)``, the
positions of the contributing child samples via the cosine theorem
(paper eqs. 1-4, :mod:`repro.geometry.cosine`), looks the children up
with *simplified (nearest-neighbour)* interpolation, and sums them
(element combining, paper eq. 5).  The nearest-neighbour lookups are
what degrade quality versus GBP (paper Fig. 7); ``interpolation=
"bilinear"`` and ``phase_correction=True`` implement the paper's
"could be considerably improved" remark as ablations.

Data layout: a stage is a single contiguous ``(n_subapertures, beams,
n_ranges)`` complex array, which lets a merge be one vectorised gather
-- and lets the SPMD kernel slice parent beams across cores exactly as
the paper partitions the output image (paper Fig. 6).

Performance layer: each merge stage gathers through one table
(:func:`stage_maps`): the nearest-neighbour indices plus only the
stencil the options use, built in one pass from the child coordinates
and memoised process-wide through :mod:`repro.perf`.  The table depends
only on grid geometry, never on the data, so Monte-Carlo repeats, sweep
points and the verify oracles share one build.  Memo hits are
byte-identical to cold builds (asserted by
``tests/perf/test_byte_identity.py``), and
:func:`repro.perf.memo_disabled` restores the uncached behaviour
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.geometry.apertures import SubapertureTree
from repro.geometry.cosine import (
    ChildSample,
    combine_geometry,
    exact_child_geometry,
)
from repro.perf import memo_key, memoize
from repro.sar.config import RadarConfig
from repro.sar.grids import PolarGrid, PolarImage
from repro.signal.interpolation import neville_weights


@dataclass(frozen=True)
class FfbpOptions:
    """Processing options for FFBP.

    Parameters
    ----------
    interpolation:
        ``"nearest"`` (the paper's simplified interpolation),
        ``"bilinear"`` (2-D linear in beam and range), or
        ``"cubic_range"`` (4-point cubic in range, nearest in beam --
        the paper's "more complex interpolation kernels such as cubic
        interpolation" suggestion, applied where it matters most: the
        carrier lives in the range variable).
    phase_correction:
        If True, multiply each nearest-neighbour child sample by the
        residual carrier phase ``exp(j 2 k_c (r_child - r_bin))`` --
        cheap and markedly improves quality; off by default to match
        the paper.  Only valid with ``"nearest"`` (the other kernels
        interpolate the carrier instead).
    dtype:
        Working precision; ``complex64`` matches the paper's 2x32-bit
        pixels (both its Intel and Epiphany paths).
    """

    interpolation: str = "nearest"
    phase_correction: bool = False
    dtype: type = np.complex64

    INTERPOLATIONS = ("nearest", "bilinear", "cubic_range")

    def __post_init__(self) -> None:
        if self.interpolation not in self.INTERPOLATIONS:
            raise ValueError(
                f"interpolation must be one of {self.INTERPOLATIONS}, "
                f"got {self.interpolation!r}"
            )
        if self.phase_correction and self.interpolation != "nearest":
            raise ValueError(
                "phase_correction applies to nearest interpolation, "
                f"not {self.interpolation!r}"
            )


def stage_theta_axis(
    cfg: RadarConfig, tree: SubapertureTree, level: int
) -> np.ndarray:
    """Beam centres of the stage-``level`` subaperture polar grids.

    A subaperture's angular support must exceed the output image window
    by the *parallax margin*: when later merges displace the phase
    centre by up to ``(L - l_level) / 2`` along track, a parent sample
    at the window edge maps to a child angle up to
    ``(L - l_level) / (2 r0)`` radians outside the window.  Without the
    margin, late merges lose their central contributions entirely (the
    child simply never formed those beams).  The final stage has zero
    margin, so the full-aperture grid *is* the image window.

    The beam count stays ``merge_base**level``; the wider span coarsens
    beam spacing, which is admissible while the total span stays below
    the ``lambda / (2 spacing)`` sampling bound (asserted here).
    """
    stage = tree.stage(level)
    margin = stage_theta_margin(cfg, tree, level)
    span = cfg.theta_span + 2.0 * margin
    limit = cfg.wavelength / (2.0 * cfg.spacing)
    if span > limit * (1.0 + 1e-9):
        raise ValueError(
            f"stage {level} angular span {span:.3f} rad exceeds the "
            f"sampling bound lambda/(2 d) = {limit:.3f} rad; use a "
            "narrower theta_span, finer pulse spacing, or longer range"
        )
    n = stage.beams
    lo = cfg.theta_center - 0.5 * span
    k = np.arange(n)
    return lo + (k + 0.5) * (span / n)


def stage_theta_margin(
    cfg: RadarConfig, tree: SubapertureTree, level: int
) -> float:
    """Parallax margin of stage ``level``: ``(L - l_level) / (2 r0)``."""
    stage = tree.stage(level)
    return max(0.0, (tree.final.length - stage.length) / (2.0 * cfg.r0))


@dataclass(frozen=True)
class StageMaps:
    """The gather table of one merge stage for one set of options.

    Every table holds, for every parent sample ``(beam k, range j)`` and
    every child ``c``, the nearest child beam/range bin indices and a
    validity mask (out-of-range contributions are skipped -- the
    paper's "skip the additions with zero" optimisation).  On top of
    that it holds only the stencil the options gather with:

    - ``phase``: nearest with ``phase_correction``, the residual carrier
      factors ``exp(j 2 k_c (r_child - r_bin))`` in the working dtype;
    - ``bl_*``: bilinear, the corner indices and fractional weights;
    - ``cu_*``: cubic_range, the 4-tap range stencil and Neville
      weights (nearest in beam).

    All arrays have shape ``(n_children, parent_beams, n_ranges)``
    (cubic tables add a trailing ``4`` axis); unused stencils are None.
    """

    beam_idx: np.ndarray
    range_idx: np.ndarray
    valid: np.ndarray
    phase: np.ndarray | None = None
    bl_ib: np.ndarray | None = None
    bl_ir: np.ndarray | None = None
    bl_ib1: np.ndarray | None = None
    bl_ir1: np.ndarray | None = None
    bl_tb: np.ndarray | None = None
    bl_tr: np.ndarray | None = None
    cu_taps: np.ndarray | None = None
    cu_w: np.ndarray | None = None

    @property
    def n_children(self) -> int:
        return self.beam_idx.shape[0]

    @property
    def parent_shape(self) -> tuple[int, int]:
        return self.beam_idx.shape[1:]


def _tree_sig(tree: SubapertureTree) -> tuple:
    """The value identity of a subaperture tree (its constructor args)."""
    return (tree.n_pulses, tree.spacing, tree.merge_base, tree.x0)


def stage_maps(
    cfg: RadarConfig,
    tree: SubapertureTree,
    parent_level: int,
    options: FfbpOptions | None = None,
) -> StageMaps:
    """The gather table of one merge stage for ``options``.

    The table depends only on the stage geometry, not on which parent
    subaperture is being formed, so it is shared by every merge of the
    stage (and by every core in the SPMD kernel).  ``options`` selects
    the stencil built next to the nearest-neighbour indices (see
    :class:`StageMaps`); the default is the paper's plain nearest.

    Results are memoised per process (see :mod:`repro.perf`), keyed on
    the geometry and the stencil only -- the dtype enters the key only
    when it shapes the ``phase`` table.  Cached tables are read-only; a
    memo hit is byte-identical to a cold build.
    """
    opts = options or FfbpOptions()
    stencil = (
        ("phase", np.dtype(opts.dtype).name)
        if opts.phase_correction
        else opts.interpolation
    )
    payload = (cfg, _tree_sig(tree), parent_level, stencil)
    return memoize(
        memo_key("ffbp/stage-maps", payload),
        lambda: _build_stage_maps(cfg, tree, parent_level, opts),
    )


def child_axis(
    cfg: RadarConfig, tree: SubapertureTree, parent_level: int
) -> tuple[float, float]:
    """``(theta0, dtheta)``: first centre and spacing of the child beam
    axis of merge stage ``parent_level``.

    A single-beam child (stage 0) spans the whole stage-0 window, so
    its "spacing" is that span."""
    child = tree.stage(parent_level - 1)
    axis = stage_theta_axis(cfg, tree, parent_level - 1)
    dtheta = (
        float(axis[1] - axis[0])
        if child.beams > 1
        else cfg.theta_span + 2.0 * stage_theta_margin(cfg, tree, 0)
    )
    return float(axis[0]), dtheta


def child_samples(
    cfg: RadarConfig,
    tree: SubapertureTree,
    parent_level: int,
    theta: np.ndarray,
) -> list[ChildSample]:
    """Child polar coordinates of the parent samples ``range_axis x theta``.

    ``theta`` is a column ``(K', 1)`` of parent beam centres (all of
    them, or a chunk); each returned sample broadcasts to ``(K', J)``.
    For merge base 2 the coordinates come from the paper's eqs. 1-4;
    for other bases the equivalent direct coordinate transform is used
    (the two agree for base 2; see tests).  Every operation is
    elementwise, so a chunk of beams yields exactly the rows the full
    axis would.
    """
    r = cfg.range_axis()[None, :]  # (1, J)
    if tree.merge_base == 2:
        geom = combine_geometry(r, theta, l=tree.stage(parent_level - 1).length)
        return [geom.first, geom.second]
    return [
        exact_child_geometry(r, theta, off)
        for off in tree.child_offsets(parent_level)
    ]


def nearest_child_bins(
    s: ChildSample,
    cfg: RadarConfig,
    theta0: float,
    dtheta: float,
    child_beams: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nearest-neighbour index rule: ``(beam_idx, range_idx, valid)``.

    Rounds the fractional child beam/range positions of ``s`` to the
    nearest bin, marks lookups that fall outside the child grid as
    invalid (the paper's "skip the additions with zero"), and clips the
    indices into the grid so invalid lookups still gather safely.  The
    image path (:func:`stage_maps`) and the kernel cost planner both
    apply this one rule.
    """
    fb = np.subtract(s.theta, theta0)
    fb /= dtheta
    ib = np.rint(fb, out=fb).astype(np.int64)
    fr = np.subtract(s.r, cfg.r0)
    fr /= cfg.dr
    ir = np.rint(fr, out=fr).astype(np.int64)
    # Viewed as unsigned, a negative index wraps past every bound, so
    # one comparison per axis tests ``0 <= i < n``.
    ok = (ib.view(np.uint64) < child_beams) & (ir.view(np.uint64) < cfg.n_ranges)
    np.clip(ib, 0, child_beams - 1, out=ib)
    np.clip(ir, 0, cfg.n_ranges - 1, out=ir)
    return ib, ir, ok


def _build_stage_maps(
    cfg: RadarConfig,
    tree: SubapertureTree,
    parent_level: int,
    options: FfbpOptions,
) -> StageMaps:
    """Cold build of :func:`stage_maps`: eqs. 1-4 once per child, then
    the index rule and the selected stencil straight from the child
    coordinates, which are dropped afterwards."""
    child_beams = tree.stage(parent_level - 1).beams
    theta0, dtheta = child_axis(cfg, tree, parent_level)
    theta = stage_theta_axis(cfg, tree, parent_level)[:, None]  # (K, 1)
    n_ranges = cfg.n_ranges
    k2 = 2.0 * cfg.wavenumber

    columns: dict[str, list[np.ndarray]] = {}
    for s in child_samples(cfg, tree, parent_level, theta):
        ib, ir, ok = nearest_child_bins(s, cfg, theta0, dtheta, child_beams)
        row = {"beam_idx": ib, "range_idx": ir, "valid": ok}
        if options.phase_correction:
            residual = s.r - (cfg.r0 + ir * cfg.dr)
            row["phase"] = np.exp(1j * k2 * residual).astype(options.dtype)
        elif options.interpolation == "bilinear":
            fb = (np.broadcast_to(s.theta, ok.shape) - theta0) / dtheta
            fr = (np.broadcast_to(s.r, ok.shape) - cfg.r0) / cfg.dr
            ib0 = np.clip(np.floor(fb).astype(np.int64), 0, max(child_beams - 2, 0))
            ir0 = np.clip(np.floor(fr).astype(np.int64), 0, max(n_ranges - 2, 0))
            row.update(
                bl_ib=ib0,
                bl_ir=ir0,
                bl_ib1=np.minimum(ib0 + 1, child_beams - 1),
                bl_ir1=np.minimum(ir0 + 1, n_ranges - 1),
                bl_tb=np.clip(fb - ib0, 0.0, 1.0),
                bl_tr=np.clip(fr - ir0, 0.0, 1.0),
            )
        elif options.interpolation == "cubic_range":
            # 4-point Lagrange stencil in range, nearest in beam.
            fr = (np.broadcast_to(s.r, ok.shape) - cfg.r0) / cfg.dr
            i0 = np.clip(np.floor(fr).astype(np.int64), 1, max(n_ranges - 3, 1))
            row["cu_taps"] = np.clip(
                i0[..., None] + np.arange(-1, 3, dtype=np.int64), 0, n_ranges - 1
            )
            row["cu_w"] = neville_weights(fr - i0)
        for name, arr in row.items():
            columns.setdefault(name, []).append(arr)
    return StageMaps(**{name: np.stack(arrs) for name, arrs in columns.items()})


def combine_children(
    children: np.ndarray,
    maps: StageMaps,
    cfg: RadarConfig,
    options: FfbpOptions,
    beam_slice: slice = slice(None),
) -> np.ndarray:
    """Element combining (paper eq. 5) for one stage.

    Parameters
    ----------
    children:
        Child stage data, shape ``(n_sub_child, child_beams, n_ranges)``.
        Consecutive groups of ``n_children`` children form one parent.
    maps:
        The stage's gather table from :func:`stage_maps`, built for
        the same ``options``.
    beam_slice:
        Parent beams to produce (the SPMD kernel's unit of
        partitioning); default all.

    Returns
    -------
    Parent data, shape ``(n_sub_parent, len(beam_slice), n_ranges)``.

    Notes
    -----
    The nearest-neighbour path (the paper's configuration) gathers all
    ``n_children`` contributions in a single vectorised advanced-index
    over the contiguous child array instead of one gather per child;
    the per-element arithmetic and the child accumulation order are
    unchanged, so the result is bit-identical to the historical loop.
    """
    b = maps.n_children
    n_child = children.shape[0]
    if n_child % b != 0:
        raise ValueError(
            f"{n_child} child subapertures not divisible by merge base {b}"
        )
    if options.interpolation == "nearest":
        out = _combine_nearest(children, maps, options, beam_slice)
    else:
        out = None
        for c in range(b):
            group = children[c::b]  # (n_parent, child_beams, J)
            ok = maps.valid[c, beam_slice]
            if options.interpolation == "bilinear":
                contrib = _bilinear_lookup(group, maps, c, beam_slice)
            else:
                contrib = _cubic_range_lookup(group, maps, c, beam_slice)
            contrib = np.where(ok, contrib, 0)
            out = contrib if out is None else out + contrib
    return np.ascontiguousarray(out.astype(options.dtype, copy=False))


def _combine_nearest(
    children: np.ndarray,
    maps: StageMaps,
    options: FfbpOptions,
    beam_slice: slice,
) -> np.ndarray:
    """All-children nearest-neighbour gather (one advanced index).

    ``children.reshape(n_parent, b, ...)`` is a zero-copy view of the
    contiguous stage array (consecutive groups of ``b`` children form
    one parent), so the whole merge is one gather producing
    ``(n_parent, b, K, J)``; children then accumulate in index order,
    exactly as the per-child loop did.
    """
    b = maps.n_children
    n_parent = children.shape[0] // b
    grouped = children.reshape(
        n_parent, b, children.shape[1], children.shape[2]
    )
    ib = maps.beam_idx[:, beam_slice]  # (b, K', J)
    ir = maps.range_idx[:, beam_slice]
    ok = maps.valid[:, beam_slice]
    cidx = np.arange(b)[:, None, None]
    contrib = grouped[:, cidx, ib, ir]  # (n_parent, b, K', J)
    if options.phase_correction:
        contrib = contrib * maps.phase[:, beam_slice]
    contrib = np.where(ok, contrib, 0)
    out = contrib[:, 0]
    for c in range(1, b):
        out = out + contrib[:, c]
    return out


def _bilinear_lookup(
    group: np.ndarray,
    maps: StageMaps,
    c: int,
    beam_slice: slice,
) -> np.ndarray:
    """2-D linear interpolation in (beam, range) of the child data."""
    ib = maps.bl_ib[c, beam_slice]
    ir = maps.bl_ir[c, beam_slice]
    ib1 = maps.bl_ib1[c, beam_slice]
    ir1 = maps.bl_ir1[c, beam_slice]
    tb = maps.bl_tb[c, beam_slice]
    tr = maps.bl_tr[c, beam_slice]
    return (
        group[:, ib, ir] * (1 - tb) * (1 - tr)
        + group[:, ib, ir1] * (1 - tb) * tr
        + group[:, ib1, ir] * tb * (1 - tr)
        + group[:, ib1, ir1] * tb * tr
    )


def _cubic_range_lookup(
    group: np.ndarray,
    maps: StageMaps,
    c: int,
    beam_slice: slice,
) -> np.ndarray:
    """Cubic (4-point Lagrange) in range, nearest in beam.

    The paper's suggested quality upgrade: the carrier oscillates along
    range, so a cubic range kernel recovers most of the fidelity the
    nearest-neighbour lookup loses, at 4 taps instead of 1.  The four
    taps are fetched in a single gather against the cached stencil
    table; the weighted accumulation keeps the historical tap order,
    so results are bit-identical to the per-tap loop.
    """
    ib = maps.beam_idx[c, beam_slice]
    taps = maps.cu_taps[c, beam_slice]  # (K', J, 4)
    w = maps.cu_w[c, beam_slice]
    vals = group[:, ib[..., None], taps]  # (n_parent, K', J, 4)
    out = vals[..., 0] * w[..., 0]
    for tap in range(1, 4):
        out = out + vals[..., tap] * w[..., tap]
    return out


def initial_stage(data: np.ndarray, cfg: RadarConfig, options: FfbpOptions) -> np.ndarray:
    """Stage-0 subaperture set: one single-beam subaperture per pulse."""
    data = np.asarray(data)
    if data.shape != (cfg.n_pulses, cfg.n_ranges):
        raise ValueError(
            f"data shape {data.shape} != ({cfg.n_pulses}, {cfg.n_ranges})"
        )
    return data.reshape(cfg.n_pulses, 1, cfg.n_ranges).astype(options.dtype)


def ffbp_stages(
    data: np.ndarray,
    cfg: RadarConfig,
    options: FfbpOptions | None = None,
    tree: SubapertureTree | None = None,
) -> Iterator[np.ndarray]:
    """Iterate the FFBP stage arrays, yielding after every merge.

    Yields the stage-0 array first, then each merged stage up to the
    full aperture.  This is the entry point for autofocus (which
    inspects child images before a merge) and for the machine kernels.
    """
    opts = options or FfbpOptions()
    tr = tree or SubapertureTree(cfg.n_pulses, cfg.spacing, cfg.merge_base)
    stage = initial_stage(data, cfg, opts)
    yield stage
    for level in range(1, tr.n_stages + 1):
        maps = stage_maps(cfg, tr, level, opts)
        stage = combine_children(stage, maps, cfg, opts)
        yield stage


def ffbp(
    data: np.ndarray,
    cfg: RadarConfig,
    options: FfbpOptions | None = None,
) -> PolarImage:
    """Run full FFBP and return the final polar image.

    Parameters
    ----------
    data:
        Pulse-compressed data, shape ``(n_pulses, n_ranges)``.
    cfg:
        Radar configuration.
    options:
        Interpolation / precision options; defaults to the paper's
        nearest-neighbour complex64 processing.
    """
    *_, final = ffbp_stages(data, cfg, options)
    grid = PolarGrid(
        center=cfg.aperture_center(),
        r=cfg.range_axis(),
        theta=cfg.theta_axis(cfg.n_pulses),
    )
    return PolarImage(grid=grid, data=final[0])


def ffbp_partial(
    data: np.ndarray,
    cfg: RadarConfig,
    to_level: int,
    options: FfbpOptions | None = None,
) -> np.ndarray:
    """Run FFBP up to ``to_level`` merges and return that stage array.

    Used by autofocus, which needs the contributing subaperture images
    *before* a merge.
    """
    tr = SubapertureTree(cfg.n_pulses, cfg.spacing, cfg.merge_base)
    if not 0 <= to_level <= tr.n_stages:
        raise ValueError(f"to_level must be in [0, {tr.n_stages}], got {to_level}")
    for level, stage in enumerate(ffbp_stages(data, cfg, options, tree=tr)):
        if level == to_level:
            return stage
    raise AssertionError("unreachable")


def subaperture_image(
    stage: np.ndarray,
    cfg: RadarConfig,
    tree: SubapertureTree,
    level: int,
    index: int,
) -> PolarImage:
    """Wrap one subaperture of a stage array as a polar image."""
    st = tree.stage(level)
    grid = PolarGrid(
        center=np.array([st.center_of(index), 0.0]),
        r=cfg.range_axis(),
        theta=stage_theta_axis(cfg, tree, level),
    )
    return PolarImage(grid=grid, data=stage[index])
