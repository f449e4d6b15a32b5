"""Multi-chip sharding of the SAR workloads (numeric layer).

Green et al.'s parallel-covariance decomposition (PAPERS.md) motivates
the contract implemented here: split the work into shard-local pieces
whose partial results merge deterministically, so the sharded run is
**byte-identical** to the serial one.  Both SAR workloads admit such a
decomposition:

- **FFBP** (:func:`sharded_ffbp_array`): the subaperture tree's first
  ``n_stages - log_base(n_shards)`` merge levels only ever combine
  pulses *within* a contiguous block of ``n_pulses / n_shards`` pulses,
  so each chip runs them independently on its pulse block.  The stage
  gather tables (:func:`repro.sar.ffbp.stage_maps`) are parent-independent
  -- shape ``(n_children, parent_beams, n_ranges)`` with no per-parent
  axis -- and element combining is elementwise per parent, so a shard's
  stage array is exactly the corresponding slice of the serial stage
  array.  Concatenating the shard blocks (in shard order) reproduces
  the serial array bit-for-bit, and the remaining ``log_base(n_shards)``
  top-level merges run on the merged array unchanged.  **Every shard
  uses the full aperture's tree and maps** -- a per-shard sub-tree
  would change the parallax margins and break identity.

- **Strip-map** (:func:`sharded_strip_frames`): frames are independent
  apertures; chips take contiguous sub-swaths of frame indices and the
  mosaic stitch (:func:`repro.sar.strip.stitch_frames`) sorts frames by
  index before stitching, so the mosaic is order-independent.

This module is pure NumPy -- the timing/energy side of the same
decomposition lives in :mod:`repro.kernels.ffbp_fabric`.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.apertures import SubapertureTree
from repro.sar.config import RadarConfig
from repro.sar.ffbp import (
    FfbpOptions,
    combine_children,
    stage_maps,
    stage_theta_axis,
)
from repro.sar.grids import CartesianImage, PolarGrid, PolarImage
from repro.sar.strip import StripFrame, StripProcessor, stitch_frames

__all__ = [
    "check_ffbp",
    "shard_boundary_level",
    "sharded_ffbp_array",
    "sharded_ffbp",
    "sharded_strip_frames",
    "sharded_strip_mosaic",
]


def shard_boundary_level(tree: SubapertureTree, n_shards: int) -> int:
    """Highest merge level chips can run independently.

    With ``n_shards = base**k`` shards over ``n_pulses = base**S``
    pulses, levels ``1..S-k`` merge only within one shard's contiguous
    pulse block (each shard ends the local phase holding exactly one
    stage-``(S-k)`` subaperture); levels ``S-k+1..S`` cross shard
    boundaries and run after the merge.  Raises for shard counts that
    are not powers of ``merge_base`` or that exceed the subaperture
    count -- those cannot shard on whole-subaperture boundaries.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    base = tree.merge_base
    k, n = 0, 1
    while n < n_shards:
        n *= base
        k += 1
    if n != n_shards:
        raise ValueError(
            f"n_shards must be a power of merge base {base}, got {n_shards}"
        )
    if k > tree.n_stages:
        raise ValueError(
            f"{n_shards} shards need at least {n_shards} pulses; "
            f"tree has {tree.n_pulses}"
        )
    return tree.n_stages - k


def check_ffbp(
    cfg: RadarConfig,
    n_shards: int = 1,
    interpolation: str = "nearest",
    phase_correction: bool = False,
) -> None:
    """Check that FFBP can form an image of ``cfg`` on ``n_shards`` chips.

    Raises the kernels' own ``ValueError`` (naming the bound) when
    :func:`sharded_ffbp` could not form the image: pulses not a power
    of the merge base (:class:`SubapertureTree`), a stage window past
    the sampling bound (:func:`~repro.sar.ffbp.stage_theta_axis` at
    level 0, whose parallax margin is the widest, so it bounds every
    level), a shard count that does not split the tree
    (:func:`shard_boundary_level`), or an option combination
    :class:`~repro.sar.ffbp.FfbpOptions` refuses.  Cheap: no merge
    geometry is evaluated.
    """
    FfbpOptions(interpolation=interpolation, phase_correction=phase_correction)
    tree = SubapertureTree(cfg.n_pulses, cfg.spacing, cfg.merge_base)
    stage_theta_axis(cfg, tree, 0)
    shard_boundary_level(tree, n_shards)


def sharded_ffbp_array(
    data: np.ndarray,
    cfg: RadarConfig,
    n_shards: int,
    options: FfbpOptions | None = None,
    tree: SubapertureTree | None = None,
) -> np.ndarray:
    """FFBP final stage array via shard-local merges + top-level merge.

    Returns the final ``(1, beams, n_ranges)`` stage array,
    byte-identical to the serial :func:`repro.sar.ffbp.ffbp_stages`
    result (asserted by the fabric identity oracle).
    """
    opts = options or FfbpOptions()
    tr = tree or SubapertureTree(cfg.n_pulses, cfg.spacing, cfg.merge_base)
    boundary = shard_boundary_level(tr, n_shards)
    data = np.asarray(data)
    if data.shape != (cfg.n_pulses, cfg.n_ranges):
        raise ValueError(
            f"data shape {data.shape} != ({cfg.n_pulses}, {cfg.n_ranges})"
        )
    pulses_per_shard = cfg.n_pulses // n_shards

    # Phase 1: each shard runs levels 1..boundary on its pulse block,
    # against the FULL aperture's stage maps.
    blocks = []
    for s in range(n_shards):
        lo = s * pulses_per_shard
        block = data[lo : lo + pulses_per_shard]
        stage = block.reshape(pulses_per_shard, 1, cfg.n_ranges).astype(
            opts.dtype
        )
        for level in range(1, boundary + 1):
            maps = stage_maps(cfg, tr, level, opts)
            stage = combine_children(stage, maps, opts)
        blocks.append(stage)

    # Phase 2: deterministic merge (shard order == subaperture order),
    # then the cross-shard top levels.
    stage = blocks[0] if n_shards == 1 else np.concatenate(blocks, axis=0)
    for level in range(boundary + 1, tr.n_stages + 1):
        maps = stage_maps(cfg, tr, level, opts)
        stage = combine_children(stage, maps, opts)
    return stage


def sharded_ffbp(
    data: np.ndarray,
    cfg: RadarConfig,
    n_shards: int,
    options: FfbpOptions | None = None,
) -> PolarImage:
    """Sharded FFBP returning the final polar image (cf. ``ffbp``)."""
    final = sharded_ffbp_array(data, cfg, n_shards, options)
    grid = PolarGrid(
        center=cfg.aperture_center(),
        r=cfg.range_axis(),
        theta=cfg.theta_axis(cfg.n_pulses),
    )
    return PolarImage(grid=grid, data=final[0])


def sharded_strip_frames(
    processor: StripProcessor,
    data: np.ndarray,
    n_shards: int,
) -> list[list[StripFrame]]:
    """Partition a data take's frames into per-shard sub-swaths.

    Shard ``s`` forms the contiguous frame block
    ``[s * ceil(n/F), ...)``; every frame goes through the same
    :meth:`StripProcessor.frame_at` code path as the serial iterator.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    data = processor._check(np.asarray(data))
    n = processor.n_frames(data.shape[0])
    per = -(-n // n_shards) if n else 0  # ceil
    shards: list[list[StripFrame]] = []
    for s in range(n_shards):
        lo = min(s * per, n)
        hi = min(lo + per, n)
        shards.append([processor.frame_at(data, k) for k in range(lo, hi)])
    return shards


def sharded_strip_mosaic(
    cfg: RadarConfig,
    data: np.ndarray,
    n_shards: int,
    hop: int | None = None,
    options: FfbpOptions | None = None,
    pixels_per_meter: float = 0.25,
) -> CartesianImage:
    """Sub-swath-sharded strip mosaic, byte-identical to the serial one.

    Chips form disjoint frame blocks; the stitch sorts by frame index,
    so the mosaic equals :meth:`StripProcessor.mosaic` bit-for-bit.
    """
    proc = StripProcessor(cfg, hop=hop, options=options)
    shards = sharded_strip_frames(proc, data, n_shards)
    frames = [f for shard in shards for f in shard]
    return stitch_frames(cfg, frames, data.shape[0], pixels_per_meter)
