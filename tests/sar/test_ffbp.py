"""Tests for fast factorized back-projection."""

import numpy as np
import pytest

from repro.geometry.apertures import SubapertureTree
from repro.sar.config import RadarConfig
from repro.sar.ffbp import (
    FfbpOptions,
    combine_children,
    ffbp,
    ffbp_partial,
    ffbp_stages,
    initial_stage,
    stage_maps,
    subaperture_image,
)
from repro.sar.gbp import gbp_polar


class TestFfbpOptions:
    def test_defaults_match_paper(self):
        opts = FfbpOptions()
        assert opts.interpolation == "nearest"
        assert opts.phase_correction is False
        assert opts.dtype == np.complex64

    def test_invalid_interpolation(self):
        with pytest.raises(ValueError):
            FfbpOptions(interpolation="spline")

    @pytest.mark.parametrize("interpolation", ["bilinear", "cubic_range"])
    def test_phase_correction_needs_nearest(self, interpolation):
        with pytest.raises(ValueError, match="phase_correction applies"):
            FfbpOptions(interpolation=interpolation, phase_correction=True)


class TestStageMaps:
    def test_shapes(self, small_cfg):
        tree = SubapertureTree(small_cfg.n_pulses, small_cfg.spacing)
        maps = stage_maps(small_cfg, tree, 1)
        assert maps.beam_idx.shape == (2, 2, small_cfg.n_ranges)
        assert maps.n_children == 2
        assert maps.parent_shape == (2, small_cfg.n_ranges)

    def test_indices_in_bounds(self, small_cfg):
        tree = SubapertureTree(small_cfg.n_pulses, small_cfg.spacing)
        for level in range(1, tree.n_stages + 1):
            maps = stage_maps(small_cfg, tree, level)
            child = tree.stage(level - 1)
            assert maps.beam_idx.min() >= 0
            assert maps.beam_idx.max() < child.beams
            assert maps.range_idx.min() >= 0
            assert maps.range_idx.max() < small_cfg.n_ranges

    def test_stage1_mostly_valid(self, small_cfg):
        """With a narrow angular window and small l, nearly all stage-1
        lookups are in range."""
        tree = SubapertureTree(small_cfg.n_pulses, small_cfg.spacing)
        maps = stage_maps(small_cfg, tree, 1)
        assert maps.valid.mean() > 0.95

    def test_stencil_fields_follow_options(self, small_cfg):
        """Each stencil is present if and only if the options gather
        with it; the nearest indices are always there."""
        tree = SubapertureTree(small_cfg.n_pulses, small_cfg.spacing)
        stencils = {
            "phase": ("phase",),
            "bilinear": ("bl_ib", "bl_ir", "bl_ib1", "bl_ir1", "bl_tb", "bl_tr"),
            "cubic_range": ("cu_taps", "cu_w"),
        }
        for options, used in (
            (None, ()),
            (FfbpOptions(dtype=np.complex128), ()),
            (FfbpOptions(phase_correction=True), ("phase",)),
            (FfbpOptions(interpolation="bilinear"), ("bilinear",)),
            (FfbpOptions(interpolation="cubic_range"), ("cubic_range",)),
        ):
            maps = stage_maps(small_cfg, tree, 1, options)
            for field in ("beam_idx", "range_idx", "valid"):
                assert getattr(maps, field).shape == (2, 2, small_cfg.n_ranges)
            for stencil, fields in stencils.items():
                for field in fields:
                    present = getattr(maps, field) is not None
                    assert present == (stencil in used), (options, field)
        phase = stage_maps(small_cfg, tree, 1, FfbpOptions(phase_correction=True))
        assert phase.phase.dtype == np.complex64
        assert phase.phase.shape == phase.beam_idx.shape
        cubic = stage_maps(
            small_cfg, tree, 1, FfbpOptions(interpolation="cubic_range")
        )
        assert cubic.cu_taps.shape == cubic.beam_idx.shape + (4,)

    def test_base4_uses_exact_transform(self):
        cfg = RadarConfig.small(n_pulses=16).with_(merge_base=4)
        tree = SubapertureTree(16, cfg.spacing, merge_base=4)
        maps = stage_maps(cfg, tree, 1)
        assert maps.n_children == 4


class TestCombineChildren:
    def test_sums_two_children(self, small_cfg):
        tree = SubapertureTree(small_cfg.n_pulses, small_cfg.spacing)
        opts = FfbpOptions()
        rng = np.random.default_rng(0)
        children = (
            rng.standard_normal((small_cfg.n_pulses, 1, small_cfg.n_ranges))
            + 1j * rng.standard_normal((small_cfg.n_pulses, 1, small_cfg.n_ranges))
        ).astype(np.complex64)
        maps = stage_maps(small_cfg, tree, 1)
        out = combine_children(children, maps, opts)
        assert out.shape == (small_cfg.n_pulses // 2, 2, small_cfg.n_ranges)
        # Manual check for one sample.
        k, j = 1, small_cfg.n_ranges // 2
        want = 0.0 + 0.0j
        for c in range(2):
            if maps.valid[c, k, j]:
                want += children[c, maps.beam_idx[c, k, j], maps.range_idx[c, k, j]]
        assert out[0, k, j] == pytest.approx(want, rel=1e-6)

    def test_beam_slice_matches_full(self, small_cfg):
        tree = SubapertureTree(small_cfg.n_pulses, small_cfg.spacing)
        opts = FfbpOptions()
        rng = np.random.default_rng(1)
        children = rng.standard_normal(
            (small_cfg.n_pulses, 1, small_cfg.n_ranges)
        ).astype(np.complex64)
        maps = stage_maps(small_cfg, tree, 1)
        full = combine_children(children, maps, opts)
        part = combine_children(
            children, maps, opts, beam_slice=slice(1, 2)
        )
        assert np.array_equal(part, full[:, 1:2])

    def test_merge_base_mismatch_rejected(self, small_cfg):
        tree = SubapertureTree(small_cfg.n_pulses, small_cfg.spacing)
        maps = stage_maps(small_cfg, tree, 1)
        bad = np.zeros((5, 1, small_cfg.n_ranges), dtype=np.complex64)
        with pytest.raises(ValueError):
            combine_children(bad, maps, FfbpOptions())


class TestFfbpPipeline:
    def test_initial_stage_shape(self, small_cfg, center_data):
        st0 = initial_stage(center_data, small_cfg, FfbpOptions())
        assert st0.shape == (small_cfg.n_pulses, 1, small_cfg.n_ranges)
        assert st0.dtype == np.complex64

    def test_initial_stage_validates_shape(self, small_cfg):
        with pytest.raises(ValueError):
            initial_stage(np.zeros((4, 4)), small_cfg, FfbpOptions())

    def test_stage_progression(self, small_cfg, center_data):
        stages = list(ffbp_stages(center_data, small_cfg))
        tree = SubapertureTree(small_cfg.n_pulses, small_cfg.spacing)
        assert len(stages) == tree.n_stages + 1
        for level, stage in enumerate(stages):
            st = tree.stage(level)
            assert stage.shape == (st.n_subapertures, st.beams, small_cfg.n_ranges)

    def test_total_samples_invariant(self, small_cfg, center_data):
        """Every stage holds exactly n_pulses x n_ranges samples."""
        for stage in ffbp_stages(center_data, small_cfg):
            assert stage.size == small_cfg.n_pulses * small_cfg.n_ranges

    def test_focuses_point_target(self, small_cfg, center_data):
        img = ffbp(center_data, small_cfg)
        center = small_cfg.scene_center()
        fb, fr = img.grid.locate(center)
        pb, pr = img.peak_pixel()
        assert abs(pb - fb) <= 2.0
        assert abs(pr - fr) <= 2.0

    def test_peak_close_to_gbp(self, small_cfg, center_data):
        """FFBP loses some coherent gain to NN interpolation but stays
        within ~30% of the GBP peak (paper: similar images, lower
        quality)."""
        img_f = ffbp(center_data, small_cfg)
        img_g = gbp_polar(np.asarray(center_data, np.complex128), small_cfg)
        ratio = img_f.magnitude.max() / img_g.magnitude.max()
        assert 0.7 < ratio < 1.1

    def test_intel_and_epiphany_paths_agree(self, small_cfg, six_data):
        """Paper: 'the qualities of the resultant images on the Intel
        and Epiphany architectures are similar' -- complex128 vs
        complex64 give the same image to float32 precision."""
        a = ffbp(six_data, small_cfg, FfbpOptions(dtype=np.complex128))
        b = ffbp(six_data, small_cfg, FfbpOptions(dtype=np.complex64))
        peak = np.abs(a.data).max()
        assert np.allclose(a.data, b.data, atol=1e-3 * peak)

    def test_phase_correction_improves_peak(self, small_cfg, center_data):
        plain = ffbp(center_data, small_cfg, FfbpOptions())
        corrected = ffbp(
            center_data, small_cfg, FfbpOptions(phase_correction=True)
        )
        assert corrected.magnitude.max() > plain.magnitude.max()

    def test_bilinear_beats_nearest_fidelity(self, small_cfg, center_data):
        """The paper's 'more complex interpolation kernels' remark:
        bilinear tracks the GBP image more closely than NN."""
        from repro.sar.quality import normalized_rmse

        gbp_img = gbp_polar(np.asarray(center_data, np.complex128), small_cfg)
        nn = ffbp(center_data, small_cfg, FfbpOptions(interpolation="nearest"))
        bl = ffbp(center_data, small_cfg, FfbpOptions(interpolation="bilinear"))
        assert normalized_rmse(bl.data, gbp_img.data) < normalized_rmse(
            nn.data, gbp_img.data
        )

    def test_cubic_range_beats_nearest_fidelity(self, small_cfg, center_data):
        """The paper's named upgrade: cubic interpolation in range."""
        from repro.sar.quality import normalized_rmse

        gbp_img = gbp_polar(np.asarray(center_data, np.complex128), small_cfg)
        nn = ffbp(center_data, small_cfg, FfbpOptions(interpolation="nearest"))
        cu = ffbp(
            center_data, small_cfg, FfbpOptions(interpolation="cubic_range")
        )
        assert normalized_rmse(cu.data, gbp_img.data) < normalized_rmse(
            nn.data, gbp_img.data
        )

    def test_cubic_range_still_focuses(self, small_cfg, center_data):
        img = ffbp(
            center_data, small_cfg, FfbpOptions(interpolation="cubic_range")
        )
        center = small_cfg.scene_center()
        fb, fr = img.grid.locate(center)
        pb, pr = img.peak_pixel()
        assert abs(pb - fb) <= 2.0 and abs(pr - fr) <= 2.0

    def test_partial_levels(self, small_cfg, center_data):
        tree = SubapertureTree(small_cfg.n_pulses, small_cfg.spacing)
        mid = tree.n_stages // 2
        stage = ffbp_partial(center_data, small_cfg, mid)
        st = tree.stage(mid)
        assert stage.shape == (st.n_subapertures, st.beams, small_cfg.n_ranges)

    def test_partial_level_bounds(self, small_cfg, center_data):
        with pytest.raises(ValueError):
            ffbp_partial(center_data, small_cfg, 99)

    def test_subaperture_image_wrapper(self, small_cfg, center_data):
        tree = SubapertureTree(small_cfg.n_pulses, small_cfg.spacing)
        stage = ffbp_partial(center_data, small_cfg, 2)
        img = subaperture_image(stage, small_cfg, tree, 2, 0)
        assert img.data.shape == (4, small_cfg.n_ranges)
        assert img.grid.center[0] == pytest.approx(tree.stage(2).center_of(0))

    def test_merge_base_4_runs(self):
        cfg = RadarConfig.small(n_pulses=16, n_ranges=65).with_(merge_base=4)
        from repro.geometry.scene import Scene
        from repro.sar.simulate import simulate_compressed

        c = cfg.scene_center()
        data = simulate_compressed(cfg, Scene.single(c[0], c[1]))
        img = ffbp(data, cfg)
        assert img.data.shape == (16, 65)
        assert img.magnitude.max() > 0.4 * cfg.n_pulses
