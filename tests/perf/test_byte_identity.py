"""Byte identity of the performance layer.

The memo and the vectorised kernels are *plumbing*: every cached or
batched path must produce bit-for-bit the arrays (and, on the machine
side, the exact integer cycle counts) the pre-performance-layer code
produced.  These tests compare the live paths against
``memo_disabled()`` cold builds and against scalar reference loops.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.geometry.apertures import SubapertureTree
from repro.perf import clear_memo, memo_disabled, memo_stats
from repro.sar.config import RadarConfig
from repro.sar.ffbp import FfbpOptions, ffbp, stage_maps
from repro.signal.interpolation import cubic_neville, cubic_neville_rows


@pytest.fixture(autouse=True)
def _fresh_memo():
    clear_memo()
    yield
    clear_memo()


@pytest.fixture(scope="module")
def tiny_data(tiny_cfg):
    from repro.geometry.scene import Scene
    from repro.sar.simulate import simulate_compressed

    c = tiny_cfg.scene_center()
    return simulate_compressed(tiny_cfg, Scene.single(float(c[0]), float(c[1])))


def _tree(cfg):
    return SubapertureTree(cfg.n_pulses, cfg.spacing, cfg.merge_base)


STENCILS = {
    "nearest": FfbpOptions(),
    "phase": FfbpOptions(phase_correction=True),
    "phase-c128": FfbpOptions(dtype=np.complex128, phase_correction=True),
    "bilinear": FfbpOptions(interpolation="bilinear"),
    "cubic_range": FfbpOptions(interpolation="cubic_range"),
}


def _arrays(maps):
    """The populated fields of a gather table, by name."""
    return {
        f.name: getattr(maps, f.name)
        for f in dataclasses.fields(maps)
        if getattr(maps, f.name) is not None
    }


class TestStageMapsIdentity:
    def test_memo_equals_cold_every_stage(self, tiny_cfg):
        tree = _tree(tiny_cfg)
        for options in STENCILS.values():
            for level in range(1, tree.n_stages + 1):
                hot = _arrays(stage_maps(tiny_cfg, tree, level, options))
                with memo_disabled():
                    cold = _arrays(stage_maps(tiny_cfg, tree, level, options))
                assert hot.keys() == cold.keys()
                for name, arr in hot.items():
                    assert arr.dtype == cold[name].dtype, (options, name)
                    assert arr.tobytes() == cold[name].tobytes(), (options, name)

    def test_memo_hit_is_same_object(self, tiny_cfg):
        tree = _tree(tiny_cfg)
        assert stage_maps(tiny_cfg, tree, 1) is stage_maps(tiny_cfg, tree, 1)

    def test_cached_maps_are_frozen(self, tiny_cfg):
        maps = stage_maps(tiny_cfg, _tree(tiny_cfg), 1)
        with pytest.raises(ValueError):
            maps.beam_idx[0, 0, 0] = 0

    def test_memo_key_is_the_stencil(self, tiny_cfg):
        """Options that gather through the same table share one entry:
        the dtype splits only the ``phase`` table."""
        tree = _tree(tiny_cfg)

        def maps(**kw):
            return stage_maps(tiny_cfg, tree, 1, FfbpOptions(**kw))

        assert maps() is maps(dtype=np.complex128)
        assert maps() is not maps(interpolation="bilinear")
        assert maps(phase_correction=True) is not maps(
            phase_correction=True, dtype=np.complex128
        )

    @pytest.mark.parametrize(
        "options", STENCILS.values(), ids=STENCILS.keys()
    )
    def test_image_run_leaves_one_table_per_stage(self, options):
        """``ffbp`` at 128x129 leaves exactly one memo entry per merge
        stage, and no float64 residual: the nearest tables hold only
        indices and the mask, plus the working-dtype phase factors when
        phase correction is on."""
        cfg = RadarConfig.small(n_pulses=128, n_ranges=129)
        data = np.ones((cfg.n_pulses, cfg.n_ranges), np.complex64)
        tree = _tree(cfg)
        clear_memo()
        ffbp(data, cfg, options)
        assert memo_stats()["entries"] == tree.n_stages == 7
        if options.interpolation != "nearest":
            return
        for level in range(1, tree.n_stages + 1):
            arrays = _arrays(stage_maps(cfg, tree, level, options))
            phase = arrays.pop("phase", None)
            assert (phase is not None) == options.phase_correction
            if phase is not None:
                assert phase.dtype == np.dtype(options.dtype)
            assert not any(a.dtype.kind in "fc" for a in arrays.values())
        assert memo_stats()["entries"] == 7


class TestFfbpIdentity:
    @pytest.mark.parametrize(
        "options",
        [
            FfbpOptions(),
            FfbpOptions(interpolation="bilinear"),
            FfbpOptions(phase_correction=True),
            FfbpOptions(interpolation="cubic_range"),
        ],
        ids=["nearest", "bilinear", "phase", "cubic_range"],
    )
    def test_image_memo_equals_cold(self, tiny_cfg, tiny_data, options):
        hot = ffbp(tiny_data, tiny_cfg, options)
        clear_memo()
        with memo_disabled():
            cold = ffbp(tiny_data, tiny_cfg, options)
        assert hot.data.dtype == cold.data.dtype
        assert hot.data.tobytes() == cold.data.tobytes()

    def test_plan_memo_equals_cold(self, tiny_cfg):
        from repro.kernels.ffbp_common import plan_ffbp

        hot = plan_ffbp(tiny_cfg)
        with memo_disabled():
            cold = plan_ffbp(tiny_cfg)
        assert len(hot.stages) == len(cold.stages)
        for h, c in zip(hot.stages, cold.stages):
            assert h.valid_frac.tobytes() == c.valid_frac.tobytes()
            assert h.reads_row_total.tobytes() == c.reads_row_total.tobytes()
            assert h.reads_row_ext.tobytes() == c.reads_row_ext.tobytes()
            assert h.med_row.tobytes() == c.med_row.tobytes()
            assert h.window_rows == c.window_rows


class TestMachineIdentityAcrossMemoState:
    """Cycle counts are memo-invariant on every registry backend."""

    @pytest.mark.parametrize("backend", ["event:e16", "analytic:e16"])
    def test_ffbp_cycles_identical(self, tiny_cfg, backend):
        from repro.kernels.ffbp_common import plan_ffbp
        from repro.kernels.ffbp_spmd import run_ffbp_spmd
        from repro.machine.backends import get_machine

        hot = run_ffbp_spmd(get_machine(backend), plan_ffbp(tiny_cfg), 16)
        clear_memo()
        with memo_disabled():
            cold = run_ffbp_spmd(
                get_machine(backend), plan_ffbp(tiny_cfg), 16
            )
        assert hot.cycles == cold.cycles
        assert hot.energy_joules == cold.energy_joules


class TestRowBatchedCubicIdentity:
    """cubic_neville_rows == per-row cubic_neville, bit for bit."""

    def test_shared_path(self):
        rng = np.random.default_rng(7)
        samples = rng.normal(size=(9, 40)) + 1j * rng.normal(size=(9, 40))
        pos = np.linspace(-2.0, 42.0, 37)
        batched = cubic_neville_rows(samples, pos)
        for i in range(samples.shape[0]):
            row = cubic_neville(samples[i], pos)
            assert batched[i].tobytes() == row.tobytes()

    def test_per_row_paths(self):
        rng = np.random.default_rng(8)
        samples = rng.normal(size=(6, 32))
        pos = rng.uniform(-1.0, 32.0, size=(6, 20))
        batched = cubic_neville_rows(samples, pos)
        for i in range(6):
            assert batched[i].tobytes() == cubic_neville(samples[i], pos[i]).tobytes()

    def test_input_validation(self):
        with pytest.raises(ValueError):
            cubic_neville_rows(np.zeros(8), np.zeros(3))  # not 2-D
        with pytest.raises(ValueError):
            cubic_neville_rows(np.zeros((2, 3)), np.zeros(3))  # n < 4
        with pytest.raises(ValueError):
            cubic_neville_rows(np.zeros((2, 8)), np.zeros((3, 5)))  # row mismatch
