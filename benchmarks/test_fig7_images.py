"""Fig. 7: the validation image set.

(a) pulse-compressed raw data (range-migration curves for six
targets), (b) GBP image, (c) FFBP image "on Intel i7", (d) FFBP image
"on Epiphany".  The paper's claims: (c) and (d) are similar to each
other, both degraded relative to (b) by the simplified interpolation,
and FFBP is much faster than GBP.

Full 1024x1001 scale takes minutes in GBP (which is FFBP's raison
d'etre); this bench runs a 256x257 configuration that preserves every
claim, and ``examples/fig7_images.py`` runs full scale.
"""

import numpy as np
import pytest

from repro.eval.figures import ascii_image, fig7_images
from repro.sar.config import RadarConfig
from repro.sar.ffbp import ffbp
from repro.sar.quality import image_entropy, normalized_rmse


@pytest.fixture(scope="module")
def fig7():
    return fig7_images(RadarConfig.small(n_pulses=256, n_ranges=257))


def test_fig7_panels(benchmark, fig7):
    def render():
        return {
            "a_raw": ascii_image(np.abs(fig7.raw), 64, 18),
            "b_gbp": ascii_image(fig7.gbp.magnitude, 64, 18),
            "c_ffbp_intel": ascii_image(fig7.ffbp_intel.magnitude, 64, 18),
            "d_ffbp_epiphany": ascii_image(fig7.ffbp_epiphany.magnitude, 64, 18),
        }

    panels = benchmark.pedantic(render, rounds=1, iterations=1)
    for name, art in panels.items():
        print(f"\nFig. 7({name}):\n{art}")

    # (c) vs (d): the two numerical paths give the same image.
    peak = np.abs(fig7.ffbp_intel.data).max()
    assert np.allclose(
        fig7.ffbp_intel.data, fig7.ffbp_epiphany.data, atol=2e-3 * peak
    )
    # FFBP degraded vs GBP (entropy up, but still correlated).
    assert image_entropy(fig7.ffbp_epiphany.data) > image_entropy(fig7.gbp.data)
    assert normalized_rmse(fig7.ffbp_epiphany.data, fig7.gbp.data) < 0.25
    # All six targets visible in the FFBP image.
    mag = fig7.ffbp_epiphany.magnitude
    for t in fig7.scene:
        fb, fr = fig7.ffbp_epiphany.grid.locate(t.position)
        window = mag[
            max(int(fb) - 4, 0) : int(fb) + 5, max(int(fr) - 4, 0) : int(fr) + 5
        ]
        assert window.max() > 0.3 * mag.max()


def test_ffbp_much_faster_than_gbp_wallclock(benchmark):
    """The algorithmic claim behind the whole paper, measured for real
    on this machine: FFBP O(N^2 log N) beats GBP O(N^3)."""
    import time

    cfg = RadarConfig.small(n_pulses=256, n_ranges=257)
    from repro.eval.figures import default_scene
    from repro.sar.gbp import gbp_polar
    from repro.sar.simulate import simulate_compressed

    data = simulate_compressed(cfg, default_scene(cfg))

    t0 = time.perf_counter()
    gbp_polar(np.asarray(data, np.complex128), cfg)
    t_gbp = time.perf_counter() - t0

    # One FFBP call, timed exactly as the GBP call is; the fixture
    # records it too, and runs it once under --benchmark-disable.
    t0 = time.perf_counter()
    benchmark.pedantic(ffbp, args=(data, cfg), rounds=1, iterations=1)
    t_ffbp = time.perf_counter() - t0
    print(f"\nGBP {t_gbp:.3f}s vs FFBP {t_ffbp:.3f}s (wall clock, this host)")
    assert t_ffbp < t_gbp
