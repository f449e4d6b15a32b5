"""Tests for the cosine-theorem index equations (paper eqs. 1-4).

The authoritative cross-check: the paper's equations must agree exactly
with the direct coordinate transform (translate the point to the child
phase centre and convert back to polar).  Hypothesis drives this over
the whole valid domain.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.cosine import (
    child_angle,
    child_angles,
    child_range,
    child_ranges,
    combine_geometry,
    exact_child_geometry,
)


class TestChildRanges:
    def test_broadside_symmetry(self):
        """At broadside (theta = pi/2) both children are equidistant."""
        r1, r2 = child_ranges(np.array([1000.0]), np.array([np.pi / 2]), l=16.0)
        assert r1 == pytest.approx(r2)
        # Pythagoras: sqrt(r^2 + (l/2)^2).
        assert r1[0] == pytest.approx(np.hypot(1000.0, 8.0))

    def test_forward_looking_geometry(self):
        """Looking along +x (theta=0): child 1 at -l/2 is farther,
        child 2 at +l/2 is nearer."""
        r1, r2 = child_ranges(np.array([100.0]), np.array([0.0]), l=10.0)
        assert r1[0] == pytest.approx(105.0)
        assert r2[0] == pytest.approx(95.0)

    def test_broadcasting(self):
        r = np.linspace(500, 600, 5)[None, :]
        th = np.linspace(1.2, 1.9, 3)[:, None]
        r1, r2 = child_ranges(r, th, l=8.0)
        assert r1.shape == (3, 5)
        assert r2.shape == (3, 5)


class TestChildAngles:
    def test_broadside_angles_mirror(self):
        th1, th2 = child_angles(np.array([1000.0]), np.array([np.pi / 2]), l=16.0)
        assert th1[0] + th2[0] == pytest.approx(np.pi)

    def test_reuses_precomputed_ranges(self):
        r = np.array([800.0])
        th = np.array([1.4])
        r1, r2 = child_ranges(r, th, l=12.0)
        a = child_angles(r, th, 12.0)
        b = child_angles(r, th, 12.0, r1=r1, r2=r2)
        assert np.allclose(a, b)


class TestOneChildIntoBuffers:
    def test_buffers_hold_the_pair_functions_bytes(self):
        """One child at a time into reused caller buffers gives exactly
        the arrays of the two-child functions."""
        r = np.linspace(500.0, 900.0, 33)[None, :]
        th = np.linspace(1.2, 1.9, 7)[:, None]
        geom = combine_geometry(r, th, l=16.0)
        r_buf, th_buf, den = (np.full((7, 33), np.nan) for _ in range(3))
        for child, want in ((1, geom.first), (2, geom.second)):
            ri = child_range(r, th, 16.0, child, out=r_buf)
            ti = child_angle(r, 16.0, ri, child, out=th_buf, den=den)
            assert ri is r_buf and ti is th_buf
            assert ri.tobytes() == want.r.tobytes()
            assert ti.tobytes() == want.theta.tobytes()

    @pytest.mark.parametrize("child", [0, 3])
    def test_rejects_unknown_child(self, child):
        r, th = np.array([800.0]), np.array([1.4])
        with pytest.raises(ValueError, match="child must be 1 or 2"):
            child_range(r, th, 12.0, child)
        with pytest.raises(ValueError, match="child must be 1 or 2"):
            child_angle(r, 12.0, r, child)


class TestCombineGeometry:
    def test_rejects_nonpositive_length(self):
        with pytest.raises(ValueError):
            combine_geometry(np.array([10.0]), np.array([1.0]), l=0.0)

    @given(
        r=st.floats(min_value=50.0, max_value=10000.0),
        theta=st.floats(min_value=0.2, max_value=np.pi - 0.2),
        l=st.floats(min_value=0.5, max_value=64.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_exact_transform(self, r, theta, l):
        """Eqs. 1-4 == direct coordinate transform, over the domain."""
        geom = combine_geometry(np.array([r]), np.array([theta]), l=l)
        exact1 = exact_child_geometry(np.array([r]), np.array([theta]), -l / 2)
        exact2 = exact_child_geometry(np.array([r]), np.array([theta]), +l / 2)
        assert geom.first.r[0] == pytest.approx(exact1.r[0], rel=1e-9)
        assert geom.second.r[0] == pytest.approx(exact2.r[0], rel=1e-9)
        assert geom.first.theta[0] == pytest.approx(exact1.theta[0], abs=1e-7)
        assert geom.second.theta[0] == pytest.approx(exact2.theta[0], abs=1e-7)

    @given(
        r=st.floats(min_value=100.0, max_value=5000.0),
        theta=st.floats(min_value=0.5, max_value=np.pi - 0.5),
        l=st.floats(min_value=1.0, max_value=32.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_triangle_inequality(self, r, theta, l):
        """Child ranges deviate from the parent range by at most l/2."""
        geom = combine_geometry(np.array([r]), np.array([theta]), l=l)
        assert abs(geom.first.r[0] - r) <= l / 2 + 1e-9
        assert abs(geom.second.r[0] - r) <= l / 2 + 1e-9

    def test_far_field_ranges_converge_to_parent(self):
        """As r >> l, child ranges approach the parent range."""
        geom = combine_geometry(np.array([1e6]), np.array([np.pi / 2]), l=8.0)
        assert geom.first.r[0] == pytest.approx(1e6, abs=1e-3)

    def test_vector_evaluation_matches_scalar(self):
        r = np.array([500.0, 700.0, 900.0])
        th = np.array([1.3, 1.5, 1.7])
        geom = combine_geometry(r, th, l=16.0)
        for i in range(3):
            gi = combine_geometry(r[i : i + 1], th[i : i + 1], l=16.0)
            assert geom.first.r[i] == pytest.approx(gi.first.r[0])
            assert geom.second.theta[i] == pytest.approx(gi.second.theta[0])


class TestExactChildGeometry:
    def test_zero_offset_is_identity(self):
        r = np.array([123.0])
        th = np.array([1.1])
        got = exact_child_geometry(r, th, 0.0)
        assert got.r[0] == pytest.approx(123.0)
        assert got.theta[0] == pytest.approx(1.1)
