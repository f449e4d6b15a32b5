"""Cosine-theorem index equations (paper eqs. 1-4).

During an FFBP merge two child subapertures, whose phase centres sit a
distance ``l/2`` on either side of the parent phase centre along the
flight axis, contribute to each parent polar sample ``(r, theta)``
(paper Fig. 3b).  ``l`` is the child subaperture length, so the child
phase-centre offsets from the parent centre are ``-l/2`` (the earlier
child, subscript 1) and ``+l/2`` (the later child, subscript 2).
Angles are measured from the flight axis (+x), so broadside is
``pi/2``.

The paper's equations, reproduced exactly:

.. math::

    r_1      &= \\sqrt{r^2 + (l/2)^2 - 2 r (l/2) \\cos(\\pi - \\theta)} \\\\
    r_2      &= \\sqrt{r^2 + (l/2)^2 - 2 r (l/2) \\cos\\theta} \\\\
    \\theta_1 &= \\cos^{-1}\\!\\big((r_1^2 + (l/2)^2 - r^2) / (r_1 l)\\big) \\\\
    \\theta_2 &= \\pi - \\cos^{-1}\\!\\big((r_2^2 + (l/2)^2 - r^2) / (r_2 l)\\big)

All functions are vectorised over ``r`` and ``theta`` and broadcast
against each other.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


class ChildSample(NamedTuple):
    """Polar coordinates of one contributing child sample."""

    r: np.ndarray
    theta: np.ndarray


class CombineGeometry(NamedTuple):
    """Both children's polar coordinates for a parent sample set."""

    first: ChildSample
    second: ChildSample


def child_ranges(
    r: np.ndarray, theta: np.ndarray, l: float
) -> tuple[np.ndarray, np.ndarray]:
    """Ranges ``(r1, r2)`` from the two child phase centres (eqs. 1-2).

    Parameters
    ----------
    r, theta:
        Parent polar coordinates (metres, radians from the flight axis).
    l:
        Child subaperture length in metres; child centres sit at
        ``-l/2`` and ``+l/2`` from the parent centre.
    """
    r = np.asarray(r, dtype=np.float64)
    theta = np.asarray(theta, dtype=np.float64)
    half = 0.5 * l
    # r_i = sqrt((r*r + half*half) - (2*r*half) * cos(.)), evaluated in
    # place in exactly that operation order: the broadcast (r, theta)
    # grid is the only large operand, so each equation allocates one
    # grid array instead of three.  cos(pi - theta) = -cos(theta);
    # writing both out keeps the code a transcription of eqs. 1 and 2.
    grid = np.broadcast_shapes(r.shape, theta.shape)
    base = r * r + half * half
    two_r_half = 2.0 * r * half
    r1 = np.multiply(two_r_half, np.cos(np.pi - theta), out=np.empty(grid))
    r2 = np.multiply(two_r_half, np.cos(theta), out=np.empty(grid))
    for ri in (r1, r2):
        np.subtract(base, ri, out=ri)
        np.sqrt(ri, out=ri)
    return r1, r2


def child_angles(
    r: np.ndarray,
    theta: np.ndarray,
    l: float,
    r1: np.ndarray | None = None,
    r2: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Angles ``(theta1, theta2)`` at the child phase centres (eqs. 3-4).

    ``r1``/``r2`` may be passed to reuse values from
    :func:`child_ranges`; otherwise they are recomputed.
    """
    r = np.asarray(r, dtype=np.float64)
    theta = np.asarray(theta, dtype=np.float64)
    if r1 is None or r2 is None:
        r1, r2 = child_ranges(r, theta, l)
    half = 0.5 * l
    # c_i = ((r_i*r_i + half*half) - r*r) / (r_i*l), in place in that
    # operation order (see child_ranges).
    grid = np.broadcast_shapes(r.shape, r1.shape, r2.shape)
    rr = r * r
    den = np.empty(grid)
    angles = []
    for ri in (r1, r2):
        c = np.multiply(ri, ri, out=np.empty(grid))
        c += half * half
        c -= rr
        c /= np.multiply(ri, l, out=den)
        # Guard the arccos argument against round-off excursions past +-1.
        np.clip(c, -1.0, 1.0, out=c)
        angles.append(np.arccos(c, out=c))
    theta1, theta2 = angles
    np.subtract(np.pi, theta2, out=theta2)
    return theta1, theta2


def combine_geometry(r: np.ndarray, theta: np.ndarray, l: float) -> CombineGeometry:
    """Full element-combining geometry for a parent sample set.

    Evaluates eqs. 1-4 once, sharing the range computation, and returns
    the polar coordinates of both contributing child samples.
    """
    if l <= 0:
        raise ValueError(f"child subaperture length must be positive, got {l}")
    r1, r2 = child_ranges(r, theta, l)
    theta1, theta2 = child_angles(r, theta, l, r1=r1, r2=r2)
    return CombineGeometry(ChildSample(r1, theta1), ChildSample(r2, theta2))


def exact_child_geometry(
    r: np.ndarray, theta: np.ndarray, offset: float
) -> ChildSample:
    """Reference child geometry by direct coordinate transform.

    The point at parent polar coordinates ``(r, theta)`` lies at
    Cartesian ``(r cos(theta), r sin(theta))`` relative to the parent
    phase centre; a child phase centre displaced by ``offset`` along the
    flight axis sees it at the returned polar coordinates.  Used to
    cross-validate the cosine-theorem transcription in tests.
    """
    r = np.asarray(r, dtype=np.float64)
    theta = np.asarray(theta, dtype=np.float64)
    x = r * np.cos(theta) - offset
    y = r * np.sin(theta)
    return ChildSample(np.hypot(x, y), np.arctan2(y, x))
