"""Similarity covariance of the invariants, checked as hypothesis properties.

Under z -> a z + b the reduced modulus at a finite base shifts by
log|a| / (2 pi), at infinity by -log|a| / (2 pi); hyperbolic distance and
harmonic measure do not change. The discrete method is covariant too, so
the checks hold to rounding, not to the discretization error.

The modulus r(Q) of a disk quadrilateral is unchanged by a rotation of its
marked points, and r(Q) r(Q') = 1 for the conjugate quadrilateral Q', the
points shifted by one. The rectangles of ratio r and 1/r carry the same
nodes up to a similarity, so these also hold to rounding.
"""

import functools
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conforminv import (QuadConfig, harmonic_measure_all, hyperbolic_distance, make_ellipse,
                        make_polygon, quad_modulus, reduced_modulus)
from conforminv.curves import _curve

L_SHAPE = np.array([6 + 1j, 1 + 1j, 1 + 4j, -1 + 4j, -1 - 1j, 6 - 1j])
N_S = 128
BASE = 2j
POINTS = np.array([2.5j, 2.5 + 0j])  # a unit or more from the L's sides
TOL = 1e-10

SIMILARITY = settings(derandomize=True, deadline=None, max_examples=4)

# z -> a z + b with |a| in [0.1, 10]
similarities = st.builds(
    lambda log_r, turn, x, y: (10.0 ** log_r * np.exp(2j * math.pi * turn), complex(x, y)),
    st.floats(-1.0, 1.0), st.floats(0.0, 1.0), st.floats(-5.0, 5.0), st.floats(-5.0, 5.0))


# four counterclockwise points on the unit circle, as angles: three gaps are
# drawn and the fourth closes the turn; each is from 0.3 to 4.5 rad
quadrilaterals = st.tuples(
    st.floats(0.0, 2.0 * math.pi), st.floats(0.3, 4.5), st.floats(0.3, 4.5), st.floats(0.3, 4.5),
).filter(lambda t: 0.3 <= 2.0 * math.pi - sum(t[1:]) <= 4.5).map(
    lambda t: t[0] + np.cumsum((0.0,) + t[1:]))
QUAD_CFG = QuadConfig(n_s=32)


def _invariants(curve, base, points):
    modulus = reduced_modulus(curve, base=base)
    distance = hyperbolic_distance(curve, base, *points)
    return modulus, distance


@functools.cache
def _l_shape():
    curve = make_polygon(L_SHAPE, N_S)
    return _invariants(curve, BASE, POINTS) + (harmonic_measure_all(curve, BASE, POINTS),)


@functools.cache
def _ellipse(kind):
    curve = make_ellipse(1.0, 0.6, 4 * N_S, kind)
    if kind == "exterior":
        return curve, reduced_modulus(curve)
    return curve, _invariants(curve, 0.2 + 0.1j, np.array([0.3j, -0.5 + 0j]))


def _mapped(curve, a, b):
    return _curve(a * curve.eta + b, a * curve.deta, curve.orientation, curve.corners)


@SIMILARITY
@given(similarities)
def test_l_shape_similarity_covariance(ab):
    a, b = ab
    modulus, distance, measures = _l_shape()
    image = make_polygon(a * L_SHAPE + b, N_S)
    got_modulus, got_distance = _invariants(image, a * BASE + b, a * POINTS + b)
    assert abs(got_modulus - (modulus + math.log(abs(a)) / (2.0 * math.pi))) < TOL
    assert abs(got_distance - distance) < TOL
    got_measures = harmonic_measure_all(image, a * BASE + b, a * POINTS + b)
    np.testing.assert_allclose(got_measures, measures, rtol=0, atol=TOL)


@SIMILARITY
@given(similarities)
def test_ellipse_similarity_covariance(ab):
    a, b = ab
    shift = math.log(abs(a)) / (2.0 * math.pi)
    curve, (modulus, distance) = _ellipse("interior")
    got_modulus, got_distance = _invariants(_mapped(curve, a, b), a * (0.2 + 0.1j) + b,
                                            a * np.array([0.3j, -0.5 + 0j]) + b)
    assert abs(got_modulus - (modulus + shift)) < TOL
    assert abs(got_distance - distance) < TOL
    # at infinity the capacity scales by |a|, so the modulus moves the other way
    curve, modulus = _ellipse("exterior")
    assert abs(reduced_modulus(_mapped(curve, a, b)) - (modulus - shift)) < TOL


@SIMILARITY
@given(quadrilaterals)
def test_quad_modulus_conjugate_reciprocity(angles):
    points = np.exp(1j * angles)
    r, conjugate = (quad_modulus(*z, cfg=QUAD_CFG) for z in (points, np.roll(points, -1)))
    assert r.converged and conjugate.converged
    assert abs(r.r * conjugate.r - 1.0) <= 1e-12


@SIMILARITY
@given(quadrilaterals, st.floats(0.0, 2.0 * math.pi))
def test_quad_modulus_rotation_invariance(angles, turn):
    r, rotated = (quad_modulus(*np.exp(1j * (angles + shift)), cfg=QUAD_CFG)
                  for shift in (0.0, turn))
    assert r.converged and rotated.converged
    assert abs(r.r - rotated.r) <= 1e-13
