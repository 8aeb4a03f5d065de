"""Rectangle iteration for the conformal modulus of quadrilaterals."""

import warnings

import numpy as np
import pytest

from conforminv import (QuadConfig, invariants, make_ellipse, make_polygon, make_rectangle,
                        map_bounded, oracle_quad_r, quad_modulus, quad_modulus_general)

PI = np.pi


def test_square_converges_immediately():
    # corners at quarter turns: the initial guess r = 1 is already exact
    tr = quad_modulus(-1.0 + 0.0j, -1.0j, 1.0 + 0.0j, 1.0j,
                      cfg=QuadConfig(n_s=128))
    assert tr.converged
    assert abs(tr.r - 1.0) < 1e-12
    assert tr.iterations <= 2
    assert tr.r_iterates[0] == 1.0
    assert len(tr.deltas) == tr.iterations
    assert len(tr.factors) == tr.iterations


def test_half_turn_quadruple_is_sqrt2():
    z = np.exp(1j * PI * np.array([-0.5, -0.25, 0.25, 0.5]))
    tr = quad_modulus(*z, cfg=QuadConfig(n_s=256))
    assert tr.converged
    assert abs(tr.r - np.sqrt(2.0)) < 1e-10


def test_matches_exact_oracle():
    ang = PI * np.array([-0.5, -0.1, 0.3, 0.8])
    z = np.exp(1j * ang)
    tr = quad_modulus(*z, cfg=QuadConfig(n_s=256))
    ref = oracle_quad_r(ang[1] - ang[0], ang[2] - ang[0], ang[3] - ang[0])
    assert tr.converged
    assert abs(tr.r - ref) <= 1e-9 * ref


def test_reciprocity_and_rotation_invariance():
    ang = PI * np.array([-0.5, -0.1, 0.3, 0.8])
    z = np.exp(1j * ang)
    cfg = QuadConfig(n_s=256)
    base = quad_modulus(*z, cfg=cfg)
    # shifting the marked points by one swaps the side pairs: modulus 1/r
    shifted = quad_modulus(z[1], z[2], z[3], z[0], cfg=cfg)
    assert abs(base.r * shifted.r - 1.0) < 1e-8
    rotated = quad_modulus(*(z * np.exp(0.7j)), cfg=cfg)
    assert abs(rotated.r - base.r) < 1e-8


def test_general_domain_rectangle():
    # the rectangle's own corners as marked points: modulus = aspect ratio
    curve = make_rectangle(1.5, 256)
    tr = quad_modulus_general(curve, [0.0, PI / 2.0, PI, 3.0 * PI / 2.0],
                              cfg=QuadConfig(n_s=256))
    assert tr.converged
    assert abs(tr.r - 1.5) < 1e-10


def test_general_domain_default_base_on_l_shape():
    # the node mean of the L lies outside it; the default base comes from the
    # grid instead, and the modulus does not depend on the base
    curve = make_polygon([6 + 1j, 1 + 1j, 1 + 4j, -1 + 4j, -1 - 1j, 6 - 1j], 128)
    params = [0.0, 1.5, 3.0, 4.5]
    cfg = QuadConfig(n_s=64)
    default = quad_modulus_general(curve, params, cfg=cfg)
    pinned = quad_modulus_general(curve, params, alpha=2j, cfg=cfg)
    assert default.converged and pinned.converged
    assert abs(default.r - pinned.r) < 1e-8


def test_general_domain_gmres_floor_stall_on_l_shape():
    # base 2i on the L with n_s=32 rectangles: unfolded, one warm-started
    # rectangle solve ended a hair above the tolerance (5.006e-15 against
    # 5e-15) on some machines. The rectangles are folded now, and a pass
    # that ends a hair above the tolerance is refined, whatever the rounding
    curve = make_polygon([6 + 1j, 1 + 1j, 1 + 4j, -1 + 4j, -1 - 1j, 6 - 1j], 64)
    tr = quad_modulus_general(curve, [0.0, 1.5, 3.0, 4.5], alpha=2j,
                              cfg=QuadConfig(n_s=32))
    assert tr.converged


def _mobius_matrix(a, b, c):
    # sends (a, b, c) to (0, 1, infinity)
    return np.array([[b - c, -a * (b - c)], [b - a, -c * (b - a)]])


def test_cross_ratio_image_is_the_three_point_mobius_map(rng):
    for _ in range(50):
        anchors = np.exp(1j * np.sort(rng.uniform(0.0, 2.0 * PI, 3)))
        targets = np.exp(1j * np.sort(rng.uniform(0.0, 2.0 * PI, 3)))
        d = np.exp(1j * rng.uniform(0.0, 2.0 * PI))
        image = invariants._cross_ratio_image(anchors, targets, d)
        assert abs(abs(image) - 1.0) <= 1e-14
        assert invariants._cross_ratio_image(anchors, targets, anchors[0]) == targets[0]
        m = np.linalg.inv(_mobius_matrix(*targets)) @ _mobius_matrix(*anchors)
        assert abs(image - (m[0, 0] * d + m[0, 1]) / (m[1, 0] * d + m[1, 1])) <= 1e-12


def test_marked_point_validation():
    good = [np.exp(1j * a) for a in (0.1, 1.0, 2.0, 3.0)]
    with pytest.raises(ValueError):  # off the circle
        quad_modulus(0.5 + 0.0j, *good[1:])
    for k in range(4):  # nan fails every comparison, the circle test too
        pts = good[:k] + [complex(np.nan, 0.0)] + good[k + 1:]
        with pytest.raises(ValueError, match="must lie on the unit circle"):
            quad_modulus(*pts)
    with pytest.raises(ValueError):  # not counterclockwise
        quad_modulus(good[0], good[2], good[1], good[3])
    with pytest.raises(ValueError, match="counterclockwise order"):  # more than one turn
        quad_modulus(*np.exp(1j * np.array([0.0, 3.0, 6.0, 9.0])))


def test_marked_points_more_than_half_a_turn_apart():
    # a counterclockwise step may exceed pi: (0, 5) is one, not a step back
    tr = quad_modulus(*np.exp(1j * np.array([0.0, 5.0, 5.5, 6.0])), cfg=QuadConfig(n_s=128))
    assert tr.converged
    assert abs(tr.r - oracle_quad_r(5.0, 5.5, 6.0)) <= 1e-8
    # increasing parameters whose disk images lie more than pi apart
    curve, params = make_ellipse(1.0, 0.6, 256), np.array([0.0, 0.2, 3.6, 3.8])
    cfg = QuadConfig(n_s=64)
    tr = quad_modulus_general(curve, params, cfg=cfg)
    idx = np.rint(params / (2.0 * PI) * curve.n).astype(int)
    images = invariants._circle_images(map_bounded(curve), idx)
    conjugate = quad_modulus(*np.roll(images, -1), cfg=cfg)
    assert tr.converged and conjugate.converged
    assert abs(tr.r * conjugate.r - 1.0) <= 1e-12


def test_general_domain_validation():
    curve = make_rectangle(1.0, 32)
    with pytest.raises(ValueError):  # decreasing parameters
        quad_modulus_general(curve, [0.0, 2.0, 1.0, 3.0])
    with pytest.raises(ValueError):  # out of range
        quad_modulus_general(curve, [0.0, 1.0, 2.0, 7.0])
    with pytest.raises(ValueError):  # collapses onto one node
        quad_modulus_general(curve, [0.0, 1e-9, 1.0, 2.0])
    with pytest.raises(ValueError):  # alpha outside
        quad_modulus_general(curve, [0.0, 1.0, 2.0, 3.0], alpha=5.0 + 0.0j)
    with pytest.raises(ValueError, match="four parameter values"):
        quad_modulus_general(curve, [0.0, 1.0, 2.0])


@pytest.mark.parametrize("params", [[np.nan, 1.0, 2.0, 3.0], [0.0, 1.0, np.nan, 3.0]])
def test_nan_parameters_refused_before_the_disk_map(params, assemblies):
    # nan fails every comparison, so it must fail the checks in positive
    # form, before a solve and before a warning from the cast to node indices
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="strictly increasing"):
            quad_modulus_general(make_rectangle(1.0, 32), params)
    assert assemblies == []


def test_nonconvergence_reported_not_raised(monkeypatch):
    monkeypatch.setattr(invariants, "_QUAD_MAX_ITER", 3)
    z = np.exp(1j * PI * np.array([-0.5, -0.1, 0.3, 0.8]))
    tr = quad_modulus(*z, cfg=QuadConfig(n_s=64))
    assert not tr.converged
    assert tr.iterations == 3
    assert np.isfinite(tr.r)
    assert len(tr.r_iterates) == 4
