"""Closed-form reference machinery: agm, K, mu, and the exact invariants."""

import math

import numpy as np
import pytest
import scipy.special

from conforminv.exact import (agm, crowding_r_of_theta2, crowding_theta2_of_r, ellip_k,
                              mu, mu_inv, oracle_quad_r, oracle_reduced_modulus)

HALF_PI = math.pi / 2.0


def test_agm_basic():
    assert agm(1.0, 1.0) == 1.0
    assert abs(agm(3.0, 5.0) - agm(5.0, 3.0)) < 1e-15
    # homogeneity
    assert abs(agm(2.0, 6.0) - 2.0 * agm(1.0, 3.0)) < 1e-14


def test_agm_rejects_nonpositive():
    with pytest.raises(ValueError):
        agm(0.0, 1.0)
    with pytest.raises(ValueError):
        agm(1.0, -2.0)


def test_ellip_k_against_scipy():
    # scipy's ellipk takes the parameter m = s^2
    for s in np.linspace(0.0, 0.995, 40):
        ref = scipy.special.ellipk(s * s)
        assert abs(ellip_k(float(s)) - ref) <= 1e-13 * ref


def test_ellip_k_domain():
    with pytest.raises(ValueError):
        ellip_k(1.0)
    with pytest.raises(ValueError):
        ellip_k(-0.1)


def test_mu_functional_identity():
    # mu(s) mu(s') = pi^2 / 4 with s' the conjugate modulus
    for s in np.linspace(0.05, 0.95, 19):
        sc = math.sqrt(1.0 - s * s)
        assert abs(mu(float(s)) * mu(sc) - math.pi ** 2 / 4.0) <= 1e-12


def test_mu_special_point():
    # self-conjugate modulus
    assert abs(mu(1.0 / math.sqrt(2.0)) - HALF_PI) < 1e-14


def test_mu_monotone():
    s = np.linspace(0.02, 0.98, 25)
    values = [mu(float(v)) for v in s]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_mu_inv_roundtrip():
    for s in (0.01, 0.1, 0.3, 1.0 / math.sqrt(2.0), 0.9, 0.999):
        y = mu(s)
        assert abs(mu_inv(y) - s) <= 1e-13 + 1e-11 * s
    # 0.25 exercises the conjugate-modulus branch, 18 the asymptotic seed
    for y in (0.25, 0.5, HALF_PI, 4.0, 12.0, 18.0):
        s = mu_inv(y)
        assert abs(mu(s) - y) <= 1e-11 * max(1.0, y)


def test_mu_domain():
    for bad in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError):
            mu(bad)
    with pytest.raises(ValueError):
        mu_inv(0.0)


def test_oracle_reduced_modulus_frozen():
    # hand-evaluated closed forms
    assert oracle_reduced_modulus("ellipse_exterior", 1.0) == 0.0
    assert abs(oracle_reduced_modulus("ellipse_exterior", 0.5)
               - math.log(4.0 / 3.0) / (2.0 * math.pi)) < 1e-16
    assert abs(oracle_reduced_modulus("G1", 0.5)
               - math.log(2.0 / 3.0) / (2.0 * math.pi)) < 1e-16
    assert abs(oracle_reduced_modulus("G2", 0.5)
               - math.log(8.0 / 9.0) / (2.0 * math.pi)) < 1e-16
    # G3 degenerates to G1 at a = 0
    for r in (0.2, 0.5, 0.8):
        assert oracle_reduced_modulus("G3", r, 0.0) == oracle_reduced_modulus("G1", r)


def test_oracle_reduced_modulus_interior_limit():
    # semiaxes (cosh r, sinh r) approach a disk of radius e^r / 2
    r = 10.0
    m = oracle_reduced_modulus("ellipse_interior", r)
    assert abs(m - (r - math.log(2.0)) / (2.0 * math.pi)) < 1e-10


def test_oracle_reduced_modulus_validation():
    with pytest.raises(ValueError):
        oracle_reduced_modulus("ellipse_exterior", 1.5)
    with pytest.raises(ValueError):
        oracle_reduced_modulus("G1", 1.0)
    with pytest.raises(ValueError):
        oracle_reduced_modulus("G3", 0.3, 0.5)
    with pytest.raises(ValueError):
        oracle_reduced_modulus("nope", 0.5)


def test_oracle_quad_square():
    # square corners on the circle: the conformal square has modulus 1
    assert abs(oracle_quad_r(HALF_PI, math.pi, 3.0 * HALF_PI) - 1.0) < 1e-14


def test_oracle_quad_known_value():
    # corners at angle differences (pi/4, 3pi/4, pi): modulus sqrt(2),
    # via mu(sqrt(2) - 1) = pi sqrt(2) / 2
    r = oracle_quad_r(math.pi / 4.0, 3.0 * math.pi / 4.0, math.pi)
    assert abs(r - math.sqrt(2.0)) < 1e-14


def test_oracle_quad_validation():
    with pytest.raises(ValueError):
        oracle_quad_r(1.0, 0.5, 2.0)
    with pytest.raises(ValueError):
        oracle_quad_r(0.0, 1.0, 2.0)


def test_crowding_roundtrip():
    for r in (0.4, 0.8, 1.0, 1.7, 3.0):
        th = crowding_theta2_of_r(r)
        assert HALF_PI < th < 3.0 * HALF_PI
        assert abs(crowding_r_of_theta2(th) - r) <= 1e-11 * r
    assert abs(crowding_r_of_theta2(math.pi) - 1.0) < 1e-14


def test_crowding_extreme_r_hits_asymptote():
    # by r = 12 the symmetric configuration has collapsed to within a few
    # ulps of theta2 = 3 pi / 2 (this is the crowding phenomenon)
    gap_hi = 3.0 * HALF_PI - crowding_theta2_of_r(12.0)
    gap_lo = crowding_theta2_of_r(1.0 / 12.0) - HALF_PI
    assert 0.0 <= gap_hi <= 2e-15
    assert 0.0 <= gap_lo <= 2e-15


def test_crowding_validation():
    with pytest.raises(ValueError):
        crowding_r_of_theta2(HALF_PI)
    with pytest.raises(ValueError):
        crowding_theta2_of_r(0.0)
