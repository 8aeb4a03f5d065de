"""Disk maps, Cauchy evaluation, slit openings."""

import numpy as np
import pytest

from conforminv.curves import (make_circular_arc_polygon, make_ellipse,
                               make_opened_slit_disk)
from conforminv.diskmap import (DiskMap, _evaluate, cauchy_eval, map_bounded, map_unbounded,
                                slit_opening_forward)
from conforminv.invariants import _SLIT_BASE_IMAGE
from conforminv.kernel import GnkSolution


# ---------------------------------------------------------- bounded maps

def test_identity_scaled_disk(circle):
    cv = circle(128, radius=2.0)
    dm = map_bounded(cv, 0.0)
    np.testing.assert_allclose(dm.phi_boundary, cv.eta / 2.0, atol=1e-13)
    assert abs(dm.h - np.log(2.0)) < 1e-13
    assert abs(cauchy_eval(dm, 1.0 + 0.0j) - 0.5) < 1e-12


def test_offcenter_disk_is_mobius():
    # disk automorphism: center c, radius R, base alpha
    c, R, alpha = 1.0 + 1.0j, 2.0, 1.5 + 0.4j
    cv = make_circular_arc_polygon([(c, R, 0.0, 2.0 * np.pi)], 256)
    dm = map_bounded(cv, alpha)
    a = (alpha - c) / R

    def truth(z):
        w = (z - c) / R
        return (w - a) / (1.0 - np.conj(a) * w)

    np.testing.assert_allclose(dm.phi_boundary, truth(cv.eta), atol=1e-12)
    assert abs(dm.h - np.log(R * (1.0 - abs(a) ** 2))) < 1e-13
    pts = np.array([c, c + 0.5, c - 0.9j])
    np.testing.assert_allclose(cauchy_eval(dm, pts), truth(pts), atol=1e-12)


def _g1_truth(zeta, r):
    # exact map of the opened G1 domain (right half-disk of radius 2 sqrt(r))
    # onto the unit disk with 2r -> 0 and positive derivative there:
    # rotate to the upper half-disk, u -> -(u + 1/u)/2 to the half plane,
    # then the half-plane automorphism pinning the image of the base point
    R = 2.0 * np.sqrt(r)
    u = 1j * zeta / R
    w0 = 0.5j * (1.0 / np.sqrt(r) - np.sqrt(r))
    return -(u * u + 1.0 + 2.0 * u * w0) / (u * u + 1.0 + 2.0 * u * np.conj(w0))


@pytest.mark.parametrize("r", [0.25, 0.5])
def test_opened_g1_matches_exact_map(r):
    curve = make_opened_slit_disk("G1", r, n_s=512)
    dm = map_bounded(curve, 2.0 * r)
    assert abs(dm.h - np.log(4.0 * r * (1.0 - r) / (1.0 + r))) < 1e-10
    np.testing.assert_allclose(dm.phi_boundary, _g1_truth(curve.eta, r),
                               atol=1e-8)
    R = 2.0 * np.sqrt(r)
    pts = R * np.array([0.5, 0.3 + 0.4j, 0.3 - 0.35j, 0.15 + 0.1j])
    np.testing.assert_allclose(cauchy_eval(dm, pts), _g1_truth(pts, r),
                               atol=1e-10)


# --------------------------------------------------------- unbounded maps

def test_unbounded_identity(circle):
    # exterior of the unit circle maps to itself
    cv = circle(128, kind="exterior")
    dm = map_unbounded(cv, 0.0)
    np.testing.assert_allclose(dm.phi_boundary, cv.eta, atol=1e-13)
    assert abs(dm.h) < 1e-14


def test_unbounded_scaled(circle):
    cv = circle(128, radius=2.0, kind="exterior")
    dm = map_unbounded(cv, 0.0)
    np.testing.assert_allclose(dm.phi_boundary, cv.eta / 2.0, atol=1e-13)
    assert abs(dm.h - np.log(2.0)) < 1e-13
    assert abs(cauchy_eval(dm, 5.0 + 0.0j) - 2.5) < 1e-11


def test_unbounded_base_point_free(circle):
    cv = make_ellipse(2.0, 1.0, 512, "exterior")
    h0 = map_unbounded(cv, 0.0).h
    h1 = map_unbounded(cv, 0.3 + 0.2j).h
    assert abs(h0 - h1) < 1e-12


def test_unbounded_beta_outside_complement_raises():
    # 3 lies in the domain itself; solving anyway would give a wrong h
    cv = make_ellipse(1.0, 0.5, 512, "exterior")
    for beta in (3.0, np.nan):
        with pytest.raises(ValueError):
            map_unbounded(cv, beta)


# ------------------------------------------------------ cauchy evaluation

def test_cauchy_rejects_outside_points(circle):
    dm = map_bounded(circle(64), 0.0)
    with pytest.raises(ValueError):
        cauchy_eval(dm, 2.0 + 0.0j)


def test_cauchy_warns_near_boundary(circle):
    # 0.7 is safely classifiable but within the five-spacing accuracy band
    dm = map_bounded(circle(64), 0.0)
    with pytest.warns(UserWarning):
        cauchy_eval(dm, 0.7 + 0.0j)


def test_cauchy_f_unbounded_analytic(circle):
    # boundary samples of f = 1/z reproduce interior values of 1/z, so with
    # base 0 and h = 0, Phi(3) = 3 e^{1/3}; checks the residue-at-infinity
    # constant in the denominator
    cv = circle(256, kind="exterior")
    sol = GnkSolution(rho=np.zeros(256), h=0.0, h_spread=0.0, gmres_iters=0, residual=0.0)
    dm = DiskMap(curve=cv, base=0.0, f_boundary=1.0 / cv.eta, phi_boundary=cv.eta,
                 solution=sol)
    val = _evaluate(dm, np.array([3.0 + 0.0j]))[1][0]
    want = 3.0 * np.exp(1.0 / 3.0)
    assert abs(val - want) < 1e-10 * abs(want)


# ------------------------------------------------------- slit openings

def test_slit_opening_base_images():
    assert abs(slit_opening_forward("G1", 0.25, 0.25) - 0.5) < 1e-15
    assert abs(slit_opening_forward("G2", 0.5, 0.0) - (-1.0)) < 1e-15
    assert abs(slit_opening_forward("G3", 0.6, 0.6, a=0.2) - 0.8) < 1e-15
    for case, z in (("G1", -0.5), ("G2", 0.7), ("G3", 0.1)):
        with pytest.raises(ValueError, match="on the slit"):
            slit_opening_forward(case, 0.5, z, a=0.2 if case == "G3" else 0.0)


def test_slit_base_image_table_pins_the_opening():
    # invariants takes the base image from its own table, which rounds unlike
    # the opening map in the last bit for about half the parameters; the map
    # keeps the base on the real axis, the fold's mirror, and within an ulp
    bases = {"G1": lambda r: r, "G2": lambda r: 0.0, "G3": lambda r: r}
    for case in ("G1", "G2", "G3"):
        for a in ((0.0, 0.1, 0.2, 0.3) if case == "G3" else (0.0,)):
            for r in np.linspace(0.05, 0.95, 91):
                if r <= a:
                    continue
                w = complex(slit_opening_forward(case, r, bases[case](r), a))
                table = _SLIT_BASE_IMAGE[case](r, a)
                assert w.imag == 0.0, (case, r, a)
                assert abs(w.real - table) <= np.spacing(abs(table)), (case, r, a)


def test_slit_opening_matches_curve_nodes():
    # forward images of circle points must land on the constructed arc piece
    r = 0.25
    curve = make_opened_slit_disk("G1", r, n_s=64)
    arc = curve.eta[64:]
    # the arc midpoint corresponds to z = 1 on the original circle
    w = slit_opening_forward("G1", r, 1.0 + 0.0j)
    assert abs(w - arc[32]) < 1e-13
