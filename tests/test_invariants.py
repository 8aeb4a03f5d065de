"""Invariants: hyperbolic distance, moduli, harmonic measure, grids."""

import csv
import dataclasses
import json

import numpy as np
import pytest
from scipy.integrate import quad

from conforminv import (GridSpec, ScalarField, conformal_radius,
                        harmonic_measure, harmonic_measure_all, harmonic_measure_field,
                        hyperbolic_distance, hyperbolic_distance_field,
                        make_amoeba, make_ellipse, make_polygon, map_unbounded,
                        oracle_reduced_modulus, reduced_modulus,
                        reduced_modulus_slit_disk)
from conforminv.curves import _boundary_sums, boundary_clearance, node_spacing_scale
from conforminv.diskmap import _evaluate, cauchy_eval, map_bounded
from conforminv.invariants import _corner_map, _pair_distance, _side_measure


def disk_metric(w1, w2):
    num = abs(w1 - w2)
    den = np.sqrt((1.0 - abs(w1) ** 2) * (1.0 - abs(w2) ** 2))
    return 2.0 * np.arcsinh(num / den)


# ---------------------------------------------------- hyperbolic distance

def test_distance_on_disk_matches_closed_form(circle):
    cv = circle(256, radius=2.0)
    z1, z2 = 0.4 + 0.2j, -1.0 + 0.8j
    d = hyperbolic_distance(cv, 0.0, z1, z2)
    assert abs(d - disk_metric(z1 / 2.0, z2 / 2.0)) < 1e-12


def test_distance_ignores_base_point():
    cv = make_ellipse(1.5, 1.0, 512, "interior")
    z1, z2 = 0.5 + 0.3j, -0.8 - 0.2j
    d0 = hyperbolic_distance(cv, z1, z1, z2)
    d1 = hyperbolic_distance(cv, -0.4 + 0.1j, z1, z2)
    assert abs(d0 - d1) < 1e-11


def test_distance_is_symmetric():
    cv = make_ellipse(1.5, 1.0, 512, "interior")
    z1, z2 = 0.5 + 0.3j, -0.8 - 0.2j
    assert abs(hyperbolic_distance(cv, z1, z1, z2)
               - hyperbolic_distance(cv, z2, z2, z1)) < 1e-11


def test_distance_base_point_outside_raises():
    # a base point outside the domain (or not finite) has no disk map
    cv = make_ellipse(1.5, 1.0, 256, "interior")
    for alpha in (10.0, 1.5, np.nan):
        with pytest.raises(ValueError):
            hyperbolic_distance(cv, alpha, 0.5, -0.5)


def test_distance_field_matches_pointwise(circle):
    cv = circle(256, radius=2.0)
    grid = GridSpec(-1.0, 1.0, -1.0, 1.0, 5, 4)
    fld = hyperbolic_distance_field(cv, 0.0, 0.3 + 0.1j, grid)
    assert fld.values.shape == (4, 5)
    assert fld.mask.all()  # every node is well inside the radius-2 disk
    for j, y in enumerate(fld.grid_y):
        for i, x in enumerate(fld.grid_x):
            want = disk_metric(0.15 + 0.05j, (x + 1j * y) / 2.0)
            assert abs(fld.values[j, i] - want) < 1e-11
    # a cornered domain, against pointwise distances; at n_s = 128 the
    # ten-spacing standoff would mask every node of this L
    L = [6 + 1j, 1 + 1j, 1 + 4j, -1 + 4j, -1 - 1j, 6 - 1j]
    cv = make_polygon(L, 256, p=3.0)
    fld = hyperbolic_distance_field(cv, 2j, 2j, GridSpec(-1.0, 6.0, -1.0, 4.0, 8, 6))
    assert 0 < fld.mask.sum() < fld.mask.size
    for j, i in zip(*np.nonzero(fld.mask)):
        z = fld.grid_x[i] + 1j * fld.grid_y[j]
        assert abs(fld.values[j, i] - hyperbolic_distance(cv, 2j, 2j, z)) < 1e-12


L_SHAPE = [6 + 1j, 1 + 1j, 1 + 4j, -1 + 4j, -1 - 1j, 6 - 1j]


def _field_at_every_node(dm, grid, value_of):
    """(mask, values) of a grid field from location, clearance and Phi at every node."""
    z = grid.mesh().ravel()
    mask = _boundary_sums(dm.curve, z)[0] & (
        boundary_clearance(dm.curve, z) > 10.0 * node_spacing_scale(dm.curve))
    values = np.full(z.shape, np.nan)
    values[mask] = value_of(_evaluate(dm, z)[1][mask])
    return mask.reshape(grid.ny, grid.nx), values.reshape(grid.ny, grid.nx)


def _assert_field_bits(fld, mask, values):
    assert np.array_equal(fld.mask, mask)
    assert np.array_equal(fld.values, values, equal_nan=True)


@pytest.mark.parametrize("curve, z1, grid", [
    (make_polygon(L_SHAPE, 512, p=3.0), 2j, GridSpec(-1.0, 6.0, -1.0, 4.0, 141, 101)),
    (make_amoeba(1024), 0j, GridSpec(-1.5, 2.8, -1.1, 2.0, 87, 63)),
], ids=["L", "amoeba"])
def test_distance_field_bits_match_every_node_evaluation(curve, z1, grid):
    # the standoff is screened before the boundary pass, and only the nodes
    # that clear it are summed; the field keeps the bits of evaluating all
    fld = hyperbolic_distance_field(curve, z1, z1, grid)
    dm = map_bounded(curve, z1)
    w1 = cauchy_eval(dm, z1)
    _assert_field_bits(fld, *_field_at_every_node(dm, grid, lambda w: _pair_distance(w1, w)))
    assert 0 < fld.mask.sum() < fld.mask.size


def test_harmonic_field_bits_match_every_node_evaluation():
    curve = make_polygon(L_SHAPE, 512, p=3.0)
    grid = GridSpec(-1.0, 6.0, -1.0, 4.0, 71, 51)
    sides = [2, 3, 6]
    fld = harmonic_measure_field(curve, sides, None, grid)
    dm, zet = _corner_map(curve, None)

    def value_of(w):
        return np.sum([_side_measure(zet, k, w) for k in sides], 0)

    _assert_field_bits(fld, *_field_at_every_node(dm, grid, value_of))
    assert 0 < fld.mask.sum() < fld.mask.size


def test_distance_field_masks_outside(circle):
    cv = circle(128)
    grid = GridSpec(-2.0, 2.0, -2.0, 2.0, 9, 9)
    fld = hyperbolic_distance_field(cv, 0.0, 0.0, grid)
    assert not fld.mask[0, 0]  # corner of the grid is outside the disk
    assert np.isnan(fld.values[0, 0])
    assert fld.mask[4, 4]  # grid center


# ------------------------------------------- conformal radius and moduli

def test_conformal_radius_disk_closed_forms(circle):
    cv = circle(256, radius=3.0)
    assert abs(conformal_radius(cv, base=0.0) - 3.0) < 1e-12
    # off-center base: R - |z|^2 / R
    assert abs(conformal_radius(cv, base=1.0) - 8.0 / 3.0) < 1e-12


def test_conformal_radius_exterior(circle):
    cv = make_ellipse(2.0, 1.0, 512, "exterior")
    assert abs(conformal_radius(cv) - 1.5) < 1e-12  # capacity (a + b) / 2


def test_reduced_modulus_disk(circle):
    cv = circle(256, radius=3.0)
    assert abs(reduced_modulus(cv, base=0.0) - np.log(3.0) / (2.0 * np.pi)) < 1e-13


def test_reduced_modulus_unbounded_beta_free():
    cv = make_ellipse(1.0, 0.5, 1024, "exterior")
    m0, m1 = (-map_unbounded(cv, beta).h / (2.0 * np.pi) for beta in (0.0, 0.2 + 0.1j))
    assert abs(m0 - m1) < 1e-12
    assert abs(m0 - oracle_reduced_modulus("ellipse_exterior", 0.5)) < 1e-10


def test_bounded_domain_needs_base_point(circle):
    for invariant in (conformal_radius, reduced_modulus):
        with pytest.raises(ValueError, match="needs a base point"):
            invariant(circle(64))


@pytest.mark.parametrize("case,r,a", [("G1", 0.3, 0.0), ("G2", 0.5, 0.0),
                                      ("G3", 0.7, 0.25)])
def test_slit_disk_reduced_modulus(case, r, a):
    m = reduced_modulus_slit_disk(case, r, a=a, n_s=256)
    assert abs(m - oracle_reduced_modulus(case, r, a)) < 1e-6


# ------------------------------------------------------ harmonic measure

def test_square_sides_have_equal_measure_at_center():
    square = make_polygon([1.0 + 1.0j, -1.0 + 1.0j, -1.0 - 1.0j, 1.0 - 1.0j], 128)
    for side in (1, 2, 3, 4):
        w = harmonic_measure(square, side, 0.0, [0.0 + 0.0j])
        assert abs(w[0] - 0.25) < 1e-10


def test_equilateral_triangle_at_centroid():
    tri = make_polygon(list(np.exp(2j * np.pi * np.arange(3) / 3.0)), 128)
    all_sides = harmonic_measure_all(tri, 0.0, [0.0 + 0.0j])
    np.testing.assert_allclose(all_sides[:, 0], 1.0 / 3.0, atol=1e-10)


def test_square_reflection_symmetry():
    square = make_polygon([1.0 + 1.0j, -1.0 + 1.0j, -1.0 - 1.0j, 1.0 - 1.0j], 128)
    z = [0.3 + 0.0j]
    top = harmonic_measure(square, 1, 0.0, z)[0]
    bottom = harmonic_measure(square, 3, 0.0, z)[0]
    left = harmonic_measure(square, 2, 0.0, z)[0]
    right = harmonic_measure(square, 4, 0.0, z)[0]
    assert abs(top - bottom) < 1e-10  # z is on the symmetry axis
    assert right > left  # z is closer to the right side
    total = harmonic_measure_all(square, 0.0, z).sum()
    assert abs(total - 1.0) < 1e-10


def test_harmonic_measure_side_validation():
    square = make_polygon([1.0 + 1.0j, -1.0 + 1.0j, -1.0 - 1.0j, 1.0 - 1.0j], 64)
    with pytest.raises(ValueError):
        harmonic_measure(square, 0, 0.0, [0.0 + 0.0j])
    with pytest.raises(ValueError):
        harmonic_measure(square, 5, 0.0, [0.0 + 0.0j])


def test_sides_need_two_corners():
    # one corner makes one side, the whole boundary, whose arc closes on itself
    one = dataclasses.replace(make_polygon([0.0, 2.0, 2.0j], 64), corners=(0,))
    with pytest.raises(ValueError, match="at least two corners"):
        harmonic_measure_all(one, None, [0.5 + 0.5j])
    with pytest.raises(ValueError, match="at least two corners"):
        harmonic_measure_all(make_ellipse(1.0, 0.5, 64), 0.0, [0.0])


def _corner_images(rng, m):
    """m counterclockwise angles on the circle, the first two crowded together.

    Corner images crowd on elongated domains; arcs as short as 1e-6 rad
    are where a Moebius transform pinned at the arc's ends loses digits.
    """
    angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, m))
    angles[1] = angles[0] + 10.0 ** rng.uniform(-6.0, -1.0)
    return angles


def _disk_points(rng, count):
    radius = 0.9 * np.sqrt(rng.uniform(0.0, 1.0, count))
    return radius * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, count))


def test_arc_measure_matches_poisson_integral(rng):
    longer_than_pi, worst = 0, 0.0
    for m in (2, 3, 4, 5) * 10:
        angles = _corner_images(rng, m)
        w = _disk_points(rng, 3)
        for k in range(1, m + 1):
            start, end = angles[k - 1], angles[k % m] + (2.0 * np.pi if k == m else 0.0)
            longer_than_pi += end - start > np.pi
            for wj, got in zip(w, _side_measure(np.exp(1j * angles), k, w)):
                def poisson(t, wj=wj):
                    return (1.0 - abs(wj) ** 2) / abs(np.exp(1j * t) - wj) ** 2 / (2.0 * np.pi)

                want = quad(poisson, start, end, epsabs=1e-13, epsrel=0.0)[0]
                worst = max(worst, abs(got - want))
    assert longer_than_pi >= 20
    assert worst <= 1e-13


def test_arc_measures_sum_to_one(rng):
    worst = 0.0
    for m in (2, 3, 4, 6) * 50:
        zet = np.exp(1j * _corner_images(rng, m))
        w = _disk_points(rng, 10)
        total = np.sum([_side_measure(zet, k, w) for k in range(1, m + 1)], axis=0)
        worst = max(worst, np.max(np.abs(total - 1.0)))
    assert worst <= 4e-15


# --------------------------------------------------- grids and field I/O

def test_gridspec_validation():
    with pytest.raises(ValueError):
        GridSpec(0.0, 0.0, 0.0, 1.0, 4, 4)
    with pytest.raises(ValueError):
        GridSpec(0.0, 1.0, 0.0, 1.0, 1, 4)
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError):
            GridSpec(-1.0, bad, -1.0, 4.0, 5, 5)
        with pytest.raises(ValueError):
            GridSpec(-bad, 1.0, -1.0, 4.0, 5, 5)
    g = GridSpec(0.0, 1.0, 0.0, 2.0, 3, 5)
    assert g.mesh().shape == (5, 3)
    x, y = g.axes()
    assert x[-1] == 1.0 and y[-1] == 2.0


def test_scalarfield_csv_roundtrip(tmp_path, circle):
    cv = circle(128)
    fld = hyperbolic_distance_field(cv, 0.0, 0.0,
                                    GridSpec(-1.5, 1.5, -1.5, 1.5, 7, 6))
    path = tmp_path / "field.csv"
    fld.write_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "y", "inside", "value"]
    assert len(rows) == 1 + 7 * 6
    for x, y, inside, value in rows[1:]:
        if inside == "1":
            j = np.argmin(np.abs(fld.grid_y - float(y)))
            i = np.argmin(np.abs(fld.grid_x - float(x)))
            assert abs(float(value) - fld.values[j, i]) < 1e-12
        else:
            assert value == "nan"


def test_scalarfield_csv_bytes_are_the_csv_modules(tmp_path):
    # the excel dialect of csv.writer, with 15 significant digits and nan
    # outside the mask, including a masked node whose value is nan
    x, y = np.linspace(-1.0, 1.0, 5), np.array([-0.1, 0.0, 1e-20, 2.5])
    mask = np.array([[True, False, True, True, False]] * 4)
    values = np.where(mask, np.sin(x[None, :] * 7.0 + y[:, None]) * 1e5, np.nan)
    values[2, 0] = np.nan
    fld = ScalarField(x, y, mask, values)
    fld.write_csv(tmp_path / "field.csv")
    with open(tmp_path / "want.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "inside", "value"])
        for j, yj in enumerate(y):
            for i, xi in enumerate(x):
                writer.writerow([f"{xi:.15g}", f"{yj:.15g}", int(mask[j, i]),
                                 f"{values[j, i]:.15g}" if mask[j, i] else "nan"])
    assert (tmp_path / "field.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_scalarfield_json_roundtrip(tmp_path, circle):
    cv = circle(128)
    fld = hyperbolic_distance_field(cv, 0.0, 0.0,
                                    GridSpec(-1.5, 1.5, -1.5, 1.5, 7, 6))
    path = tmp_path / "field.json"
    fld.write_json(path)
    with open(path) as fh:
        doc = json.load(fh)
    assert doc["grid_x"] == [float(v) for v in fld.grid_x]
    assert doc["values"][0][0] is None  # outside corner
    mask = np.asarray(doc["inside"])
    assert mask.shape == (6, 7)


def test_amoeba_field_smoke():
    # field on a nonconvex smooth domain: values finite inside, nan outside
    # (the standoff scales with max |eta'|, so the blob needs a fine grid
    # before any evaluation points survive the mask)
    cv = make_amoeba(1024)
    fld = hyperbolic_distance_field(cv, 0.2 + 0.1j, 0.2 + 0.1j,
                                    GridSpec(-2.5, 2.5, -2.5, 2.5, 12, 12))
    inside = fld.mask
    assert inside.any() and not inside.all()
    assert np.all(np.isfinite(fld.values[inside]))
    assert np.all(np.isnan(fld.values[~inside]))
