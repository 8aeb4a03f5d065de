"""Boundary curve construction, grading, and point location."""

import dataclasses
import warnings

import numpy as np
import pytest

from conforminv import conformal_radius, curves
from conforminv.curves import (BoundaryCurve, _boundary_sums, _clear_of, boundary_clearance,
                               make_amoeba, make_circular_arc_polygon, make_ellipse,
                               make_opened_slit_disk, make_polygon,
                               make_rectangle, node_spacing_scale,
                               spectral_derivative, winding_inside,
                               winding_number)

TWO_PI = 2.0 * np.pi


# ---------------------------------------------------------- smooth curves

def test_circle_nodes():
    cv = make_ellipse(1.0, 1.0, 16, "interior")
    assert cv.n == 16
    np.testing.assert_allclose(cv.eta, np.exp(1j * cv.t), atol=1e-15)
    np.testing.assert_allclose(cv.deta, 1j * np.exp(1j * cv.t), atol=1e-15)
    assert cv.orientation == "ccw"
    assert cv.corners == ()
    assert abs(cv.weight - TWO_PI / 16) < 1e-16


def test_ellipse_derivative_is_spectral():
    cv = make_ellipse(1.3, 0.4, 128, "interior")
    np.testing.assert_allclose(cv.deta, spectral_derivative(cv.eta), atol=1e-12)


def test_ellipse_exterior_orientation():
    cv = make_ellipse(1.0, 0.5, 64, "exterior")
    assert cv.orientation == "cw"
    # the domain is the unbounded complement
    assert not winding_inside(cv, 0.0 + 0.0j)
    assert winding_inside(cv, 3.0 + 0.0j)
    assert winding_inside(cv, 0.0 + 2.0j)


def test_ellipse_validation():
    with pytest.raises(ValueError):
        make_ellipse(0.0, 1.0, 64)
    with pytest.raises(ValueError):
        make_ellipse(1.0, 1.0, 65)
    with pytest.raises(ValueError):
        make_ellipse(1.0, 1.0, 64, "inside-out")


def test_amoeba_hand_derivative():
    # radius rho(t) = e^{cos t} cos^2 2t + e^{sin t} sin^2 2t, eta = rho e^{it};
    # differentiate by hand and compare with the spectral derivative
    cv = make_amoeba(512)
    t = cv.t
    c2, s2 = np.cos(2 * t), np.sin(2 * t)
    rho = np.exp(np.cos(t)) * c2 ** 2 + np.exp(np.sin(t)) * s2 ** 2
    drho = (np.exp(np.cos(t)) * (-np.sin(t) * c2 ** 2 - 4.0 * c2 * s2)
            + np.exp(np.sin(t)) * (np.cos(t) * s2 ** 2 + 4.0 * s2 * c2))
    np.testing.assert_allclose(cv.deta, (drho + 1j * rho) * np.exp(1j * t),
                               atol=1e-11)
    assert winding_inside(cv, 0.2 + 0.1j)


def test_amoeba_needs_resolution():
    with pytest.raises(ValueError):
        make_amoeba(32)


# ------------------------------------------------------------- polygons

def test_polygon_vertices_on_corner_nodes():
    verts = [0.0, 2.0, 2.0 + 1.0j, 1.0j]
    ns = 32
    cv = make_polygon(verts, ns)
    assert cv.n == 4 * ns
    assert cv.corners == (0, ns, 2 * ns, 3 * ns)
    for k, v in enumerate(verts):
        assert cv.eta[k * ns] == complex(v)
        assert cv.deta[k * ns] == 0.0  # graded parametrization stalls there
    # between corners the derivative is nonzero
    assert np.all(cv.deta[1:ns] != 0.0)
    assert winding_inside(cv, 1.0 + 0.5j)
    assert not winding_inside(cv, 3.0 + 0.5j)


def test_polygon_grading_exponent_scales_clustering():
    verts = [0.0, 1.0, 1.0 + 1.0j, 1.0j]
    gentle = make_polygon(verts, 64, p=2.0)
    sharp = make_polygon(verts, 64, p=4.0)
    # stronger grading puts the first off-corner node closer to the vertex
    assert abs(sharp.eta[1]) < abs(gentle.eta[1])


def test_polygon_validation():
    with pytest.raises(ValueError):
        make_polygon([0.0, 1.0], 32)
    with pytest.raises(ValueError):  # clockwise
        make_polygon([0.0, 1.0j, 1.0], 32)
    with pytest.raises(ValueError):  # repeated vertex
        make_polygon([0.0, 1.0, 1.0, 1.0j], 32)
    with pytest.raises(ValueError):  # crossing sides, positive area
        make_polygon([0.0, 4.0, 1.0 + 3.0j, 3.0 + 3.0j], 32)
    with pytest.raises(ValueError):  # too few nodes per side
        make_polygon([0.0, 1.0, 1.0j], 4)
    with pytest.raises(ValueError):  # grading too weak
        make_polygon([0.0, 1.0, 1.0j], 32, p=1.5)


def test_polygon_node_collapse_rejected():
    # strong grading rounds v + dz g(tau) onto the vertex for the nodes next
    # to a corner; that is a validation error, not a NaN residual in the solver
    L = [6 + 1j, 1 + 1j, 1 + 4j, -1 + 4j, -1 - 1j, 6 - 1j]
    for n_s in (512, 1024):
        with pytest.raises(ValueError, match="lower the grading exponent"):
            make_polygon(L, n_s, p=6.0)
    assert make_polygon(L, 2048, p=4.0).n == 6 * 2048


def test_rectangle():
    r = 1.5
    cv = make_rectangle(r, 16)
    assert cv.eta[0] == 0.0
    assert cv.eta[16] == 1.0
    assert cv.eta[32] == 1.0 + 1j * r
    assert cv.eta[48] == 1j * r
    assert winding_inside(cv, 0.5 + 0.5j * r)
    with pytest.raises(ValueError):
        make_rectangle(0.0, 16)


# ------------------------------------------------------------ arc chains

def test_single_full_arc_is_smooth_circle():
    cv = make_circular_arc_polygon([(1.0 + 1.0j, 2.0, 0.0, TWO_PI)], 64)
    assert cv.corners == ()
    assert cv.orientation == "ccw"
    np.testing.assert_allclose(cv.eta, 1.0 + 1.0j + 2.0 * np.exp(1j * cv.t),
                               atol=1e-14)
    rev = make_circular_arc_polygon([(0.0j, 1.0, TWO_PI, 0.0)], 64)
    assert rev.orientation == "cw"


def test_lens_of_two_arcs():
    # right half circle from -i to i, closed by an arc through 1 - sqrt(2)
    arcs = [(0.0j, 1.0, -np.pi / 2.0, np.pi / 2.0),
            (1.0 + 0.0j, np.sqrt(2.0), 3.0 * np.pi / 4.0, 5.0 * np.pi / 4.0)]
    ns = 32
    cv = make_circular_arc_polygon(arcs, ns)
    assert cv.corners == (0, ns)
    assert cv.deta[0] == 0.0 and cv.deta[ns] == 0.0
    np.testing.assert_allclose(cv.eta[0], -1.0j, atol=1e-15)
    np.testing.assert_allclose(cv.eta[ns], 1.0j, atol=1e-14)
    assert winding_inside(cv, 0.3 + 0.0j)
    assert not winding_inside(cv, -0.6 + 0.0j)


def test_arc_chain_validation():
    with pytest.raises(ValueError):  # not closed
        make_circular_arc_polygon([(0.0j, 1.0, 0.0, np.pi),
                                   (0.0j, 2.0, np.pi, TWO_PI)], 32)
    with pytest.raises(ValueError):  # zero extent
        make_circular_arc_polygon([(0.0j, 1.0, 1.0, 1.0)], 32)
    with pytest.raises(ValueError):  # bad radius
        make_circular_arc_polygon([(0.0j, -1.0, 0.0, TWO_PI)], 32)
    with pytest.raises(ValueError):
        make_circular_arc_polygon([], 32)


def test_clockwise_arc_chain_rejected():
    # the lens of test_lens_of_two_arcs traversed the other way
    arcs = [(1.0 + 0.0j, np.sqrt(2.0), 5.0 * np.pi / 4.0, 3.0 * np.pi / 4.0),
            (0.0j, 1.0, np.pi / 2.0, -np.pi / 2.0)]
    with pytest.raises(ValueError, match="must run counterclockwise"):
        make_circular_arc_polygon(arcs, 64)


# ------------------------------------------------------- opened slit disks

@pytest.mark.parametrize("case,r,a,base", [
    ("G1", 0.25, 0.0, 0.5),
    ("G2", 0.5, 0.0, -1.0),
    ("G3", 0.6, 0.2, 0.8),
])
def test_opened_slit_disk_shape(case, r, a, base):
    ns = 64
    kwargs = {} if case != "G3" else {"a": a}
    cv = make_opened_slit_disk(case, r, n_s=ns, **kwargs)
    assert cv.n == 2 * ns
    assert cv.corners == (0, ns)
    assert cv.deta[0] == 0.0 and cv.deta[ns] == 0.0
    assert cv.orientation == "ccw"
    assert winding_inside(cv, complex(base))
    # one piece is a straight segment on the imaginary axis
    seg = cv.eta[:ns] if case != "G2" else cv.eta[ns:]
    np.testing.assert_allclose(seg.real, 0.0, atol=1e-14)


def test_opened_g1_circle_image_radius():
    # for G1 the unit circle opens into an arc of the circle |zeta| = 2 sqrt(r)
    r = 0.25
    cv = make_opened_slit_disk("G1", r, n_s=64)
    arc = cv.eta[64:]
    np.testing.assert_allclose(np.abs(arc), 2.0 * np.sqrt(r), atol=1e-13)
    assert np.all(arc.real >= -1e-14)
    # z = 1 on the circle maps to 2 sqrt(r); the arc's midpoint node hits it
    assert abs(arc[32] - 2.0 * np.sqrt(r)) < 1e-13


def test_opened_slit_validation():
    with pytest.raises(ValueError):
        make_opened_slit_disk("G4", 0.5)
    with pytest.raises(ValueError):
        make_opened_slit_disk("G1", 0.5, a=0.1)  # no offset in this family
    with pytest.raises(ValueError):
        make_opened_slit_disk("G3", 0.3, a=0.5)  # needs a < r
    with pytest.raises(ValueError):
        make_opened_slit_disk("G1", 1.2)


# ------------------------------------------------- every graded builder

L_SHAPE = [6 + 1j, 1 + 1j, 1 + 4j, -1 + 4j, -1 - 1j, 6 - 1j]
LENS = [(0.0j, 1.0, -np.pi / 2.0, np.pi / 2.0),
        (1.0 + 0.0j, np.sqrt(2.0), 3.0 * np.pi / 4.0, 5.0 * np.pi / 4.0)]


@pytest.mark.parametrize("build", [
    lambda n_s: make_polygon(L_SHAPE, n_s),
    lambda n_s: make_rectangle(1.5, n_s, p=4.0),
    lambda n_s: make_circular_arc_polygon(LENS, n_s),
    lambda n_s: make_opened_slit_disk("G1", 0.25, n_s=n_s),
    lambda n_s: make_opened_slit_disk("G2", 0.5, n_s=n_s),
    lambda n_s: make_opened_slit_disk("G3", 0.6, a=0.2, n_s=n_s),
], ids=["L", "rectangle-p4", "lens", "G1", "G2", "G3"])
def test_graded_deta_is_parameter_derivative(build):
    coarse, fine = build(128), build(256)
    # doubling n_s keeps every coarse node: tau = 2k / 2n_s is k / n_s exactly
    assert np.array_equal(fine.eta[::2], coarse.eta)
    # a centred difference over the fine nodes around each coarse node;
    # a wrong chain-rule factor d tau / d t would be off by O(1)
    fd = (np.roll(fine.eta, -1) - np.roll(fine.eta, 1)) / (2.0 * fine.weight)
    err = np.max(np.abs(fd[::2] - coarse.deta)) / np.max(np.abs(coarse.deta))
    assert err < 1e-3


@pytest.mark.parametrize("build", [
    lambda: make_polygon([0.0, 1.0, complex(np.nan, 1.0)], 32),
    lambda: make_ellipse(np.nan, 1.0, 64),
    lambda: make_ellipse(np.inf, 1.0, 64),
    lambda: make_circular_arc_polygon([(0.0j, np.nan, 0.0, TWO_PI)], 32),
    lambda: make_circular_arc_polygon([(complex(np.nan, 0.0), 1.0, 0.0, np.pi),
                                       (complex(np.nan, 0.0), 1.0, np.pi, TWO_PI)], 32),
    lambda: make_rectangle(np.nan, 32),
    lambda: make_polygon([0.0, np.inf, 1.0 + 1.0j], 16),
    lambda: make_rectangle(np.inf, 16),
    lambda: make_circular_arc_polygon([(0.0j, np.inf, 0.0, TWO_PI)], 16),
    lambda: make_circular_arc_polygon([(0.0j, 1.0, 0.0, np.pi), (0.0j, 1.0, np.pi, np.inf)], 16),
], ids=["polygon-vertex", "ellipse-nan", "ellipse-inf", "circle-radius", "arc-center",
        "rectangle", "polygon-inf", "rectangle-inf", "circle-radius-inf", "arc-angle-inf"])
def test_nonfinite_curve_data_rejected(build):
    # refused before any arithmetic on it, so no RuntimeWarning leaks
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite"):
            build()


@pytest.mark.parametrize("kind", ["interior", "exterior"])
def test_infinite_semiaxis_refused_without_warning(kind):
    # checked before inf * 0 = nan is formed, so no RuntimeWarning leaks
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite"):
            make_ellipse(np.inf, 0.5, 64, kind)
        with pytest.raises(ValueError, match="finite"):
            make_ellipse(1.0, -np.inf, 64, kind)


# ------------------------------------------------------------- utilities

def test_spectral_derivative_exact_on_trig():
    n = 64
    t = TWO_PI * np.arange(n) / n
    d = spectral_derivative(np.cos(3.0 * t))
    np.testing.assert_allclose(d.real, -3.0 * np.sin(3.0 * t), atol=1e-13)
    np.testing.assert_allclose(d.imag, 0.0, atol=1e-13)
    with pytest.raises(ValueError):
        spectral_derivative(np.ones(7))


def test_winding_number_values():
    cv = make_ellipse(1.0, 1.0, 128, "interior")
    w = winding_number(cv, np.array([0.0 + 0.0j, 2.0 + 0.0j]))
    np.testing.assert_allclose(w, [1.0, 0.0], atol=1e-12)
    cw = make_ellipse(1.0, 1.0, 128, "exterior")
    w = winding_number(cw, np.array([0.0 + 0.0j, 2.0 + 0.0j]))
    np.testing.assert_allclose(w, [-1.0, 0.0], atol=1e-12)


def test_clearance_and_spacing():
    cv = make_ellipse(1.0, 1.0, 256, "interior")
    assert abs(boundary_clearance(cv, 0.0 + 0.0j)[0] - 1.0) < 1e-12
    scale = node_spacing_scale(cv)
    assert 0.0 < scale < 0.1


L_VERTICES = [6 + 1j, 1 + 1j, 1 + 4j, -1 + 4j, -1 - 1j, 6 - 1j]


@pytest.mark.parametrize("cv", [
    make_polygon(L_VERTICES, 512, p=3.0),
    # 1000 and 1022 nodes are not multiples of _COARSE: their last nodes wrap to node 0
    make_ellipse(1.0, 0.5, 1000, "exterior"),
    make_opened_slit_disk("G3", 0.6, 0.2, n_s=512),
    make_amoeba(1022),
], ids=["L", "ellipse-exterior", "G3", "amoeba"])
def test_clear_of_decides_as_the_full_clearance(cv, rng, monkeypatch):
    # random points around the curve, against thresholds drawn from their
    # own clearances (so that many points sit near them), multiples of the
    # node spacing and 0; exact ties read False and the next float down True
    lo, hi = cv.eta.real.min() - 0.5, cv.eta.real.max() + 0.5
    bottom, top = cv.eta.imag.min() - 0.5, cv.eta.imag.max() + 0.5
    z = rng.uniform(lo, hi, 2000) + 1j * rng.uniform(bottom, top, 2000)
    clearance = boundary_clearance(cv, z)
    full = []
    monkeypatch.setattr(curves, "boundary_clearance",
                        lambda c, pts: full.append(len(pts)) or boundary_clearance(c, pts))
    scale = node_spacing_scale(cv)
    for d in [0.0, scale, 5.0 * scale, 10.0 * scale, *rng.choice(clearance, 5)]:
        assert np.array_equal(_clear_of(cv, z, d), clearance > d)
    # the coarse nodes decide most points; the others take the full clearance
    assert 0 < sum(full) < 0.5 * len(full) * z.size
    # ties at points whose nearest node is a coarse node, and at others
    coarse = np.argmin(np.abs(cv.eta[None, :] - z[:, None]), axis=1) % curves._COARSE == 0
    ties = [*rng.choice(np.flatnonzero(coarse), 10), *rng.choice(np.flatnonzero(~coarse), 10)]
    for k in ties:
        assert not _clear_of(cv, z[k], clearance[k])[0]
        assert _clear_of(cv, z[k], np.nextafter(clearance[k], 0.0))[0]


@pytest.mark.parametrize("cv, z", [
    # grid points such as the corner 1 + i sit on nodes, so their sums are nan
    (make_polygon(L_VERTICES, 32),
     (np.linspace(-1, 6, 15)[None, :] + 1j * np.linspace(-1, 4, 11)[:, None]).ravel()),
    (make_ellipse(1.0, 0.5, 64, "exterior"),
     (np.linspace(-2, 2, 10)[None, :] + 1j * np.linspace(-1.5, 1.5, 9)[:, None]).ravel()),
], ids=["L-grid", "ellipse-exterior"])
def test_boundary_sums_bits_independent_of_block_size(cv, z, monkeypatch):
    # the smallest blocks (a one-row budget gives two rows), a row count
    # that divides neither the point nor the node count, and all rows give
    # the same bits, and so does each point evaluated alone
    assert z.size % 7 and cv.n % 7
    values = np.cos(3.0 * cv.t) + 1j * cv.eta
    results = {}
    for rows in (1, 7, z.size):
        monkeypatch.setattr(curves, "_BLOCK_PAIRS", rows * cv.n)
        results[rows] = _boundary_sums(cv, z, values)
    alone = [np.concatenate(out) for out in zip(*(_boundary_sums(cv, zk, values) for zk in z))]
    for out in [*results.values(), alone]:
        for got, want in zip(out, results[z.size]):
            assert np.array_equal(got, want, equal_nan=True)
    if cv.orientation == "ccw":
        assert np.isnan(results[1][1]).any()


@pytest.mark.parametrize("budget", [1, 3])
def test_row_blocks_cover_the_rows_in_blocks_of_two_or_more(budget, monkeypatch):
    # budget rows of 4 nodes per block; a lone last row joins the block before it
    monkeypatch.setattr(curves, "_BLOCK_PAIRS", budget * 4)
    for m in range(9):
        blocks = [range(m)[sl] for sl in curves._row_blocks(m, 4)]
        assert [i for rows in blocks for i in rows] == list(range(m))
        assert all(len(rows) >= min(m, 2) for rows in blocks)


def test_curve_arrays_are_frozen():
    cv = make_ellipse(1.0, 1.0, 16, "interior")
    with pytest.raises(ValueError):
        cv.eta[0] = 0.0


def test_curve_shape_check():
    square = np.array([1.0, 1.0j, -1.0, -1.0j])
    with pytest.raises(ValueError, match="one shape"):
        BoundaryCurve(square, np.zeros(3, complex))
    with pytest.raises(ValueError, match="one shape"):
        BoundaryCurve(square.reshape(2, 2), square.reshape(2, 2))
    # the orientation and the corners are read off the nodes, never passed
    with pytest.raises(TypeError):
        BoundaryCurve(square, 1j * square, orientation="cw")
    with pytest.raises(ValueError):
        dataclasses.replace(BoundaryCurve(square, 1j * square), corners=(0, 2))


THREE_ARCS = [(0j, 1.0, 0.0, TWO_PI / 3.0), (0j, 1.0, TWO_PI / 3.0, 2.0 * TWO_PI / 3.0),
              (0j, 1.0, 2.0 * TWO_PI / 3.0, TWO_PI)]


@pytest.mark.parametrize("build, orientation, corners", [
    (lambda: make_ellipse(1.0, 0.5, 64), "ccw", ()),
    (lambda: make_ellipse(1.0, 0.5, 64, "exterior"), "cw", ()),
    (lambda: make_amoeba(128), "ccw", ()),
    (lambda: make_polygon([6 + 1j, 1 + 1j, 1 + 4j, -1 + 4j, -1 - 1j, 6 - 1j], 32), "ccw",
     (0, 32, 64, 96, 128, 160)),
    (lambda: make_rectangle(1.3, 16), "ccw", (0, 16, 32, 48)),
    (lambda: make_circular_arc_polygon(THREE_ARCS, 16), "ccw", (0, 16, 32)),
    (lambda: make_circular_arc_polygon([(1j, 2.0, 0.5, 0.5 + TWO_PI)], 32), "ccw", ()),
    (lambda: make_circular_arc_polygon([(1j, 2.0, 0.5, 0.5 - TWO_PI)], 32), "cw", ()),
    (lambda: make_opened_slit_disk("G1", 0.5, n_s=32), "ccw", (0, 32)),
    (lambda: make_opened_slit_disk("G2", 0.5, n_s=32), "ccw", (0, 32)),
    (lambda: make_opened_slit_disk("G3", 0.6, 0.2, n_s=32), "ccw", (0, 32)),
], ids=["ellipse", "ellipse-exterior", "amoeba", "polygon", "rectangle", "three-arcs",
        "full-turn-ccw", "full-turn-cw", "G1", "G2", "G3"])
def test_orientation_and_corners_read_off_the_nodes(build, orientation, corners):
    # the values every builder used to declare, now derived from the samples
    cv = build()
    assert cv.orientation == orientation
    assert cv.corners == corners
    assert all(type(c) is int for c in cv.corners)


def test_direct_construction_refuses_bad_nodes():
    eta = np.exp(1j * TWO_PI * np.arange(8) / 8)
    deta = 1j * eta
    repeated, nan = eta.copy(), eta.copy()
    repeated[3] = repeated[2]
    nan[5] = np.nan
    # refused here, not later as a NaN residual or as a base point outside the domain
    for bad, message in ((repeated, "adjacent nodes coincide"), (nan, "finite"),
                         (eta.real + 0j, "zero area"), (eta[:2], "zero area"),
                         (eta[:0], "zero area")):
        with pytest.raises(ValueError, match=message):
            BoundaryCurve(bad, deta[:bad.size])
    cv = BoundaryCurve(eta, deta)
    # the curve keeps read-only copies; the caller's arrays stay writeable
    assert eta.flags.writeable and deta.flags.writeable
    assert not (cv.eta.flags.writeable or cv.deta.flags.writeable)
    eta[0] = 2.0
    assert cv.eta[0] == 1.0
    assert cv.n == 8 and np.array_equal(cv.t, TWO_PI * np.arange(8) / 8)


@pytest.mark.parametrize("scale", [1e160, 1e-170])
def test_far_scaled_square_keeps_its_orientation(scale):
    # the shoelace sum of the raw nodes overflows at 1e160 and underflows at 1e-170
    unit = make_polygon([0.0, 1.0, 1.0 + 1.0j, 1.0j], 32)
    cv = BoundaryCurve(scale * unit.eta, scale * unit.deta)
    assert cv.orientation == "ccw" and cv.corners == unit.corners
    radius = conformal_radius(cv, scale * (0.5 + 0.5j))
    assert radius / scale == pytest.approx(conformal_radius(unit, 0.5 + 0.5j), rel=1e-12)


@pytest.mark.parametrize("build", [
    lambda n_s: make_polygon([0.0, 1.0, 1.0j], n_s),
    lambda n_s: make_rectangle(1.3, n_s),
    lambda n_s: make_opened_slit_disk("G1", 0.5, n_s=n_s),
], ids=["polygon", "rectangle", "opened-slit"])
def test_fractional_nodes_per_piece_refused(build):
    # pieces of 8.5 nodes cannot lie on the curve's uniform parameter grid
    with pytest.raises(ValueError, match="n_s"):
        build(8.5)
    assert build(np.int64(16)).n == build(16).n
