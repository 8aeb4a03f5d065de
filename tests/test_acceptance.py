"""Acceptance suite: the package's headline accuracy targets.

Each check records a single PASS/FAIL line with the worst measured error
next to its tolerance, then asserts. The lines are echoed in an
"acceptance summary" section at the end of the pytest run (see conftest)
so they stay visible under output capture.
"""

import time

import numpy as np

from conforminv import (
    QuadConfig,
    context,
    crowding_theta2_of_r,
    harmonic_measure_all,
    hyperbolic_distance,
    make_amoeba,
    make_ellipse,
    make_polygon,
    map_bounded,
    map_unbounded,
    mu,
    oracle_quad_r,
    oracle_reduced_modulus,
    quad_modulus,
    reduced_modulus,
    reduced_modulus_slit_disk,
    winding_inside,
)
from conforminv.curves import _boundary_sums
from conforminv.invariants import _admissible

PI = np.pi

L_SHAPE = [6 + 1j, 1 + 1j, 1 + 4j, -1 + 4j, -1 - 1j, 6 - 1j]


REPORT_LINES = []


def _report(tag: str, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] {tag} ({detail})"
    REPORT_LINES.append(line)
    print(line)  # also lands in the captured-output block on failure


def _l_shape_distances(alpha, targets):
    curve = make_polygon(L_SHAPE, 512, p=3.0)
    errs = []
    for z, want in targets:
        got = hyperbolic_distance(curve, alpha, alpha, z)
        errs.append(abs(got - want))
    return max(errs)


def test_hyperbolic_distance_l_shape():
    t0 = time.perf_counter()
    targets_i = [
        (1.0 + 0.0j, 3.50661554819086),
        (2.0 + 0.0j, 4.91711064317017),
        (3.0 + 0.0j, 6.47927360380709),
        (4.0 + 0.0j, 8.05147684115352),
        (5.0 + 0.0j, 9.66456147776192),
    ]
    targets_r = [
        (0.0 + 0.0j, 2.99228771572299),
        (0.0 + 1.0j, 3.50483278097652),
        (0.0 + 2.0j, 4.91711064317017),
        (0.0 + 3.0j, 6.52150321421451),
    ]
    worst = max(_l_shape_distances(2.0j, targets_i),
                _l_shape_distances(2.0 + 0.0j, targets_r))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed <= 30.0
    _report("L-shaped hexagon, nine hyperbolic distances", ok,
            f"max |err| = {worst:.2e}, tol 1e-06, {elapsed:.1f}s of 30s")
    assert ok


def test_hyperbolic_distance_symmetry():
    curve = make_polygon(L_SHAPE, 512, p=3.0)
    fwd = hyperbolic_distance(curve, 2.0j, 2.0j, 2.0 + 0.0j)
    rev = hyperbolic_distance(curve, 2.0 + 0.0j, 2.0 + 0.0j, 2.0j)
    gap = abs(fwd - rev)
    ok = gap <= 1e-6
    _report("hyperbolic distance symmetry on the L-shape", ok,
            f"|d(a,b) - d(b,a)| = {gap:.2e}, tol 1e-06")
    assert ok


def test_exterior_ellipse_sweep():
    worst = 0.0
    for r in np.linspace(0.1, 1.0, 19):
        r = float(r)
        curve = make_ellipse(1.0, r, 4096, "exterior")
        m = reduced_modulus(curve)
        worst = max(worst, abs(m - oracle_reduced_modulus("ellipse_exterior", r)))
    ok = worst <= 1e-10
    _report("exterior ellipse reduced modulus, 19-point sweep", ok,
            f"max |err| = {worst:.2e}, tol 1e-10")
    assert ok


def test_interior_ellipse_family():
    worst = 0.0
    for r in (0.5, 1.0, 2.0, 3.0):
        curve = make_ellipse(float(np.cosh(r)), float(np.sinh(r)), 4096, "interior")
        m = reduced_modulus(curve, base=0.0)
        worst = max(worst, abs(m - oracle_reduced_modulus("ellipse_interior", r)))
    ok = worst <= 1e-8
    _report("interior ellipse reduced modulus at the centre", ok,
            f"max |err| = {worst:.2e}, tol 1e-08")
    assert ok


def test_slit_disk_families():
    cases = []
    radii = (0.1, 0.3, 0.5, 0.7, 0.9)
    cases += [("G1", r, 0.0) for r in radii]
    cases += [("G2", r, 0.0) for r in radii]
    cases += [("G3", r, 0.0) for r in radii]
    cases += [("G3", r, 0.25) for r in (0.3, 0.5, 0.7, 0.9)]
    cases += [("G3", r, 0.5) for r in (0.7, 0.9)]
    worst = 0.0
    for case, r, a in cases:
        m = reduced_modulus_slit_disk(case, r, a=a, n_s=512)
        worst = max(worst, abs(m - oracle_reduced_modulus(case, r, a)))
    ok = worst <= 1e-6
    _report("radially slit disks, 21 closed-form comparisons", ok,
            f"max |err| = {worst:.2e}, tol 1e-06")
    assert ok


def test_quadrilateral_moduli():
    quads = [
        ("square quarters", PI * np.array([-1.0, -0.5, 0.0, 0.5]),
         1.0, 1e-12, None),
        ("half-turn split", PI * np.array([-0.5, -0.25, 0.25, 0.5]),
         float(np.sqrt(2.0)), 1e-10, (13, 33)),
        ("near-degenerate thin", PI * np.array([-0.5005, -0.4995, 0.4995, 0.5005]),
         4.99266938932358, 1e-6, None),
        ("strongly asymmetric", PI * np.array([-1.0, -0.0001, 0.0, 0.5]),
         0.272437506734334, 1e-6, None),
    ]
    all_ok = True
    details = []
    for label, ang, want, tol, iter_band in quads:
        t0 = time.perf_counter()
        tr = quad_modulus(*np.exp(1j * ang))
        elapsed = time.perf_counter() - t0
        err = abs(tr.r - want)
        ok = tr.converged and err <= tol and elapsed <= 60.0
        if iter_band is not None:
            ok = ok and iter_band[0] <= tr.iterations <= iter_band[1]
        all_ok = all_ok and ok
        details.append(f"{label} err {err:.1e}/{tol:.0e} {elapsed:.0f}s")
    _report("four reference quadrilateral moduli", all_ok, "; ".join(details))
    assert all_ok


def test_quadrilateral_sweep_against_oracle():
    th1, th3 = 0.5 * PI, 1.5 * PI
    cfg = QuadConfig(n_s=1024)
    worst = 0.0
    for th2 in PI * np.arange(0.6, 1.45, 0.1):
        th2 = float(th2)
        z = (1.0 + 0.0j, np.exp(1j * th1), np.exp(1j * th2), np.exp(1j * th3))
        tr = quad_modulus(*z, cfg=cfg)
        ref = oracle_quad_r(th1, th2, th3)
        worst = max(worst, abs(tr.r - ref) / ref)
    ok = worst <= 1e-10
    _report("quadrilateral modulus sweep vs closed form, 9 angles", ok,
            f"max rel err = {worst:.2e}, tol 1e-10")
    assert ok


def test_crowding_asymptote_gaps():
    hi = 1.5 * PI - crowding_theta2_of_r(12.0)
    lo = crowding_theta2_of_r(1.0 / 12.0) - 0.5 * PI
    ok = 0.0 <= hi <= 2e-15 and 0.0 <= lo <= 2e-15
    _report("crowding angle gaps at extreme aspect ratios", ok,
            f"gaps {hi:.2e} and {lo:.2e}, window [0, 2e-15]")
    assert ok


def _interior_points(curve, rng, count):
    xs, ys = curve.eta.real, curve.eta.imag
    pts = []
    while len(pts) < count:
        z = (rng.uniform(xs.min(), xs.max(), 256)
             + 1j * rng.uniform(ys.min(), ys.max(), 256))
        inside, _, _, clearance = _boundary_sums(curve, z)
        pts.extend(z[_admissible(curve, inside, clearance)])
    return np.array(pts[:count])


def test_property_suite():
    rng = np.random.default_rng(20260814)
    parts = []

    # harmonic measures of the sides partition unity
    polygons = [
        ("pentagon", [2 - 2j, 2 + 1j, 2j, -2 + 0j, -1 - 3j]),
        ("13-gon", [4 + 0j, 4 + 2j, 2 + 4j, 4j, -1 + 3j, -2 + 3j, -3 + 1j,
                    -3 + 0j, -2 - 2j, -1 - 3j, -3j, 1 - 2j, 3 - 2j]),
    ]
    worst_sum = 0.0
    for _, vertices in polygons:
        curve = make_polygon(vertices, 512, p=3.0)
        alpha = complex(np.mean(np.asarray(vertices, dtype=complex)))
        assert winding_inside(curve, [alpha])[0]
        z = _interior_points(curve, rng, 100)
        totals = harmonic_measure_all(curve, alpha, z).sum(axis=0)
        worst_sum = max(worst_sum, float(np.max(np.abs(totals - 1.0))))
    parts.append(("partition of unity", worst_sum, 1e-8))

    # the defining identity of the elliptic modulus function
    worst_mu = max(abs(mu(s) * mu(np.sqrt((1 - s) * (1 + s))) - PI * PI / 4.0)
                   for s in np.linspace(0.05, 0.95, 19))
    parts.append(("modulus-function identity", worst_mu, 1e-12))

    # quadrilateral modulus: reciprocity and rotation invariance
    z = np.exp(1j * PI * np.array([-0.5, -0.1, 0.3, 0.8]))
    cfg = QuadConfig(n_s=256)
    base = quad_modulus(*z, cfg=cfg)
    recip = quad_modulus(z[1], z[2], z[3], z[0], cfg=cfg)
    rot = quad_modulus(*(z * np.exp(0.7j)), cfg=cfg)
    worst_quad = max(abs(base.r * recip.r - 1.0), abs(rot.r - base.r))
    parts.append(("quadrilateral symmetries", worst_quad, 1e-8))

    # the mapping constant is flat along smooth boundaries
    spreads = [
        map_bounded(make_ellipse(1.0, 0.6, 512), 0.3 + 0.1j).solution.h_spread,
        map_unbounded(make_ellipse(2.0, 1.0, 512, "exterior"), 0.0j).solution.h_spread,
        map_bounded(make_amoeba(1024), 0.0j).solution.h_spread,
    ]
    parts.append(("mapping-constant spread", max(spreads), 1e-8))

    # closed-form kernels on the unit circle
    ctx = context(make_ellipse(1.0, 1.0, 16), 0.0j)
    N, M1 = ctx.matrices()
    worst_kernel = max(float(np.max(np.abs(N + 1.0 / (2.0 * PI)))),
                       float(np.max(np.abs(M1))))
    parts.append(("circle kernel constants", worst_kernel, 1e-14))

    all_ok = all(err <= tol for _, err, tol in parts)
    detail = "; ".join(f"{name} {err:.1e}/{tol:.0e}" for name, err, tol in parts)
    _report("invariance property suite", all_ok, detail)
    assert all_ok


def test_auxiliary_point_independence():
    curve = make_ellipse(1.0, 0.5, 2048, "exterior")
    # beta 0 folds both axes, 0.2 the real axis, 0.1 + 0.1i neither
    m0, m1, m2 = (-map_unbounded(curve, beta).h / (2.0 * PI)
                  for beta in (0.0j, 0.2 + 0.0j, 0.1 + 0.1j))
    gap = max(abs(m0 - m1), abs(m0 - m2))
    ok = gap <= 1e-10
    _report("exterior modulus independent of the auxiliary point", ok,
            f"|difference| = {gap:.2e}, tol 1e-10")
    assert ok
