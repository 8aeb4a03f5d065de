"""Integral-operator assembly and the boundary equation solver.

The strongest checks are closed forms on circles and analytic test
functions whose densities are known exactly.
"""

import dataclasses
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from conforminv import QuadConfig, curves, kernel, map_bounded, map_unbounded, quad_modulus
from conforminv.curves import (make_amoeba, make_ellipse, make_opened_slit_disk, make_polygon,
                               make_rectangle, spectral_derivative)
from conforminv.kernel import (ConvergenceError, GnkSolution, _assemble,
                               _circulant, _cot_row, _mirror_fold, _residual_longdouble,
                               _solve_dense, conjugate_periodic, context, solve_neumann_system)

INV_2PI = 1.0 / (2.0 * np.pi)


# ----------------------------------------------------- circle closed forms

def test_circle_matrices_closed_form(circle):
    # bounded, alpha = 0: N is the constant -1/(2 pi) and M1 vanishes;
    # at larger n the cotangent cancellation grows like n * eps, so the
    # tight entrywise bound is asserted on a small grid
    ctx = context(circle(16), 0.0)
    N, M1 = ctx.matrices()
    assert np.max(np.abs(N + INV_2PI)) <= 1e-14
    assert np.max(np.abs(M1)) <= 1e-14


def test_circle_matrices_closed_form_larger_n(circle):
    ctx = context(circle(256), 0.0)
    N, M1 = ctx.matrices()
    assert np.max(np.abs(N + INV_2PI)) <= 256 * 1e-14
    assert np.max(np.abs(M1)) <= 256 * 1e-13


def test_circle_unbounded_closed_form(circle):
    # clockwise circle with A = 1 gives the same constant kernel
    ctx = context(circle(16, kind="exterior"), 0.0)
    N, M1 = ctx.matrices()
    assert np.max(np.abs(N + INV_2PI)) <= 1e-14
    assert np.max(np.abs(M1)) <= 1e-14


def test_apply_N_circle_is_minus_mean(circle):
    ctx = context(circle(64), 0.0)
    t, w = ctx.curve.t, ctx.curve.weight
    N, _ = ctx.matrices()
    np.testing.assert_allclose(w * (N @ np.cos(t)), 0.0, atol=1e-13)
    np.testing.assert_allclose(w * (N @ np.ones(64)), -1.0, atol=1e-13)
    rho = 2.0 + np.sin(3.0 * t)
    np.testing.assert_allclose(w * (N @ rho), -np.mean(rho), atol=1e-13)


def test_apply_M_circle_is_conjugation(circle):
    ctx = context(circle(64), 0.0)
    t, w = ctx.curve.t, ctx.curve.weight
    _, M1 = ctx.matrices()
    for rho, m_rho in ((np.cos(t), -np.sin(t)), (np.sin(t), np.cos(t))):
        np.testing.assert_allclose(-conjugate_periodic(rho) + w * (M1 @ rho), m_rho, atol=1e-13)


# ------------------------------------------------------- row-sum structure

def test_row_sums_enforced_everywhere():
    # the diagonals are defined to make w * row sums exactly -1 (N) and 0
    # (M1); this must hold on cornered curves too
    curve = make_polygon([0.0, 2.0, 2.0 + 1.0j, 1.0j], 32)
    ctx = context(curve, 1.0 + 0.4j)
    N, M1 = ctx.matrices()
    w = curve.weight
    np.testing.assert_allclose(w * N.sum(axis=1), -1.0, atol=1e-12)
    np.testing.assert_allclose(w * M1.sum(axis=1), 0.0, atol=1e-12)
    # corner columns decouple: eta' = 0 kills the column factor (the
    # diagonal entry is exempt, it carries the row-sum defect)
    for c in curve.corners:
        off = np.delete(N[:, c], c)
        assert np.all(off == 0.0)


def test_rowsum_diagonal_matches_analytic_limit_on_smooth_curves():
    # on a smooth curve the row-sum diagonal and the pointwise limit
    # (1/pi)(eta''/(2 eta') - A'/A), A' = eta', agree up to the
    # (superalgebraically small) trapezoidal error
    curve = make_ellipse(1.0, 0.5, 256, "interior")
    ctx = context(curve, 0.2 + 0.1j)
    N, M1 = ctx.matrices()
    ddeta = spectral_derivative(curve.deta)
    limit = (ddeta / (2.0 * curve.deta) - curve.deta / ctx.A) / np.pi
    for i in (0, 17, 100, 255):
        assert abs(N[i, i] - limit[i].imag) < 1e-10
        assert abs(M1[i, i] - limit[i].real) < 1e-10


def test_scalar_kernels_match_matrices_off_diagonal():
    curve = make_amoeba(128)
    ctx = context(curve, 0.3 + 0.2j)
    N, M1 = ctx.matrices()
    rng = np.random.default_rng(7)
    for _ in range(40):
        i, j = (int(v) for v in rng.integers(0, 128, size=2))
        if i == j:
            continue
        # the defining formulas; agreement up to their reassociation
        val = (ctx.A[i] / ctx.A[j]) * curve.deta[j] / (curve.eta[j] - curve.eta[i])
        half = 0.5 * (curve.t[i] - curve.t[j])
        cot = np.cos(half) / np.sin(half)
        assert abs(N[i, j] - val.imag / np.pi) < 1e-14
        assert abs(M1[i, j] - (val.real / np.pi + cot / (2.0 * np.pi))) < 1e-12


# ------------------------------------------------------------- assembly

@pytest.mark.parametrize("n", [8, 10, 1024])
def test_circulant_view_equals_gather(n):
    row = _cot_row(n) / (2.0 * np.pi)
    view = _circulant(row)
    i, j = np.indices((n, n))
    assert np.array_equal(view, row[(i - j) % n])
    assert not view.flags.writeable


L_VERTICES = [6 + 1j, 1 + 1j, 1 + 4j, -1 + 4j, -1 - 1j, 6 - 1j]


@pytest.mark.parametrize("build", [
    lambda: context(make_ellipse(1.0, 0.5, 256), 0.1 + 0.05j),
    lambda: context(make_polygon(L_VERTICES, 64), 2j),  # zero corner columns
    lambda: context(make_ellipse(1.0, 0.5, 256, "exterior"), 0.0),
], ids=["ellipse-interior", "L", "ellipse-exterior"])
def test_assembly_bits_independent_of_block_size(build, monkeypatch):
    # every entry and row sum keeps its order whatever the row block: the
    # smallest (a one-row budget gives two rows), a row count that does not
    # divide n, and all n rows
    ctx = build()
    n = ctx.n
    assert n % 7 != 0
    results = []
    for rows in (1, 7, n):
        monkeypatch.setattr(curves, "_BLOCK_PAIRS", rows * n)
        results.append(_assemble(ctx))
    for N, M1 in results[1:]:
        assert np.array_equal(N, results[0][0])
        assert np.array_equal(M1, results[0][1])


def test_assembly_peak_memory_is_the_matrices():
    # temporaries are a few cache-sized blocks, not n^2-scale arrays
    ctx = context(make_ellipse(1.0, 0.5, 2048, "exterior"), 0.0)
    tracemalloc.start()
    try:
        N, M1 = _assemble(ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= N.nbytes + M1.nbytes + 16 * 2**20


# -------------------------------------------------------- conjugation

def test_conjugate_periodic_multiplier():
    n = 64
    t = 2.0 * np.pi * np.arange(n) / n
    np.testing.assert_allclose(conjugate_periodic(np.cos(2 * t)), np.sin(2 * t),
                               atol=1e-13)
    np.testing.assert_allclose(conjugate_periodic(np.sin(5 * t)), -np.cos(5 * t),
                               atol=1e-13)
    # mean and Nyquist modes are annihilated
    np.testing.assert_allclose(conjugate_periodic(np.ones(n)), 0.0, atol=1e-15)
    np.testing.assert_allclose(conjugate_periodic(np.cos(32 * t)), 0.0, atol=1e-13)
    with pytest.raises(ValueError):
        conjugate_periodic(np.ones(9))


# ----------------------------------------------------------- full solves

def test_solve_analytic_data_bounded():
    # gamma = Re(A g) with g analytic inside forces rho = Im(A g), h = 0
    curve = make_ellipse(1.0, 0.6, 512, "interior")
    alpha = 0.3 + 0.1j
    ctx = context(curve, alpha)
    ag = (curve.eta - alpha) * (curve.eta ** 2 - curve.eta)
    sol = solve_neumann_system(ctx, ag.real)
    np.testing.assert_allclose(sol.rho, ag.imag, atol=1e-12)
    assert abs(sol.h) < 1e-13
    assert sol.h_spread < 1e-12
    assert sol.residual <= 1e-13


def test_solve_analytic_data_unbounded():
    # gamma = Re(f) with f analytic at infinity and f(inf) = 0 gives
    # rho = Im(f), h = 0
    curve = make_ellipse(2.0, 1.0, 512, "exterior")
    ctx = context(curve, 0.0)
    f = 1.0 / curve.eta
    sol = solve_neumann_system(ctx, f.real)
    np.testing.assert_allclose(sol.rho, f.imag, atol=1e-12)
    assert abs(sol.h) < 1e-13


def test_solve_circle_log_data(circle):
    # disk of radius 2 about alpha = 0: gamma = -log|eta| is constant, so
    # the map is the identity scaled by 1/2 and h = log 2
    cv = circle(128, radius=2.0)
    ctx = context(cv, 0.0)
    sol = solve_neumann_system(ctx, -np.log(np.abs(cv.eta)))
    np.testing.assert_allclose(sol.rho, 0.0, atol=1e-13)
    assert abs(sol.h - np.log(2.0)) < 1e-14
    assert sol.residual <= 1e-8


def test_dense_direct_matches_gmres():
    curve = make_ellipse(1.0, 0.4, 256, "interior")
    ctx = context(curve, 0.1 + 0.05j)
    gamma = -np.log(np.abs(ctx.A))
    it = solve_neumann_system(ctx, gamma)
    N, M1 = ctx.matrices()
    n, w = curve.n, curve.weight
    rhs = conjugate_periodic(gamma) - w * (M1 @ gamma)
    rho = np.linalg.solve(np.eye(n) - w * N, rhs)
    M_rho = -conjugate_periodic(rho) + w * (M1 @ rho)
    h = np.mean(0.5 * (M_rho - gamma + w * (N @ gamma)))
    np.testing.assert_allclose(it.rho, rho, atol=1e-12)
    assert abs(it.h - h) < 1e-13


def test_gmres_iteration_cap_raises(monkeypatch):
    curve = make_polygon([0.0, 2.0, 2.0 + 1.0j, 1.0j], 64)
    ctx = context(curve, 1.0 + 0.4j)
    gamma = -np.log(np.abs(ctx.A))
    monkeypatch.setattr(kernel, "_MAX_ITERS", 2)
    with pytest.raises(ConvergenceError) as err:
        solve_neumann_system(ctx, gamma)
    assert err.value.residual > 0.0


def test_context_validation(circle):
    # the orientation is the mode: a base must wind +1 (ccw) or -1 (cw)
    with pytest.raises(ValueError, match="beta must lie in the bounded complement"):
        context(circle(32, kind="exterior"), 2.0)  # in the unbounded domain
    with pytest.raises(ValueError, match="alpha must lie inside the domain"):
        context(circle(32), 1.0 + 0.0j)  # on the boundary
    for curve, base in ((circle(32), complex(np.nan, 0.0)),
                        (circle(32, kind="exterior"), complex(np.inf, 0.0))):
        with pytest.raises(ValueError, match="must lie in"):
            context(curve, base)
    # the maps refuse the other orientation before any base is checked
    with pytest.raises(ValueError, match="bounded mode expects a counterclockwise curve"):
        map_bounded(circle(32, kind="exterior"), 0.0)
    with pytest.raises(ValueError, match="unbounded mode expects a clockwise curve"):
        map_unbounded(circle(32), 0.0)
    with pytest.raises(ValueError, match="gamma must match"):
        solve_neumann_system(context(circle(32), 0.0), np.zeros(31))
    triangle = make_polygon([0.0, 2.0, 2j], 9)  # 27 nodes
    with pytest.raises(ValueError, match="node count must be even"):
        solve_neumann_system(context(triangle, 0.5 + 0.5j), np.zeros(27))


# ------------------------------------------------------------- solve memo

def _l_problem(base=2j, n_s=64):
    ctx = context(make_polygon(L_VERTICES, n_s), base)
    return ctx, -np.log(np.abs(ctx.curve.eta - base))


def test_memo_hit_returns_stored_solution_without_assembly(assemblies):
    ctx, gamma = _l_problem()
    cold = solve_neumann_system(ctx, gamma)
    assert len(assemblies) == 1
    ctx2, gamma2 = _l_problem()
    hit = solve_neumann_system(ctx2, gamma2)
    assert hit is cold
    assert len(assemblies) == 1
    # the stored bits are those of a cold solve
    kernel._memo.clear()
    again = solve_neumann_system(*_l_problem())
    assert again is not cold
    assert np.array_equal(again.rho, hit.rho)
    assert again.h == hit.h and again.gmres_iters == hit.gmres_iters
    assert again.residual == hit.residual and again.h_spread == hit.h_spread


def test_memo_bypassed_by_warm_start(assemblies):
    ctx, gamma = _l_problem()
    cold = solve_neumann_system(ctx, gamma)
    warm = solve_neumann_system(*_l_problem(), x0=cold.rho)
    assert warm is not cold
    assert len(assemblies) == 2
    assert len(kernel._memo) == 1
    assert solve_neumann_system(*_l_problem()) is cold


def test_memo_keyed_on_content_not_identity(assemblies):
    ctx, gamma = _l_problem()
    first = solve_neumann_system(ctx, gamma)
    # a rebuilt curve with the same data hits; a moved base misses, also
    # with the same gamma, since the base enters the kernel through A
    assert solve_neumann_system(*_l_problem()) is first
    moved = solve_neumann_system(*_l_problem(base=2j + 1e-9))
    assert moved is not first
    same_gamma = solve_neumann_system(context(ctx.curve, 0.5 + 2j), gamma)
    assert same_gamma is not first and same_gamma is not moved
    assert len(assemblies) == 3


def test_memo_evicts_least_recently_used(circle, assemblies):
    ctx = context(circle(16), 0.0)
    gammas = [np.cos(k * ctx.curve.t) for k in range(kernel._MEMO_SIZE + 1)]
    sols = [solve_neumann_system(ctx, g) for g in gammas[:-1]]
    assert solve_neumann_system(ctx, gammas[0]) is sols[0]  # now most recent
    solve_neumann_system(ctx, gammas[-1])
    assert len(kernel._memo) == kernel._MEMO_SIZE
    assert solve_neumann_system(ctx, gammas[0]) is sols[0]
    assert solve_neumann_system(ctx, gammas[2]) is sols[2]
    assert solve_neumann_system(ctx, gammas[1]) is not sols[1]  # evicted


def test_memo_never_stores_a_failed_solve(assemblies, monkeypatch):
    monkeypatch.setattr(kernel, "_MAX_ITERS", 2)
    for attempt in range(1, 3):
        with pytest.raises(ConvergenceError):
            solve_neumann_system(*_l_problem())
        assert len(assemblies) == attempt
    assert len(kernel._memo) == 0


def test_solution_is_read_only(circle):
    ctx = context(circle(16), 0.0)
    sol = solve_neumann_system(ctx, np.cos(ctx.curve.t))
    with pytest.raises(ValueError):
        sol.rho[0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        sol.h = 0.0


# ----------------------------------------------- extended-precision refinement

def _breakdown_system(n=8):
    """(A, b, x0) for (I - A) x = b, A = I / 2, on which GMRES fails exactly.

    With b = e_0 + b' (b'_0 = 0) and x0 = 2 b' + 2^60 e_0, the residual
    b - x0 / 2 = (1 - 2^59) e_0 rounds to -2^59 e_0, so GMRES breaks down
    after one step. Its update 2^60 - 2^60 cancels the whole of x_0, whose
    exact value is 2: the true residual is exactly e_0, on every IEEE
    machine, and one correction step removes it exactly.
    """
    A = 0.5 * np.eye(n)
    b = np.zeros(n)
    b[0] = 1.0
    b[1:] = 1.0 / np.arange(2, n + 1)
    x0 = 2.0 * b
    x0[0] = 2.0 ** 60
    return A, b, x0


def test_refinement_repairs_a_failed_gmres_pass():
    A, b, x0 = _breakdown_system()
    x, iters, refine, residual = _solve_dense(A, b, 1.0, x0)
    assert (iters, refine) == (1, 1)
    assert residual == 0.0
    assert np.array_equal(x, 2.0 * b)


def test_refinement_counts_against_max_iters(monkeypatch):
    # the failed pass used the whole budget of one iteration: no correction
    A, b, x0 = _breakdown_system()
    monkeypatch.setattr(kernel, "_MAX_ITERS", 1)
    with pytest.raises(ConvergenceError) as err:
        _solve_dense(A, b, 1.0, x0)
    assert err.value.residual == 1.0 / np.linalg.norm(b)
    monkeypatch.setattr(kernel, "_MAX_ITERS", 2)
    _, iters, refine, _ = _solve_dense(A, b, 1.0, x0)
    assert iters + refine == 2


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="long double is float64 here")
def test_longdouble_residual_is_exact_to_float64(circle, monkeypatch):
    ctx = context(circle(16), 0.3 + 0.2j)
    N, _ = ctx.matrices()
    w = ctx.curve.weight
    x = np.cos(3.0 * ctx.curve.t)
    b = x - w * (N @ x)  # float64 rounding leaves a residual of order eps
    exact = [Fraction(bi) - Fraction(xi) + Fraction(w) * sum(
        Fraction(a) * Fraction(xj) for a, xj in zip(row, x)) for row, bi, xi in zip(N, b, x)]
    for block in (1, 7, 16):  # the same values whatever the row blocks
        monkeypatch.setattr(curves, "_BLOCK_PAIRS", block * 16)
        r = _residual_longdouble(N, w, x, b)
        assert max(abs(float(ri - e)) for ri, e in zip(r, exact)) <= 1e-18


def test_solve_below_the_gmres_floor_passes(monkeypatch):
    # at a GMRES tolerance of 5e-16 the first pass on this ellipse can end
    # a hair above it; the correction then takes the residual well below
    # it. Either way the solve passes, and a memo hit reports the stored
    # counts.
    curve = make_ellipse(1.0, 0.4, 256, "interior")
    ctx = context(curve, 0.1 + 0.05j)
    gamma = -np.log(np.abs(ctx.A))
    with monkeypatch.context() as patch:
        patch.setattr(kernel, "_GMRES_TOL", 5e-16)
        sol = solve_neumann_system(ctx, gamma)
        assert sol.residual <= 5e-16
        assert sol.gmres_iters + sol.refine_iters <= kernel._MAX_ITERS
        assert solve_neumann_system(ctx, gamma) is sol
    kernel._memo.clear()  # the memo key holds no tolerance: solve afresh
    default = solve_neumann_system(ctx, gamma)
    assert np.max(np.abs(sol.rho - default.rho)) <= 1e-13


def test_solution_record_defaults():
    sol = GnkSolution(rho=np.zeros(4), h=0.0, h_spread=0.0, gmres_iters=0, residual=0.0)
    assert sol.refine_iters == 0 and sol.folded == 0


# ------------------------------------------------------------ mirror folds

def _folded(ctx, base):
    """ctx folded over the curve's mirrors that hold base, as the disk maps fold it."""
    return dataclasses.replace(ctx, fold=_mirror_fold(ctx.curve, base))


# (curve, base, mirrors the base lies on) for each declared symmetry family
SYMMETRIC = {
    "ellipse-interior": (lambda: make_ellipse(1.0, 0.6, 256), 0.0, 2),
    "ellipse-interior-axis": (lambda: make_ellipse(1.0, 0.6, 256), 0.3, 1),
    "ellipse-exterior": (lambda: make_ellipse(1.0, 0.3, 256, "exterior"), 0.0, 2),
    "G1": (lambda: make_opened_slit_disk("G1", 0.5, n_s=128), 1.0, 1),
    "G2": (lambda: make_opened_slit_disk("G2", 0.5, n_s=128), -1.0, 1),
    "G3": (lambda: make_opened_slit_disk("G3", 0.6, 0.2, n_s=128), 0.8, 1),
    "rectangle": (lambda: make_rectangle(1.3, 64), 0.5 * (1.0 + 1.3j), 2),
}


@pytest.mark.parametrize("name", SYMMETRIC)
def test_declared_mirrors_map_nodes_onto_nodes(name):
    build, base, count = SYMMETRIC[name]
    curve = build()
    n, i = curve.n, np.arange(curve.n)
    scale = np.max(np.abs(curve.eta))
    for a, point, direction in curve.mirrors:
        u = direction / direction.conjugate()
        reflected = point + u * np.conj(curve.eta - point)
        gap = np.max(np.abs(curve.eta[(a - i) % n] - reflected))
        assert gap <= 8 * np.finfo(float).eps * scale
    fold = _mirror_fold(curve, base)
    assert len(fold.offsets) == count
    # q, its group images and the fixed nodes partition the nodes
    parts = np.concatenate([fold.q, fold.fixed] + [idx for _, idx in fold.images])
    assert np.array_equal(np.sort(parts), i)
    assert fold.q.size * (len(fold.images) + 1) + fold.fixed.size == n


@pytest.mark.parametrize("n_s", [8, 9, 64])
def test_rectangle_reflections_map_nodes_onto_nodes(n_s):
    r = 1.3
    eta = make_rectangle(r, n_s).eta
    n = eta.size
    fold = _mirror_fold(make_rectangle(r, n_s), 0.5 * (1.0 + 1j * r))
    i = np.arange(n)
    s1, s2 = (n_s - i) % n, (3 * n_s - i) % n
    ulp = np.finfo(float).eps
    # sigma1 is x -> 1 - x, sigma2 is y -> r - y
    assert np.max(np.abs(eta[s1] - (1.0 - eta.conj()))) <= 4 * ulp
    assert np.max(np.abs(eta[s2] - (eta.conj() + 1j * r))) <= 4 * ulp * r
    # the generic fold's arrays are the rectangle fold's: q between the
    # midpoints of sides 0 and 1, then its images under s1, s2 and s1 s2
    q = i[(n_s < 2 * i) & (2 * i < 3 * n_s)]
    assert fold.offsets == (n_s, 3 * n_s) and np.array_equal(fold.q, q)
    (m1, f1), (m2, f2), (p12, f12) = fold.images
    assert (m1, m2, p12) == (-1.0, -1.0, 1.0)
    assert np.array_equal(f1, s1[q]) and np.array_equal(f2, s2[q])
    assert np.array_equal(f12, s1[s2[q]])
    # they fix exactly the side midpoints, nodes only for even n_s
    assert np.array_equal(fold.fixed, i[(s1 == i) | (s2 == i)])
    mids = [0.5, 1.0 + 0.5j * r, 0.5 + 1j * r, 0.5j * r] if n_s % 2 == 0 else []
    assert np.allclose(eta[fold.fixed], mids, rtol=0.0, atol=4 * ulp * r)
    # q, its three images and the fixed nodes partition the nodes
    parts = np.concatenate((fold.q, f1, f2, f12, fold.fixed))
    assert np.array_equal(np.sort(parts), i)
    assert np.array_equal(fold.rows, np.concatenate((fold.q, fold.fixed)))


def test_row_assembly_keeps_the_full_bits(monkeypatch):
    ctx = context(make_rectangle(1.3, 64), 0.5 + 0.65j)
    folded = _folded(ctx, ctx.alpha)
    rows = folded.fold.rows
    N, M1 = ctx.matrices()
    for block in (1, 7, rows.size):
        monkeypatch.setattr(curves, "_BLOCK_PAIRS", block * ctx.n)
        Nr, Mr = _assemble(folded)
        assert np.array_equal(Nr, N[rows]) and np.array_equal(Mr, M1[rows])


@pytest.mark.parametrize("n_s", [64, 256])
@pytest.mark.parametrize("r", [0.27, 1.0, 1.3, 5.0])
def test_folded_solve_matches_full(r, n_s):
    curve = make_rectangle(r, n_s)
    alpha = 0.5 * (1.0 + 1j * r)
    gamma = -np.log(np.abs(curve.eta - alpha))
    full = solve_neumann_system(context(curve, alpha), gamma)
    ctx = _folded(context(curve, alpha), alpha)
    folded = solve_neumann_system(ctx, gamma)
    assert folded.folded == 2 and full.folded == 0
    assert ctx.matrices()[0].shape == (n_s + 3, 4 * n_s)
    assert np.max(np.abs(folded.rho - full.rho)) <= 1e-13
    assert abs(folded.h - full.h) <= 1e-13
    assert abs(folded.h_spread - full.h_spread) <= 1e-13
    assert abs(folded.gmres_iters - full.gmres_iters) <= 1
    # the warm start is restricted to the unknowns
    warm = solve_neumann_system(ctx, gamma, x0=full.rho)
    assert warm.folded == 2 and np.max(np.abs(warm.rho - full.rho)) <= 1e-13


def _full_solution(curve, base):
    """The unfolded solve of the disk map's problem at base."""
    return solve_neumann_system(context(curve, base), -np.log(np.abs(curve.eta - base)))


def _map(curve, base):
    return (map_bounded if curve.orientation == "ccw" else map_unbounded)(curve, base)


@pytest.mark.parametrize("build, base, count", [
    (lambda: make_ellipse(1.0, 0.1, 1024, "exterior"), 0.0, 2),
    (lambda: make_ellipse(1.0, 0.5, 1024, "exterior"), 0.0, 2),
    (lambda: make_ellipse(1.0, 0.9, 1024, "exterior"), 0.0, 2),
    (lambda: make_ellipse(1.0, 0.6, 512), 0.0, 2),
    (lambda: make_ellipse(1.0, 0.6, 512), 0.3, 1),
    (lambda: make_opened_slit_disk("G1", 0.5, n_s=256), 1.0, 1),
    (lambda: make_opened_slit_disk("G2", 0.5, n_s=256), -1.0, 1),
    (lambda: make_opened_slit_disk("G3", 0.6, 0.2, n_s=256), 0.8, 1),
], ids=["exterior-0.1", "exterior-0.5", "exterior-0.9", "interior-centre",
        "interior-axis", "G1", "G2", "G3"])
def test_folded_map_matches_full(build, base, count):
    curve = build()
    folded = _map(curve, base).solution
    full = _full_solution(curve, base)
    assert folded.folded == count and full.folded == 0
    assert np.max(np.abs(folded.rho - full.rho)) <= 1e-13
    assert abs(folded.h - full.h) <= 1e-13
    assert abs(folded.h_spread - full.h_spread) <= 1e-13
    assert abs(folded.gmres_iters - full.gmres_iters) <= 1


@pytest.mark.parametrize("build, base", [
    (lambda: make_ellipse(1.0, 0.6, 256), 0.1 + 0.1j),
    (lambda: make_ellipse(1.0, 0.3, 256, "exterior"), 0.1 + 0.1j),
    (lambda: make_opened_slit_disk("G1", 0.5, n_s=64), 1.0 + 1e-3j),
    (lambda: make_rectangle(1.3, 64), 0.4 + 0.6j),
], ids=["ellipse-interior", "ellipse-exterior", "G1", "rectangle"])
def test_base_off_every_mirror_takes_the_full_path(build, base):
    curve = build()
    assert _mirror_fold(curve, base).offsets == ()
    sol = _map(curve, base).solution
    full = _full_solution(curve, base)
    assert sol.folded == 0
    assert np.array_equal(sol.rho, full.rho) and sol.h == full.h


def test_fold_refuses_mirrors_it_cannot_fold():
    # a circle's mirrors at angles 0 and pi/4 both hold 0, but their
    # offsets differ by n/8: the quarter-size fold would be wrong there
    curve = dataclasses.replace(make_ellipse(1.0, 1.0, 64), mirrors=(
        curves.Mirror(0, 0j, 1 + 0j), curves.Mirror(16, 0j, complex(np.exp(0.25j * np.pi)))))
    with pytest.raises(ValueError, match="offsets differ by n/2"):
        map_bounded(curve, 0.0)
    assert map_bounded(curve, 0.5).solution.folded == 1


def test_folded_map_peak_memory_is_the_folded_rows():
    # the exterior ellipse at beta = 0 folds both axes: the map holds the
    # rows of q and of the fixed nodes at full width, and the folded matrix
    n = 2048
    curve = make_ellipse(1.0, 0.5, n, "exterior")
    tracemalloc.start()
    try:
        dm = map_unbounded(curve, 0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dm.solution.folded == 2
    assert peak <= 16 * (n // 4 + 3) * n + 8 * (n // 4 - 1) ** 2 + 16 * 2**20


def test_unfolded_map_peak_memory_is_the_matrices():
    # the amoeba declares no mirror, so its map solves under the identity
    # fold, which must hand GMRES N itself: no second n x n matrix
    n = 2048
    curve = make_amoeba(n)
    tracemalloc.start()
    try:
        dm = map_bounded(curve, 0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dm.solution.folded == 0
    assert peak <= 16 * n * n + 16 * 2**20


def test_memo_keeps_folded_and_full_solves_apart(assemblies):
    # the first step of the rectangle iteration (r = 1) has no x0, so its
    # folded solve is memoized; the same problem solved in full must miss
    quad_modulus(-1.0 + 0.0j, -1.0j, 1.0 + 0.0j, 1.0j, cfg=QuadConfig(n_s=64))
    calls = len(assemblies)
    curve, alpha = make_rectangle(1.0, 64), 0.5 + 0.5j
    full = _full_solution(curve, alpha)
    assert full.folded == 0 and len(assemblies) == calls + 1
    folded = map_bounded(curve, alpha).solution
    assert folded.folded == 2 and len(assemblies) == calls + 1
    assert _full_solution(curve, alpha) is full


def test_rectangle_context_with_any_gamma_takes_the_full_path():
    # gamma = x is odd under x -> 1 - x, so no fold could represent its solution
    curve = make_rectangle(1.3, 64)
    ctx = context(curve, 0.5 + 0.65j)
    gamma = curve.eta.real
    sol = solve_neumann_system(ctx, gamma)
    N, M1 = ctx.matrices()
    n, w = curve.n, curve.weight
    rhs = conjugate_periodic(gamma) - w * (M1 @ gamma)
    rho = np.linalg.solve(np.eye(n) - w * N, rhs)
    M_rho = -conjugate_periodic(rho) + w * (M1 @ rho)
    h = np.mean(0.5 * (M_rho - gamma + w * (N @ gamma)))
    assert not sol.folded
    np.testing.assert_allclose(sol.rho, rho, atol=1e-12)
    assert abs(sol.h - h) < 1e-13
