"""Boundary integral equation with the generalized Neumann kernel.

For a curve eta(t) and an auxiliary function A(t) the kernels are

    N(s,t) = (1/pi) Im[ (A(s)/A(t)) eta'(t) / (eta(t) - eta(s)) ]
    M(s,t) = (1/pi) Re[ (A(s)/A(t)) eta'(t) / (eta(t) - eta(s)) ]

with A(t) = eta(t) - alpha for a bounded domain (alpha interior) and
A(t) = 1 for an unbounded one. N is continuous; M has a cotangent
singularity, split off as

    M(s,t) = -(1/(2 pi)) cot((s-t)/2) + M1(s,t)

where M1 is continuous. The singular part acts on densities as minus the
periodic conjugation operator and is applied spectrally; only N and M1
are discretized by the trapezoidal rule (uniform weight 2 pi / n, with
corner nodes carrying zero weight because eta' vanishes there).

Diagonal entries of the assembled matrices are not taken from the
pointwise limits. Instead they enforce the exact row integrals

    integral of N(s, .) over a period = -1
    integral of M1(s, .) over a period = 0

so each diagonal equals the defect of the off-diagonal trapezoidal row
sum. On smooth rows this agrees with the analytic limit up to the
(superalgebraically small) quadrature error, while at rows near corners
it absorbs the interior-angle jump factor that the pointwise limit
misses. This keeps graded corner meshes fully accurate and needs no
second derivative of the curve.

Solving (I - N) rho = -M gamma for the real density rho and averaging

    h = (M rho - (I - N) gamma) / 2

yields the constant h that the conformal mapping modules consume.

GMRES stops at _GMRES_TOL, near the float64 floor, so rounding can leave
a pass a hair above it. Only then, where the solve would otherwise raise,
one correction solve runs on the residual formed in long double precision
(in row blocks), its iterations taken from the same _MAX_ITERS budget,
and ConvergenceError is raised only if the true residual still misses
_GMRES_TOL. Solves that pass GMRES outright never take this path. Where
long double is float64, the correction adds no precision.

Mirror symmetry is a property of the curve and the base, not of one
domain. A builder declares the mirrors that send its nodes onto nodes
(curves.Mirror): node i goes to (a - i) mod n across a line. When the
base lies exactly on one mirror, or on two whose offsets differ by n/2,
gamma = -log|eta - base| is even under them and rho is odd, so only the
nodes q between adjacent fixed points are unknown (_mirror_fold). A
context assembles just the rows of q and of the fixed nodes, at full
width, and GMRES runs on the folded square matrix N[q, q] - N[q, s1]
(one mirror), or N[q, q] - N[q, s1] - N[q, s2] + N[q, s12] (two), where
s1, s2 and s12 are the images of q under the mirrors and their product
(Allgower, Georg and Miranda, SIAM J. Numer. Anal. 1992). The full
system is the fold by no mirrors, the identity: q and the rows are all
n nodes and there is no image, so every solve takes the one path.

A context is a curve, its base and a fold; the curve's orientation is
the mode. context(curve, base) checks the base with curves._base_ok and
stores alpha = base for a counterclockwise curve, so A = eta - alpha, and
alpha = None for a clockwise one, where A = 1 and the base enters only
gamma. It has the identity fold and stays the reference for the folded
contexts, which the disk maps make with
dataclasses.replace(ctx, fold=_mirror_fold(curve, base)). A context
caches nothing: matrices() assembles on every call, and a solve calls it
once.

Solves are memoized by content: solve_neumann_system keeps the last
_MEMO_SIZE solutions in a least-recently-used table keyed on a blake2b
hash of the bytes of eta, eta', A and gamma, and on the folded mirrors.
A repeat of the same problem in one process, even on a curve rebuilt
from the same data, skips assembly and GMRES and returns the stored
solution with the same bits. Only the O(n) solution is kept, never
the n^2 matrices. Warm-started solves (an x0) and failed solves are not
memoized, and a folded solve never answers for a full one or back.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.sparse.linalg import LinearOperator, gmres

from .curves import BoundaryCurve, _base_ok, _row_blocks

__all__ = [
    "KernelContext",
    "context",
    "conjugate_periodic",
    "GnkSolution",
    "ConvergenceError",
    "solve_neumann_system",
]


class ConvergenceError(RuntimeError):
    """GMRES failed to reach the requested tolerance."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class KernelContext:
    """A curve, the interior base alpha of a bounded domain (None if unbounded), the fold."""

    curve: BoundaryCurve
    alpha: complex | None
    fold: _MirrorFold

    @property
    def n(self) -> int:
        return self.curve.n

    @property
    def A(self) -> np.ndarray:
        """The auxiliary function at the nodes: eta - alpha, or 1 if unbounded."""
        if self.alpha is None:
            return np.ones(self.n, dtype=complex)
        return self.curve.eta - self.alpha

    def matrices(self):
        """Dense Nystroem matrices (N, M1) at the fold's rows, assembled on every call."""
        return _assemble(self)


def context(curve: BoundaryCurve, base: complex) -> KernelContext:
    """The unfolded kernel context of the disk map of curve at base.

    base is the interior point alpha of a counterclockwise curve's domain,
    or a point beta of a clockwise curve's bounded complement; it must pass
    curves._base_ok. Only alpha enters the kernels.
    """
    base = complex(base)
    bounded = curve.orientation == "ccw"
    # a non-finite base, or one on a node, gets nan winding sums and fails
    if not _base_ok(curve, base)[0][0]:
        raise ValueError("base point alpha must lie inside the domain" if bounded
                         else "auxiliary point beta must lie in the bounded complement")
    return KernelContext(curve, base if bounded else None, _mirror_fold(curve, None))


@dataclass(frozen=True)
class _MirrorFold:
    """One mirror, or two whose offsets differ by n/2, of a curve's nodes.

    Mirror k maps node i to (a_k - i) mod n. q holds the unknowns: with one
    mirror the half-turn of nodes strictly between its two fixed points,
    with two the nodes strictly between adjacent fixed points of the two.
    images pairs each other element of the group the mirrors generate with
    its sign and its image of q: -1 for a mirror, +1 for the product of
    two. fixed holds the nodes a mirror fixes; rows is q followed by fixed.
    offsets records the folded mirrors' a_k. The identity, the fold by no
    mirrors, has every node in q and rows, and no image or fixed node.
    """

    n: int
    offsets: tuple
    q: np.ndarray
    images: tuple
    fixed: np.ndarray
    rows: np.ndarray

    def fold(self, Nq: np.ndarray) -> np.ndarray:
        """The folded matrix from the rows q of a matrix (full width)."""
        if not self.images:  # the identity: Nq itself, no n^2 copy
            return Nq
        folded = np.take(Nq, self.q, axis=1)
        for sign, idx in self.images:
            (np.add if sign > 0 else np.subtract)(folded, np.take(Nq, idx, axis=1), out=folded)
        return folded

    def unfold(self, x: np.ndarray) -> np.ndarray:
        """The density that is x on q and odd under each mirror."""
        rho = np.zeros(self.n)
        rho[self.q] = x
        for sign, idx in self.images:
            rho[idx] = sign * x
        return rho

    def mean(self, values: np.ndarray) -> float:
        """Mean over all n nodes of an even function given at rows."""
        m, order = self.q.size, len(self.images) + 1.0  # q stands for its group images
        return float((order * np.sum(values[:m]) + np.sum(values[m:])) / self.n)


def _mirror_fold(curve: BoundaryCurve, base: complex | None) -> _MirrorFold:
    """The fold over the curve's declared mirrors that hold base exactly.

    With no such mirror (or base None) it is the identity, the full system.
    """
    # base on the line exactly, with no tolerance
    mirrors = [m for m in curve.mirrors if base is not None
               and ((base - m.point) * m.direction.conjugate()).imag == 0.0]
    n, i = curve.n, np.arange(curve.n)
    if not mirrors:
        return _MirrorFold(n=n, offsets=(), q=i, images=(), fixed=i[:0], rows=i)
    a = mirrors[0].a
    if len(mirrors) > 2 or (len(mirrors) == 2 and (mirrors[1].a - a) % n != n // 2):
        raise ValueError("a fold takes one mirror, or two whose offsets differ by n/2")
    maps = [(m.a - i) % n for m in mirrors]
    q = i[(a < 2 * i) & (2 * i < a + n // len(maps))]
    images = [(-1.0, s[q]) for s in maps]
    if len(maps) == 2:
        images.append((1.0, maps[0][maps[1][q]]))
    fixed = i[np.any([s == i for s in maps], axis=0)]
    return _MirrorFold(n=n, offsets=tuple(m.a for m in mirrors), q=q, images=tuple(images),
                       fixed=fixed, rows=np.concatenate((q, fixed)))


def _cot_row(n: int) -> np.ndarray:
    # cot(pi m / n) for m = 0..n-1 (index 0 unused; cot has period pi so
    # negative offsets reduce to the same table, read through _circulant)
    m = np.arange(n, dtype=float)
    with np.errstate(divide="ignore"):
        c = 1.0 / np.tan(np.pi * m / n)
    c[0] = 0.0
    if n % 2 == 0:
        c[n // 2] = 0.0
    return c


def _circulant(row: np.ndarray) -> np.ndarray:
    """Read-only (n, n) view C[i, j] = row[(i - j) % n] on 2n stored values."""
    n = row.shape[0]
    doubled = np.concatenate((row, row))[::-1]
    return sliding_window_view(doubled, n)[::-1][1:]


def _assemble(ctx: KernelContext):
    """The rows of (N, M1) that the context's fold holds, at full width, in row blocks.

    The blocks and their node differences come from curves._row_blocks,
    so the temporaries stay in cache and peak memory is the assembled
    rows plus a few MB; under the identity fold those are all of N and
    M1. The cotangent correction is added from a circulant view of one
    table row. Each entry and row sum is formed in the same order
    whatever the block size, and a row has the same bits whichever rows
    are built.

    Diagonals come from the row-sum rule: with weight w = 2 pi / n,
    w * sum_j N[i, j] = -1 and w * sum_j M1[i, j] = 0 exactly.
    """
    cv = ctx.curve
    n = cv.n
    rows, A = ctx.fold.rows, ctx.A
    z = cv.eta[rows]  # where the rows' nodes lie
    col = np.zeros(n, dtype=complex)
    nz = cv.deta != 0.0  # corner columns stay exactly zero
    col[nz] = cv.deta[nz] / (A[nz] * np.pi)
    cot = _circulant(_cot_row(n) / (2.0 * np.pi))
    N = np.empty((z.size, n), dtype=float)
    M1 = np.empty((z.size, n), dtype=float)
    inv_w = n / (2.0 * np.pi)
    for out, diff in _row_blocks(z.size, n, cv.eta, z):
        src = rows[out]  # the indices of these rows' nodes
        Nb, Mb = N[out], M1[out]
        diag = (np.arange(Nb.shape[0]), np.arange(n)[src])
        diff[diag] = 1.0  # placeholder, diagonal set below
        kblock = (A[src, None] / diff) * col[None, :]
        Nb[...] = kblock.imag
        Mb[...] = kblock.real
        Mb += cot[src]
        Nb[diag] = 0.0
        Mb[diag] = 0.0
        Nb[diag] = -inv_w - Nb.sum(axis=1)
        Mb[diag] = -Mb.sum(axis=1)
    return N, M1


def conjugate_periodic(values: np.ndarray) -> np.ndarray:
    """Periodic conjugation: multiplier -i sgn(k), zero mean and Nyquist.

    Sends cos(k t) to sin(k t) and sin(k t) to -cos(k t).
    """
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    if n % 2:
        raise ValueError("sample count must be even")
    k = np.fft.rfftfreq(n, d=1.0 / n)
    mult = -1j * np.sign(k)
    mult[-1] = 0.0  # Nyquist
    return np.fft.irfft(mult * np.fft.rfft(values), n)


@dataclass(frozen=True)
class GnkSolution:
    """Density rho, the mapping constant h, and solver diagnostics.

    refine_iters counts the GMRES iterations of the extended-precision
    correction (0 when the first GMRES pass succeeded), and folded is the
    number of mirrors folded out of the system (0 for a full solve).

    Frozen, with a read-only view of rho, because memoized solutions are
    shared between callers.
    """

    rho: np.ndarray
    h: float
    h_spread: float
    gmres_iters: int
    residual: float
    refine_iters: int = 0
    folded: int = 0

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=float).view()
        rho.flags.writeable = False
        object.__setattr__(self, "rho", rho)


_MEMO_SIZE = 8
_memo: OrderedDict = OrderedDict()  # key -> GnkSolution, least recent first

_GMRES_TOL = 0.5e-14  # relative residual GMRES stops at, near the float64 floor
_MAX_ITERS = 100  # GMRES iterations per solve, the correction's included
_REFINE_TOL = 1e-8  # relative tolerance of the correction solve


def _memo_key(ctx: KernelContext, gamma: np.ndarray):
    digest = hashlib.blake2b(digest_size=16)
    for arr in (ctx.curve.eta, ctx.curve.deta, ctx.A, gamma):
        digest.update(arr.tobytes())
    return digest.digest(), ctx.fold.offsets


def _gmres(op, b, x0, rtol, budget):
    """One GMRES cycle of at most budget iterations: (x, info, iterations)."""
    history = []
    x, info = gmres(op, b, x0=x0, rtol=rtol, atol=0.0, restart=budget, maxiter=1,
                    callback=lambda pr: history.append(pr), callback_type="pr_norm")
    return x, info, len(history)


def _residual_longdouble(A: np.ndarray, w: float, x: np.ndarray, b: np.ndarray):
    """b - (x - w A x) formed in np.longdouble, in row blocks of A."""
    xl = x.astype(np.longdouble)
    wl = np.longdouble(w)
    r = np.empty(b.shape, dtype=np.longdouble)
    for sl in _row_blocks(*A.shape):
        r[sl] = b[sl] - (xl[sl] - wl * (A[sl].astype(np.longdouble) @ xl))
    return r.astype(float)


def _solve_dense(A: np.ndarray, b: np.ndarray, w: float, x0):
    """GMRES on (I - w A) x = b: (x, iterations, correction iterations, residual).

    Where GMRES stops early above the tolerance, the usual case being its
    recurrence residual crossing _GMRES_TOL while the true one sits a hair
    above it at the float64 floor, one correction solve on the residual
    formed in long double precision gets a second chance. Its iterations
    come out of the same _MAX_ITERS budget. ConvergenceError is raised only
    if the true residual still misses _GMRES_TOL. A zero b needs no
    branch: GMRES returns x = b = 0 before its first iteration.
    """
    m = b.shape[0]
    b_norm = float(np.linalg.norm(b))
    refine = 0
    op = LinearOperator((m, m), matvec=lambda v: v - w * (A @ v), dtype=float)
    x, info, iters = _gmres(op, b, x0, _GMRES_TOL, _MAX_ITERS)

    def true_residual(x):  # relative, not GMRES's recurrence estimate
        res = float(np.linalg.norm(x - w * (A @ x) - b))
        return res / (b_norm if b_norm > 0.0 else 1.0)

    residual = true_residual(x)
    if info != 0 and iters < _MAX_ITERS:
        r = _residual_longdouble(A, w, x, b)
        d, _, refine = _gmres(op, r, None, _REFINE_TOL, _MAX_ITERS - iters)
        x = x + d
        residual = true_residual(x)
        info = 0 if residual <= _GMRES_TOL else info
    if info != 0:
        raise ConvergenceError(
            f"GMRES did not reach tol {_GMRES_TOL:g} within "
            f"{_MAX_ITERS} iterations (residual {residual:.3e})", residual)
    return x, iters, refine, residual


def solve_neumann_system(ctx: KernelContext, gamma: np.ndarray,
                         x0: np.ndarray | None = None) -> GnkSolution:
    """Solve (I - N) rho = -M gamma, then form h = (M rho - (I - N) gamma)/2.

    gamma is the real boundary data of the mapping problem. The returned
    h is the average of the pointwise values; their spread h_spread is a
    useful self-check (it vanishes with the discretization error).

    gamma must be even under each mirror of the context's fold (see
    _mirror_fold); rho is then odd under each, and GMRES runs on the rows
    q of the folded matrix, N[q, q] plus N[q, image] times the image's sign
    for each group image of q, with x0 restricted to q. h is the mean of
    the pointwise values at q (weighted by the group order) and at the
    fixed nodes (weight 1), and residual is the folded system's. Under the
    identity fold (a context from context()) these are the full system,
    the plain mean and its residual, and gamma may be any data. M rho is
    the spectral cotangent part plus M1 rho, from the M1 of this solve.

    Without x0, the solution is memoized on a hash of eta, eta', A and
    gamma, and on which mirrors were folded: a repeat returns the stored
    GnkSolution, including the gmres_iters, refine_iters and residual of
    the solve that produced it, without assembling or iterating. A warm
    start x0 bypasses the memo, since it changes the last bits of rho. A
    ConvergenceError is raised afresh on every call and never stored.
    """
    gamma = np.asarray(gamma, dtype=float)
    n = ctx.n
    if gamma.shape != (n,):
        raise ValueError("gamma must match the curve's node count")
    if n % 2:
        raise ValueError("node count must be even")
    key = None if x0 is not None else _memo_key(ctx, gamma)
    if key in _memo:
        _memo.move_to_end(key)
        return _memo[key]
    N, M1 = ctx.matrices()
    w, fold = ctx.curve.weight, ctx.fold
    m = fold.q.size
    rhs = conjugate_periodic(gamma)[fold.q] - w * (M1[:m] @ gamma)
    x, iters, refine, residual = _solve_dense(
        fold.fold(N[:m]), rhs, w, None if x0 is None else x0[fold.q])
    rho = fold.unfold(x)
    M_rho = -conjugate_periodic(rho)[fold.rows] + w * (M1 @ rho)
    h_pw = 0.5 * (M_rho - gamma[fold.rows] + w * (N @ gamma))
    h = fold.mean(h_pw)
    spread = float(np.max(np.abs(h_pw - h)))
    sol = GnkSolution(rho=rho, h=h, h_spread=spread, gmres_iters=iters, residual=residual,
                      refine_iters=refine, folded=len(fold.offsets))
    if key is not None:
        _memo[key] = sol
        if len(_memo) > _MEMO_SIZE:
            _memo.popitem(last=False)
    return sol
