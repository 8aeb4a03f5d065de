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

Solves are memoized by content: solve_neumann_system keeps the last
_MEMO_SIZE solutions in a least-recently-used table keyed on a blake2b
hash of the bytes of eta, eta', A and gamma together with the solver
settings. A repeat of the same problem in one process, even on a curve
rebuilt from the same data, skips assembly and GMRES and returns the
stored solution with the same bits. Only the O(n) solution is kept, never
the n^2 matrices. Warm-started solves (an x0) and failed solves are not
memoized.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.sparse.linalg import LinearOperator, gmres

from .curves import _BLOCK_PAIRS, BoundaryCurve, winding_inside

__all__ = [
    "KernelContext",
    "bounded_context",
    "unbounded_context",
    "conjugate_periodic",
    "apply_M",
    "SolveConfig",
    "GnkSolution",
    "ConvergenceError",
    "solve_neumann_system",
]


class ConvergenceError(RuntimeError):
    """GMRES failed to reach the requested tolerance."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


@dataclass
class SolveConfig:
    """Linear solver controls for the integral equation."""

    gmres_tol: float = 0.5e-14
    max_iters: int = 100

    def __post_init__(self):
        if not 0.0 < self.gmres_tol < np.inf:
            raise ValueError("gmres_tol must be positive and finite")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


@dataclass
class KernelContext:
    """A curve together with the auxiliary function A defining the kernels."""

    curve: BoundaryCurve
    A: np.ndarray
    alpha: complex | None = None
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def n(self) -> int:
        return self.curve.n

    def matrices(self):
        """Dense Nystroem matrices (N, M1), assembled once and cached."""
        if "NM" not in self._cache:
            self._cache["NM"] = _assemble(self)
        return self._cache["NM"]


def bounded_context(curve: BoundaryCurve, alpha: complex) -> KernelContext:
    """Kernel data for a bounded domain: A(t) = eta(t) - alpha, alpha interior."""
    if curve.orientation != "ccw":
        raise ValueError("bounded mode expects a counterclockwise curve")
    alpha = complex(alpha)
    # a non-finite alpha, or one on a node, gets nan winding sums: outside
    if not winding_inside(curve, alpha):
        raise ValueError("base point alpha must lie inside the domain")
    return KernelContext(curve=curve, A=curve.eta - alpha, alpha=alpha)


def unbounded_context(curve: BoundaryCurve) -> KernelContext:
    """Kernel data for an unbounded domain: A(t) = 1."""
    if curve.orientation != "cw":
        raise ValueError("unbounded mode expects a clockwise curve")
    return KernelContext(curve=curve, A=np.ones(curve.n, dtype=complex), alpha=None)


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
    """Dense (N, M1) matrices, built in cache-sized row blocks.

    A block holds about curves._BLOCK_PAIRS entries, so the temporaries
    stay in cache and peak memory is N and M1 plus a few MB. The
    cotangent correction is added from a circulant view of one table row,
    with no per-block index array or gather. Each entry and row sum is
    formed in the same order whatever the block size.

    Diagonals come from the row-sum rule: with weight w = 2 pi / n,
    w * sum_j N[i, j] = -1 and w * sum_j M1[i, j] = 0 exactly.
    """
    cv = ctx.curve
    n = cv.n
    eta = cv.eta
    col = np.zeros(n, dtype=complex)
    nz = cv.deta != 0.0  # corner columns stay exactly zero
    col[nz] = cv.deta[nz] / (ctx.A[nz] * np.pi)
    cot = _circulant(_cot_row(n) / (2.0 * np.pi))
    N = np.empty((n, n), dtype=float)
    M1 = np.empty((n, n), dtype=float)
    inv_w = n / (2.0 * np.pi)
    block = max(1, min(n, _BLOCK_PAIRS // n))
    for r0 in range(0, n, block):
        rows = slice(r0, min(n, r0 + block))
        Nb, Mb = N[rows], M1[rows]
        diag = (np.arange(Nb.shape[0]), np.arange(r0, rows.stop))
        diff = eta[None, :] - eta[rows, None]
        diff[diag] = 1.0  # placeholder, diagonal set below
        kblock = (ctx.A[rows, None] / diff) * col[None, :]
        Nb[...] = kblock.imag
        Mb[...] = kblock.real
        Mb += cot[rows]
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


def apply_M(ctx: KernelContext, rho: np.ndarray) -> np.ndarray:
    """Application of the singular kernel M: spectral cotangent part plus M1."""
    _, M1 = ctx.matrices()
    rho = np.asarray(rho, dtype=float)
    return -conjugate_periodic(rho) + ctx.curve.weight * (M1 @ rho)


@dataclass(frozen=True)
class GnkSolution:
    """Density rho, the mapping constant h, and solver diagnostics.

    Frozen, with a read-only view of rho, because memoized solutions are
    shared between callers.
    """

    rho: np.ndarray
    h: float
    h_spread: float
    gmres_iters: int
    residual: float

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=float).view()
        rho.flags.writeable = False
        object.__setattr__(self, "rho", rho)


_MEMO_SIZE = 8
_memo: OrderedDict = OrderedDict()  # key -> GnkSolution, least recent first


def _memo_key(ctx: KernelContext, gamma: np.ndarray, cfg: SolveConfig):
    digest = hashlib.blake2b(digest_size=16)
    for arr in (ctx.curve.eta, ctx.curve.deta, ctx.A, gamma):
        digest.update(arr.tobytes())
    return digest.digest(), cfg.gmres_tol, cfg.max_iters


def solve_neumann_system(ctx: KernelContext, gamma: np.ndarray,
                         cfg: SolveConfig | None = None,
                         x0: np.ndarray | None = None) -> GnkSolution:
    """Solve (I - N) rho = -M gamma, then form h = (M rho - (I - N) gamma)/2.

    gamma is the real boundary data of the mapping problem. The returned
    h is the average of the pointwise values; their spread h_spread is a
    useful self-check (it vanishes with the discretization error).

    Without x0, the solution is memoized on a hash of eta, eta', A, gamma
    and cfg's gmres_tol and max_iters: a repeat returns the stored
    GnkSolution, including the gmres_iters and residual of the solve that
    produced it, without assembling or iterating. A warm start x0 bypasses
    the memo, since it changes the last bits of rho. A ConvergenceError is
    raised afresh on every call and never stored.
    """
    if cfg is None:
        cfg = SolveConfig()
    gamma = np.asarray(gamma, dtype=float)
    n = ctx.n
    if gamma.shape != (n,):
        raise ValueError("gamma must match the curve's node count")
    if n % 2:
        raise ValueError("node count must be even")
    key = None if x0 is not None else _memo_key(ctx, gamma, cfg)
    if key in _memo:
        _memo.move_to_end(key)
        return _memo[key]
    N, M1 = ctx.matrices()
    w = ctx.curve.weight
    rhs = conjugate_periodic(gamma) - w * (M1 @ gamma)
    rhs_norm = float(np.linalg.norm(rhs))
    iters, info = 0, 0
    if rhs_norm == 0.0:
        rho = np.zeros(n)
    else:
        op = LinearOperator((n, n), matvec=lambda v: v - w * (N @ v), dtype=float)
        history = []
        rho, info = gmres(
            op, rhs, x0=x0, rtol=cfg.gmres_tol, atol=0.0,
            restart=cfg.max_iters, maxiter=1,
            callback=lambda pr: history.append(pr), callback_type="pr_norm",
        )
        iters = len(history)
    # the true relative residual, not GMRES's recurrence estimate
    residual = float(np.linalg.norm(rho - w * (N @ rho) - rhs))
    residual /= rhs_norm if rhs_norm > 0.0 else 1.0
    if info != 0:
        raise ConvergenceError(
            f"GMRES did not reach tol {cfg.gmres_tol:g} within "
            f"{cfg.max_iters} iterations (residual {residual:.3e})", residual)
    h_pw = 0.5 * (apply_M(ctx, rho) - gamma + w * (N @ gamma))
    h = float(np.mean(h_pw))
    spread = float(np.max(np.abs(h_pw - h))) if n else 0.0
    sol = GnkSolution(rho=rho, h=h, h_spread=spread,
                      gmres_iters=iters, residual=residual)
    if key is not None:
        _memo[key] = sol
        if len(_memo) > _MEMO_SIZE:
            _memo.popitem(last=False)
    return sol
