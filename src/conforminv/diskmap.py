"""Conformal maps onto the unit disk built from the integral equation.

For a bounded domain with interior point alpha the map is

    Phi(z) = c (z - alpha) exp((z - alpha) f(z)),

where the boundary values of f follow from the solved density via
A f = gamma + h + i rho with gamma = -log|eta - alpha|, and c = e^{-h}
normalizes |Phi| = 1 on the boundary ("unit" normalization; omitting c
gives Phi'(alpha) = 1 instead, mapping onto a disk of radius e^h).

For an unbounded domain (clockwise boundary, auxiliary point beta in the
bounded complement) the map is Phi(z) = c (z - beta) exp(f(z)) with
f(infinity) = 0, sending the domain onto the exterior of a disk.

Interior values of f come from the boundary values by barycentric-
normalized Cauchy integrals, and Phi is then evaluated through its
closed-form expression in f. The Cauchy sums and point location (winding
number, nearest-node distance) share one pass over the boundary nodes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

# boundary_clearance, winding_inside: perfbench/spans.py times location under these names
from .curves import (BoundaryCurve, _boundary_sums, boundary_clearance,  # noqa: F401
                     node_spacing_scale, winding_inside, winding_number)
from .kernel import (GnkSolution, SolveConfig, bounded_context, solve_neumann_system,
                     unbounded_context)

__all__ = [
    "DiskMap",
    "map_bounded",
    "map_unbounded",
    "cauchy_eval",
    "Mobius",
    "mobius_three_points",
    "slit_opening_forward",
]


@dataclass
class DiskMap:
    """A solved mapping problem: boundary data plus evaluation ingredients."""

    mode: str                 # "bounded" or "unbounded"
    curve: BoundaryCurve
    base: complex             # alpha (bounded) or beta (unbounded)
    normalization: str        # "unit" or "deriv"
    f_boundary: np.ndarray    # boundary values of the analytic completion f
    phi_boundary: np.ndarray  # boundary correspondence Phi(eta(t))
    h: float                  # mapping constant; e^h is the conformal radius
    c: float                  # applied scale factor (e^{-h} or 1)
    solution: GnkSolution     # solver diagnostics


def map_bounded(curve: BoundaryCurve, alpha: complex, normalization: str = "unit",
                cfg: SolveConfig | None = None, x0: np.ndarray | None = None) -> DiskMap:
    """Conformal map of the interior of the curve onto a disk, alpha -> 0."""
    if normalization not in ("unit", "deriv"):
        raise ValueError("normalization must be 'unit' or 'deriv'")
    ctx = bounded_context(curve, alpha)
    gamma = -np.log(np.abs(ctx.A))
    sol = solve_neumann_system(ctx, gamma, cfg, x0=x0)
    c = float(np.exp(-sol.h)) if normalization == "unit" else 1.0
    f = (gamma + sol.h + 1j * sol.rho) / ctx.A
    phi = c * ctx.A * np.exp(gamma + sol.h + 1j * sol.rho)
    return DiskMap(mode="bounded", curve=curve, base=complex(alpha),
                   normalization=normalization, f_boundary=f, phi_boundary=phi,
                   h=sol.h, c=c, solution=sol)


def map_unbounded(curve: BoundaryCurve, beta: complex,
                  cfg: SolveConfig | None = None) -> DiskMap:
    """Map of the unbounded domain onto the exterior of the unit circle.

    beta is any point of the bounded complement; the resulting constant
    h (and with it the conformal radius e^h of the domain at infinity)
    does not depend on the choice.
    """
    ctx = unbounded_context(curve)
    beta = complex(beta)
    if np.rint(winding_number(curve, beta)[0]) != -1.0:
        raise ValueError("auxiliary point beta must lie in the bounded complement")
    gamma = -np.log(np.abs(curve.eta - beta))
    sol = solve_neumann_system(ctx, gamma, cfg)
    c = float(np.exp(-sol.h))
    f = gamma + sol.h + 1j * sol.rho
    phi = c * (curve.eta - beta) * np.exp(f)
    return DiskMap(mode="unbounded", curve=curve, base=beta,
                   normalization="unit", f_boundary=f, phi_boundary=phi,
                   h=sol.h, c=c, solution=sol)


def _cauchy_pass(dmap: DiskMap, z: np.ndarray):
    """Inside flags, node clearances and f at flat points z, from one pass.

    f is the barycentric-normalized discrete Cauchy integral, whose numerator
    and denominator share their dominant quadrature error. The unbounded mode
    adds the residue 2 pi i at infinity to the denominator: the clockwise
    boundary sum of 1/(eta - z) vanishes in the exterior domain.
    """
    inside, rows, num, clearance = _boundary_sums(dmap.curve, z, dmap.f_boundary)
    den = rows + 2j * np.pi if dmap.mode == "unbounded" else rows
    with np.errstate(divide="ignore", invalid="ignore"):
        return inside, clearance, num / den


def _phi(dmap: DiskMap, z: np.ndarray, f: np.ndarray) -> np.ndarray:
    dz = z - dmap.base
    return dmap.c * dz * np.exp(dz * f if dmap.mode == "bounded" else f)


def cauchy_eval(dmap: DiskMap, z) -> np.ndarray:
    """Evaluate the conformal map at points of the domain.

    One pass over the boundary nodes both locates the points and forms
    their Cauchy sums. Raises ValueError for points outside the domain;
    points within about five node spacings of the boundary trigger an
    accuracy warning.
    """
    z_arr = np.atleast_1d(np.asarray(z, dtype=complex))
    scalar = np.asarray(z).ndim == 0
    inside, clearance, f = _cauchy_pass(dmap, z_arr)
    if not np.all(inside):
        raise ValueError("evaluation point outside the domain")
    if np.any(clearance < 5.0 * node_spacing_scale(dmap.curve)):
        warnings.warn("evaluation point close to the boundary; "
                      "accuracy degrades there", stacklevel=2)
    phi = _phi(dmap, z_arr.ravel(), f).reshape(z_arr.shape)
    return phi[0] if scalar else phi


@dataclass(frozen=True)
class Mobius:
    """Moebius transform (a z + b) / (c z + d)."""

    a: complex
    b: complex
    c: complex
    d: complex

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        return (self.a * z + self.b) / (self.c * z + self.d)

    def inverse(self) -> "Mobius":
        return Mobius(self.d, -self.b, -self.c, self.a)


def _to_zero_one_inf(z1: complex, z2: complex, z3: complex) -> np.ndarray:
    # matrix of the transform sending (z1, z2, z3) to (0, 1, infinity)
    return np.array([[z2 - z3, -z1 * (z2 - z3)],
                     [z2 - z1, -z3 * (z2 - z1)]], dtype=complex)


def mobius_three_points(sources, targets) -> Mobius:
    """The unique Moebius transform mapping three points to three points.

    Both triples must consist of pairwise distinct finite points.
    """
    src = [complex(v) for v in sources]
    tgt = [complex(v) for v in targets]
    if len(src) != 3 or len(tgt) != 3:
        raise ValueError("need exactly three sources and three targets")
    for tri in (src, tgt):
        if tri[0] == tri[1] or tri[0] == tri[2] or tri[1] == tri[2]:
            raise ValueError("anchor points must be pairwise distinct")
    ms = _to_zero_one_inf(*src)
    mt = _to_zero_one_inf(*tgt)
    mt_inv = np.array([[mt[1, 1], -mt[0, 1]], [-mt[1, 0], mt[0, 0]]], dtype=complex)
    m = mt_inv @ ms
    return Mobius(m[0, 0], m[0, 1], m[1, 0], m[1, 1])


def slit_opening_forward(case: str, r: float, z, a: float = 0.0) -> np.ndarray:
    """Opening map of the slit disk families, for points off the slit.

    G1: 2 sqrt(r) sqrt(z); G2: 2 i sqrt(r) sqrt(z - r) with the branch
    cut along the positive reals; G3: 2 sqrt(r - a) sqrt(z - a). Each is
    normalized to unit derivative at the family's base point.
    """
    if case not in ("G1", "G2", "G3"):
        raise ValueError("case must be 'G1', 'G2' or 'G3'")
    if case in ("G1", "G2") and a != 0.0:
        raise ValueError(f"{case} has no offset parameter")
    if not 0.0 <= a < r < 1.0:
        raise ValueError("parameters must satisfy 0 <= a < r < 1")
    z = np.asarray(z, dtype=complex)
    if case == "G2":
        if np.any((z.imag == 0.0) & (z.real >= r)):
            raise ValueError("point lies on the slit")
        # 2 i sqrt(r) sqrt_+(z - r) = -2 sqrt(r) sqrt(r - z), principal branch
        return -2.0 * np.sqrt(r) * np.sqrt(r - z)
    if np.any((z.imag == 0.0) & (z.real <= a)):
        raise ValueError("point lies on the slit")
    return 2.0 * np.sqrt(r - a) * np.sqrt(z - a)
