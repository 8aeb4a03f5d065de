"""Conformal maps onto the unit disk built from the integral equation.

The curve's orientation decides the domain: a counterclockwise curve
bounds a bounded domain with interior base point alpha, a clockwise one
an unbounded domain with auxiliary point beta in the bounded complement.
Both solve the same equation with gamma = -log|eta - base| and differ
only in the auxiliary function A of the kernel: A = eta - alpha in the
first case, A = 1 in the second. With g = gamma + h + i rho on the
boundary, the analytic completion f has boundary values g / A and

    Phi(z) = e^{-h} (z - base) exp(A(z) f(z)),

which sends the bounded domain onto the unit disk with alpha -> 0, and
the unbounded one onto the exterior of the unit disk with f(infinity) = 0.
In both cases |Phi| = 1 on the boundary and e^h is the conformal radius.

map_bounded and map_unbounded refuse a curve of the other orientation
and share one core, _solve_map: it picks the base, builds the kernel
context (kernel.context, which reads A off the orientation) and refolds
it. The maps own the base point. Given, it is checked in kernel.context
by curves._base_ok, the one test of a base (winding number +1 for a
counterclockwise curve, -1 for a clockwise one); left out, _base_point
picks one that passes it, the curve's symmetry centre where it has one.
The invariants pass their optional bases straight through.

Folding is a property of the curve and the base: when the base lies
exactly on mirrors that the curve declares (an ellipse's axes, a
rectangle's midlines, an opened slit disk's real axis), both maps solve
the half- or quarter-size system those mirrors leave (see kernel). A
solve that ends a hair above the GMRES tolerance is refined in long
double precision before it can fail.

Interior values of f come from the boundary values by barycentric-
normalized Cauchy integrals, and Phi is then evaluated through its
closed-form expression in f. _evaluate gives the inside flags (winding
number) and Phi from one pass over the boundary nodes; cauchy_eval and
the invariants' grid fields both read it. The distance to the nearest
node is a pass of its own, curves.boundary_clearance: cauchy_eval warns
from it, and the grid fields decide their standoff before _evaluate, so
that only the nodes that clear it pay for the sums. What the invariants
need afterwards lies on the unit circle and is closed-form there, so it
lives in invariants, not here.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

# winding_inside: unused here, but perfbench/spans.py times location under this name
from .curves import (BoundaryCurve, _base_ok, _boundary_sums, _check_slit,  # noqa: F401
                     boundary_clearance, node_spacing_scale, winding_inside)
from .kernel import GnkSolution, _mirror_fold, context, solve_neumann_system

__all__ = [
    "DiskMap",
    "map_bounded",
    "map_unbounded",
    "cauchy_eval",
    "slit_opening_forward",
]

_BASE_GRID = 32  # cells per side of the grid that default base points come from


@dataclass
class DiskMap:
    """A solved mapping problem: boundary data plus evaluation ingredients."""

    curve: BoundaryCurve
    base: complex             # alpha (ccw curve) or beta (cw curve)
    f_boundary: np.ndarray    # boundary values of the analytic completion f
    phi_boundary: np.ndarray  # boundary correspondence Phi(eta(t))
    solution: GnkSolution     # density, h and solver diagnostics

    @property
    def h(self) -> float:
        """Mapping constant; e^h is the conformal radius."""
        return self.solution.h


def _solve_map(curve: BoundaryCurve, base: complex | None, x0: np.ndarray | None = None) -> DiskMap:
    base = _base_point(curve, base)
    ctx = replace(context(curve, base), fold=_mirror_fold(curve, base))
    dz = curve.eta - base
    gamma = -np.log(np.abs(dz))
    sol = solve_neumann_system(ctx, gamma, x0=x0)
    g = gamma + sol.h + 1j * sol.rho
    phi = np.exp(-sol.h) * dz * np.exp(g)
    return DiskMap(curve=curve, base=base, f_boundary=g / ctx.A,
                   phi_boundary=phi, solution=sol)


def _base_point(curve: BoundaryCurve, base: complex | None) -> complex:
    """base, or else a point with the winding number the disk map needs.

    That is +1 (inside) for a counterclockwise curve and -1 (in the bounded
    complement) for a clockwise one. The crossing of a curve's two declared
    mirrors (its symmetry centre, where a disk map folds both), else the
    node mean, is taken when it qualifies; otherwise the qualifying cell
    centre of a coarse grid over the curve's bounding box that lies
    farthest from the nodes.
    """
    if base is not None:
        return complex(base)
    # two mirrors are declared through their crossing
    first = curve.mirrors[0].point if len(curve.mirrors) == 2 else complex(np.mean(curve.eta))
    if _base_ok(curve, first)[0]:
        return first
    s = (np.arange(_BASE_GRID) + 0.5) / _BASE_GRID
    x, y = curve.eta.real, curve.eta.imag
    z = ((x.min() + s * np.ptp(x))[None, :] + 1j * (y.min() + s * np.ptp(y))[:, None]).ravel()
    cells = z[_base_ok(curve, z)]
    if not cells.size:
        raise ValueError("found no default base point; give one")
    return complex(cells[np.argmax(boundary_clearance(curve, cells))])


def map_bounded(curve: BoundaryCurve, alpha: complex | None = None,
                x0: np.ndarray | None = None) -> DiskMap:
    """Conformal map of the interior of the curve onto the unit disk, alpha -> 0.

    alpha defaults to _base_point's choice.
    """
    if curve.orientation != "ccw":
        raise ValueError("bounded mode expects a counterclockwise curve")
    return _solve_map(curve, alpha, x0)


def map_unbounded(curve: BoundaryCurve, beta: complex | None = None) -> DiskMap:
    """Map of the unbounded domain onto the exterior of the unit circle.

    beta is any point of the bounded complement, by default _base_point's
    choice; the resulting constant h (and with it the conformal radius e^h
    of the domain at infinity) does not depend on it.
    """
    if curve.orientation != "cw":
        raise ValueError("unbounded mode expects a clockwise curve")
    return _solve_map(curve, beta)


def _evaluate(dmap: DiskMap, z: np.ndarray):
    """Inside flags and Phi at flat points z, from one pass over the nodes.

    f is the barycentric-normalized discrete Cauchy integral, whose numerator
    and denominator share their dominant quadrature error. The unbounded mode
    adds the residue 2 pi i at infinity to the denominator: the clockwise
    boundary sum of 1/(eta - z) vanishes in the exterior domain. Phi follows
    from f in closed form; at points outside the domain it is meaningless
    and raises no floating-point warning.
    """
    inside, rows, num = _boundary_sums(dmap.curve, z, dmap.f_boundary)
    ccw = dmap.curve.orientation == "ccw"
    dz = z - dmap.base
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        f = num / (rows if ccw else rows + 2j * np.pi)
        return inside, np.exp(-dmap.h) * dz * np.exp(dz * f if ccw else f)


def cauchy_eval(dmap: DiskMap, z) -> np.ndarray:
    """Evaluate the conformal map at points of the domain.

    One pass over the boundary nodes both locates the points and forms
    their Cauchy sums. Raises ValueError for points outside the domain;
    points within about five node spacings of the boundary trigger an
    accuracy warning.
    """
    z_arr = np.atleast_1d(np.asarray(z, dtype=complex))
    scalar = np.asarray(z).ndim == 0
    inside, phi = _evaluate(dmap, z_arr.ravel())
    if not np.all(inside):
        raise ValueError("evaluation point outside the domain")
    if np.any(boundary_clearance(dmap.curve, z_arr) < 5.0 * node_spacing_scale(dmap.curve)):
        warnings.warn("evaluation point close to the boundary; "
                      "accuracy degrades there", stacklevel=2)
    phi = phi.reshape(z_arr.shape)
    return phi[0] if scalar else phi


def slit_opening_forward(case: str, r: float, z, a: float = 0.0) -> np.ndarray:
    """Opening map of the slit disk families, for points off the slit.

    G1: 2 sqrt(r) sqrt(z); G2: 2 i sqrt(r) sqrt(z - r) with the branch
    cut along the positive reals; G3: 2 sqrt(r - a) sqrt(z - a). Each is
    normalized to unit derivative at the family's base point.
    """
    _check_slit(case, r, a)
    z = np.asarray(z, dtype=complex)
    if case == "G2":
        if np.any((z.imag == 0.0) & (z.real >= r)):
            raise ValueError("point lies on the slit")
        # 2 i sqrt(r) sqrt_+(z - r) = -2 sqrt(r) sqrt(r - z), principal branch
        return -2.0 * np.sqrt(r) * np.sqrt(r - z)
    if np.any((z.imag == 0.0) & (z.real <= a)):
        raise ValueError("point lies on the slit")
    return 2.0 * np.sqrt(r - a) * np.sqrt(z - a)
