"""Conformal invariants computed from the disk maps.

* hyperbolic distance between interior points, and fields of it on grids
* conformal radius and reduced modulus (bounded base point or infinity),
  including the slit-disk families via their opening maps
* harmonic measure of boundary sides between corners
* conformal modulus of quadrilaterals, by an iteration that adjusts a
  rectangle's aspect ratio until its four corners match the marked points

Both of the last two need only points on the unit circle once the domain
is mapped onto the disk, and both have closed forms there: the harmonic
measure of an arc through the angle it subtends, and the image of the
rectangle's fourth corner through the cross-ratio.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

# boundary_clearance, winding_inside, winding_number: perfbench/spans.py times
# point location under these names
from .curves import (BoundaryCurve, _clear_of, boundary_clearance,  # noqa: F401
                     make_opened_slit_disk, make_rectangle, node_spacing_scale,
                     winding_inside, winding_number)
from .diskmap import _evaluate, cauchy_eval, map_bounded, map_unbounded

__all__ = [
    "GridSpec",
    "ScalarField",
    "hyperbolic_distance",
    "hyperbolic_distance_field",
    "conformal_radius",
    "reduced_modulus",
    "reduced_modulus_slit_disk",
    "harmonic_measure",
    "harmonic_measure_all",
    "harmonic_measure_field",
    "QuadConfig",
    "QuadModulusTrace",
    "quad_modulus",
    "quad_modulus_general",
]

TWO_PI = 2.0 * math.pi
_QUAD_EPS = 0.5e-13  # the rectangle iteration stops once |r_k - r_{k-1}| < _QUAD_EPS
_QUAD_MAX_ITER = 50  # rectangle solves before the iteration reports non-convergence


# ----------------------------------------------------------------------
# grids and scalar fields
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class GridSpec:
    """Rectangular evaluation grid, nx by ny nodes inclusive of ends."""

    xmin: float
    xmax: float
    ymin: float
    ymax: float
    nx: int
    ny: int

    def __post_init__(self):
        if not np.all(np.isfinite([self.xmin, self.xmax, self.ymin, self.ymax])):
            raise ValueError("grid extents must be finite")
        if not (self.xmax > self.xmin and self.ymax > self.ymin):
            raise ValueError("grid extents must be nonempty")
        if self.nx < 2 or self.ny < 2:
            raise ValueError("need at least 2 nodes per direction")

    def axes(self):
        return (np.linspace(self.xmin, self.xmax, self.nx),
                np.linspace(self.ymin, self.ymax, self.ny))

    def mesh(self) -> np.ndarray:
        x, y = self.axes()
        return x[None, :] + 1j * y[:, None]  # shape (ny, nx)


@dataclass
class ScalarField:
    """Values of a scalar quantity on a grid, masked to the domain."""

    grid_x: np.ndarray
    grid_y: np.ndarray
    mask: np.ndarray    # True where the value was computed
    values: np.ndarray  # NaN where mask is False

    def write_csv(self, path):
        """Rows x,y,inside,value, x fastest, in the csv module's excel dialect."""
        xs = [f"{x:.15g}" for x in self.grid_x.tolist()]
        lines = ["x,y,inside,value"]
        for y, mask, values in zip(self.grid_y.tolist(), self.mask.tolist(),
                                   self.values.tolist()):
            y = f"{y:.15g}"
            lines += [f"{x},{y},1,{v:.15g}" if inside else f"{x},{y},0,nan"
                      for x, inside, v in zip(xs, mask, values)]
        with open(path, "w", newline="") as fh:
            fh.write("\r\n".join(lines) + "\r\n")

    def write_json(self, path):
        vals = [[(None if not self.mask[j, i] else float(self.values[j, i]))
                 for i in range(self.grid_x.size)]
                for j in range(self.grid_y.size)]
        doc = {
            "grid_x": [float(v) for v in self.grid_x],
            "grid_y": [float(v) for v in self.grid_y],
            "inside": [[bool(b) for b in row] for row in self.mask],
            "values": vals,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
            fh.write("\n")


def _admissible(curve: BoundaryCurve, z):
    """True at flat points z that clear the grid fields' standoff of ten node spacings.

    Decided before any winding or Cauchy sum, and exactly as comparing
    boundary_clearance would decide it (curves._clear_of).
    """
    return _clear_of(curve, z, 10.0 * node_spacing_scale(curve))


def _disk_field(dm, grid: GridSpec, value_of) -> ScalarField:
    """value_of(Phi(z)) at the grid nodes z inside the domain and clear of the standoff.

    The standoff is screened first, and only the nodes that clear it pay
    for the boundary pass of _evaluate.
    """
    x, y = grid.axes()
    z = grid.mesh().ravel()
    far = np.flatnonzero(_admissible(dm.curve, z))
    inside, phi = _evaluate(dm, z[far])
    mask = np.zeros(z.shape, dtype=bool)
    mask[far[inside]] = True
    values = np.full(z.shape, np.nan)
    values[mask] = value_of(phi[inside])
    return ScalarField(x, y, mask.reshape(y.size, x.size), values.reshape(y.size, x.size))


def _circle_images(dm, idx) -> np.ndarray:
    """Phi at the boundary nodes idx, projected onto the unit circle."""
    w = dm.phi_boundary[idx]
    return w / np.abs(w)


# ----------------------------------------------------------------------
# hyperbolic distance
# ----------------------------------------------------------------------

def _pair_distance(w1, w2):
    num = np.abs(w1 - w2)
    den = np.sqrt(np.maximum((1.0 - np.abs(w1) ** 2) * (1.0 - np.abs(w2) ** 2),
                             1e-300))
    return 2.0 * np.arcsinh(num / den)


def hyperbolic_distance(curve: BoundaryCurve, alpha: complex, z1: complex,
                        z2: complex) -> float:
    """Hyperbolic distance between two interior points.

    The domain is mapped onto the unit disk (base point alpha, any
    interior point; the result is independent of it) and the disk's
    explicit metric is pulled back:

        dist = 2 asinh( |w1 - w2| / sqrt((1 - |w1|^2)(1 - |w2|^2)) ).
    """
    dm = map_bounded(curve, alpha)
    w = cauchy_eval(dm, np.array([z1, z2], dtype=complex))
    return float(_pair_distance(w[0], w[1]))


def hyperbolic_distance_field(curve: BoundaryCurve, alpha: complex, z1: complex,
                              grid: GridSpec) -> ScalarField:
    """Hyperbolic distance from z1 to every admissible grid node.

    Grid nodes outside the domain or within ten node spacings of the
    boundary are masked out.
    """
    dm = map_bounded(curve, alpha)
    w1 = cauchy_eval(dm, complex(z1))
    return _disk_field(dm, grid, lambda w: _pair_distance(w1, w))


# ----------------------------------------------------------------------
# conformal radius and reduced modulus
# ----------------------------------------------------------------------

def _map_at(curve: BoundaryCurve, base: complex | None):
    """Disk map at a finite base (ccw curve) or at infinity (base None, cw curve)."""
    if base is None and curve.orientation == "ccw":
        raise ValueError("a bounded domain (counterclockwise curve) needs a base point")
    return map_unbounded(curve) if base is None else map_bounded(curve, base)


def conformal_radius(curve: BoundaryCurve, base: complex | None = None) -> float:
    """Conformal radius e^h of the domain at the base point.

    ``base`` is an interior point of a bounded domain (counterclockwise
    curve); ``base=None`` means the point at infinity of an unbounded
    domain (clockwise curve). The result does not depend on the map's
    auxiliary point in the bounded complement, so map_unbounded's default
    is used: the symmetry centre of a curve with two declared mirrors,
    such as an ellipse's 0, where the solve folds.
    """
    return float(np.exp(_map_at(curve, base).h))


def reduced_modulus(curve: BoundaryCurve, base: complex | None = None) -> float:
    """Reduced modulus: h/(2 pi) at a finite base, -h/(2 pi) at infinity.

    At infinity the auxiliary point is map_unbounded's default, as in
    conformal_radius.
    """
    h = _map_at(curve, base).h
    return float((h if curve.orientation == "ccw" else -h) / TWO_PI)


_SLIT_BASE_IMAGE = {
    "G1": lambda r, a: 2.0 * r,
    "G2": lambda r, a: -2.0 * r,
    "G3": lambda r, a: 2.0 * (r - a),
}


def reduced_modulus_slit_disk(case: str, r: float, a: float = 0.0,
                              n_s: int = 512, p: float = 3.0) -> float:
    """Reduced modulus of a slit unit disk at the family's base point.

    The slit is opened by the family's square-root map (unit derivative
    at the base point, so the modulus is preserved) and the resulting
    Jordan domain is handled by the bounded solver.
    """
    curve = make_opened_slit_disk(case, r, a, n_s, p)
    base = _SLIT_BASE_IMAGE[case](r, a)
    return reduced_modulus(curve, base)


# ----------------------------------------------------------------------
# harmonic measure of boundary sides
# ----------------------------------------------------------------------

def _side_measure(zet: np.ndarray, k: int, w: np.ndarray) -> np.ndarray:
    """Harmonic measure at disk points w of 1-based side k's arc, zet[k-1] to zet[k mod m].

    The arc runs counterclockwise from z1 to z3 and subtends the angle
    theta = arg((z3 - w) / (z1 - w)) in [0, 2 pi) at w; its measure there
    is (2 theta - |arc|) / (2 pi) (Garnett & Marshall, Harmonic Measure).
    """
    z1, z3 = zet[k - 1], zet[k % zet.size]
    theta = np.angle((z3 - w) / (z1 - w)) % TWO_PI
    return (2.0 * theta - np.angle(z3 / z1) % TWO_PI) / TWO_PI


def _check_sides(curve: BoundaryCurve, sides):
    m = len(curve.corners)
    if not sides or not all(1 <= k <= m for k in sides):
        raise ValueError(f"side index out of range: the curve has {m} sides")


def _corner_map(curve: BoundaryCurve, alpha: complex | None):
    """Disk map of the domain and the unit-circle images of its corners."""
    # one corner leaves one side, the whole boundary, whose arc closes on itself
    if len(curve.corners) < 2:
        raise ValueError("harmonic measure of sides needs a domain with at least two corners")
    dm = map_bounded(curve, alpha)
    return dm, _circle_images(dm, list(curve.corners))


def harmonic_measure(curve: BoundaryCurve, side: int, alpha: complex | None, z) -> np.ndarray:
    """Harmonic measure of one side of a cornered domain at interior points z.

    ``side`` is 1-based: side k runs from corner k to corner k+1 (cyclic),
    so for a polygon from vertex k to vertex k+1. The domain is mapped onto
    the disk with base point ``alpha`` (None picks one); the side becomes a
    boundary arc, whose harmonic measure at the image point is closed-form
    in the angle the arc subtends there (_side_measure). The values are
    row ``side - 1`` of harmonic_measure_all.
    """
    _check_sides(curve, [side])
    out = harmonic_measure_all(curve, alpha, z)[side - 1]
    return out if np.asarray(z).ndim else float(out[0])


def harmonic_measure_all(curve: BoundaryCurve, alpha: complex | None, z) -> np.ndarray:
    """Harmonic measures of every side at points z, shape (m, len(z)).

    One integral-equation solve is shared across all sides; the columns
    sum to 1 up to rounding because the side arcs partition the circle.
    """
    dm, zet = _corner_map(curve, alpha)
    w = cauchy_eval(dm, np.atleast_1d(z))
    return np.vstack([_side_measure(zet, k, w) for k in range(1, zet.size + 1)])


def harmonic_measure_field(curve: BoundaryCurve, sides, alpha: complex | None,
                           grid: GridSpec) -> ScalarField:
    """Harmonic measure of the union of the given (1-based) sides on a grid.

    Nodes are masked as in hyperbolic_distance_field.
    """
    _check_sides(curve, sides)
    dm, zet = _corner_map(curve, alpha)
    return _disk_field(dm, grid, lambda w: np.sum([_side_measure(zet, k, w) for k in sides], 0))


# ----------------------------------------------------------------------
# conformal modulus of quadrilaterals
# ----------------------------------------------------------------------

@dataclass
class QuadConfig:
    """The rectangles of quad_modulus: n_s graded nodes per side, exponent grading_p."""

    n_s: int = 512
    grading_p: float = 3.0


@dataclass
class QuadModulusTrace:
    """Result and per-iteration history of the rectangle iteration."""

    r: float
    converged: bool
    iterations: int
    r_iterates: list
    deltas: list
    factors: list


def _check_circle_quad(points):
    pts = [complex(z) for z in points]
    if not all(abs(abs(zz) - 1.0) <= 1e-8 for zz in pts):  # in positive form, so nan fails
        raise ValueError("marked points must lie on the unit circle")
    # each step counterclockwise, in [0, 2 pi), and all of them within one turn
    steps = np.diff([math.atan2(zz.imag, zz.real) for zz in pts]) % TWO_PI
    if not (np.all(steps > 0.0) and np.sum(steps) < TWO_PI):
        raise ValueError("marked points must be in counterclockwise order")
    return pts


def _cross_ratio_image(anchors, targets, d):
    """Image of d under the Moebius map that sends the three anchors to the three targets.

    The map keeps the cross-ratio, so s = [d, a; b, c] of d against the
    anchors (a, b, c) is also that of the image x against the targets
    (z1, z2, z3); solved for x, this is z1 plus a term that vanishes at d = a.
    """
    a, b, c = anchors
    z1, z2, z3 = targets
    s = (d - a) * (b - c) / ((d - c) * (b - a))
    return z1 + s * (z1 - z3) * (z2 - z1) / ((z2 - z3) - s * (z2 - z1))


def quad_modulus(z1, z2, z3, z4, cfg: QuadConfig | None = None) -> QuadModulusTrace:
    """Conformal modulus of the disk quadrilateral (z1, z2, z3, z4).

    The sought modulus is the aspect ratio r of the rectangle with
    vertices (0, 1, 1+ir, ir) that maps conformally onto the disk with
    corners going to the marked points. Starting from r = 1, each
    iteration maps the current rectangle onto the disk, takes the image
    of its fourth corner under the Moebius map sending the images of
    (0, 1, 1+ir) to (z1, z2, z3), which the cross-ratio fixes
    (_cross_ratio_image), and corrects r by the angular mismatch of that
    image against z4, with a step-doubling/halving control and a 20
    percent cap per step.

    Non-convergence within _QUAD_MAX_ITER iterations is reported through the
    returned trace (``converged=False``), not as an exception.
    """
    if cfg is None:
        cfg = QuadConfig()
    z1, z2, z3, z4 = _check_circle_quad((z1, z2, z3, z4))
    r = 1.0
    delta_prev = 1.0  # delta_{k-1} entering the current iteration
    r_iterates = [r]
    deltas: list = []
    factors: list = []
    converged = False
    iterations = 0
    rho_prev = None
    for k in range(1, _QUAD_MAX_ITER + 1):
        iterations = k
        curve = make_rectangle(r, cfg.n_s, cfg.grading_p)
        # from the default base, the centre (1 + i r) / 2, where the map folds both mirrors
        dm = map_bounded(curve, x0=rho_prev)
        rho_prev = dm.solution.rho
        images = _circle_images(dm, list(curve.corners))
        z4k = _cross_ratio_image(images[:3], (z1, z2, z3), images[3])
        delta_step = math.atan2((z4k / z4).imag, (z4k / z4).real) / TWO_PI
        deltas.append(delta_step)
        # step-size control once three angular mismatches are available:
        # same-sign history doubles the factor, alternating halves it
        if k >= 3:
            p1 = deltas[-3] * deltas[-2]
            p2 = deltas[-2] * deltas[-1]
            if p1 > 0.0 and p2 > 0.0:
                delta_prev = 2.0 * delta_prev
            elif p1 < 0.0 and p2 < 0.0:
                delta_prev = 0.5 * delta_prev
        step = delta_prev * delta_step
        cap = 0.2 * r
        if step > cap:
            step = cap
            delta_prev = 0.5 * delta_prev
        elif step < -cap:
            step = -cap
            delta_prev = 0.5 * delta_prev
        factors.append(delta_prev)
        r_new = r + step
        r_iterates.append(r_new)
        done = abs(r_new - r) < _QUAD_EPS
        r = r_new
        if done:
            converged = True
            break
    return QuadModulusTrace(r=r, converged=converged, iterations=iterations,
                            r_iterates=r_iterates, deltas=deltas, factors=factors)


def quad_modulus_general(curve: BoundaryCurve, params, alpha: complex | None = None,
                         cfg: QuadConfig | None = None) -> QuadModulusTrace:
    """Modulus of a quadrilateral on an arbitrary Jordan domain.

    ``params`` are four strictly increasing parameter values in [0, 2 pi)
    marking boundary points; each is taken at the nearest discretization
    node. The domain is mapped onto the disk with base point ``alpha``
    (None picks one) and the marked points' disk images feed the rectangle
    iteration.
    """
    params = np.asarray(params, dtype=float)
    if params.shape != (4,):
        raise ValueError("need exactly four parameter values")
    # in positive form, so that nan fails every test
    if not (np.all(params >= 0.0) and np.all(params < TWO_PI) and np.all(np.diff(params) > 0.0)):
        raise ValueError("parameters must be strictly increasing in [0, 2 pi)")
    dm = map_bounded(curve, alpha)
    idx = np.rint(params / TWO_PI * curve.n).astype(int) % curve.n
    if len(set(idx.tolist())) != 4:
        raise ValueError("marked points collapse onto the same node")
    return quad_modulus(*_circle_images(dm, idx), cfg)
