"""Discretized boundary curves of simply connected planar domains.

A curve is sampled at n uniformly spaced parameter values on [0, 2 pi).
A cornered boundary (polygon, arc chain, opened slit disk) is a list of
pieces, each given n_s nodes of one graded parametrization (Kress's
corner grading): the derivative vanishes at the corner node that starts
each piece, so corner nodes carry zero quadrature weight in the integral
operators downstream. `_graded` lays out the nodes of every such curve.

Orientation convention: counterclockwise for boundaries of bounded
domains, clockwise when the domain of interest is the unbounded
complement. Every builder refuses non-finite curve data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

__all__ = [
    "BoundaryCurve",
    "make_ellipse",
    "make_amoeba",
    "make_polygon",
    "make_circular_arc_polygon",
    "make_rectangle",
    "make_opened_slit_disk",
    "spectral_derivative",
    "winding_inside",
]

TWO_PI = 2.0 * np.pi
# Pairs (target x node) per block of the O(n m) passes over the boundary
# nodes (point location and Cauchy sums, clearance, kernel assembly, the
# long-double residual), read only by _row_blocks: 1 MB of complex
# temporaries per block, which stays in cache. Sums and minima run along
# rows, so results do not depend on the block size.
_BLOCK_PAIRS = 65_536
# _clear_of screens with every _COARSE-th node (8 measured the same, 4 was
# slower), and keeps a relative margin of _MARGIN on both of its tests so
# that rounding cannot decide a point.
_COARSE = 16
_MARGIN = 1e-12


class Mirror(NamedTuple):
    """A reflection of the curve that sends node i onto node (a - i) mod n.

    It reflects across the line through ``point`` along ``direction``. A
    curve with two mirrors declares both through their crossing, its
    symmetry centre.
    """

    a: int
    point: complex
    direction: complex


@dataclass(frozen=True)
class BoundaryCurve:
    """Samples of a closed curve eta(t) on the uniform grid t_j = 2 pi j / n.

    Attributes
    ----------
    n : int
        Number of nodes.
    t : ndarray
        Parameter values, shape (n,).
    eta, deta : ndarray
        Complex samples of the curve and its parameter derivative,
        shape (n,).
    orientation : str
        ``"ccw"`` or ``"cw"``.
    corners : tuple of int
        Node indices where the parametrization derivative vanishes.
    mirrors : tuple of Mirror
        Mirror symmetries that the builder declares, each sending nodes
        onto nodes. A disk map whose base lies on one or two of them
        solves a folded system (see kernel).
    """

    n: int
    t: np.ndarray
    eta: np.ndarray
    deta: np.ndarray
    orientation: str = "ccw"
    corners: tuple = field(default_factory=tuple)
    mirrors: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if self.orientation not in ("ccw", "cw"):
            raise ValueError("orientation must be 'ccw' or 'cw'")
        for name in ("t", "eta", "deta"):
            arr = getattr(self, name)
            if arr.shape != (self.n,):
                raise ValueError(f"{name} must have shape ({self.n},)")
            arr.flags.writeable = False

    @property
    def weight(self) -> float:
        """Trapezoidal quadrature weight 2 pi / n."""
        return TWO_PI / self.n


def _uniform_t(n: int) -> np.ndarray:
    return TWO_PI * np.arange(n) / n


def _curve(eta, deta, orientation, corners=(), mirrors=()) -> BoundaryCurve:
    eta = np.ascontiguousarray(eta, dtype=complex)
    deta = np.ascontiguousarray(deta, dtype=complex)
    if not (np.all(np.isfinite(eta)) and np.all(np.isfinite(deta))):
        raise ValueError("curve data must be finite")
    n = eta.shape[0]
    # strong grading rounds nodes onto a corner; the kernels divide by node differences
    if np.any(eta == np.roll(eta, 1)):
        raise ValueError("adjacent nodes coincide; lower the grading exponent p or n_s")
    return BoundaryCurve(
        n=n,
        t=_uniform_t(n),
        eta=eta,
        deta=deta,
        orientation=orientation,
        corners=tuple(int(c) for c in corners),
        mirrors=tuple(mirrors),
    )


# ----------------------------------------------------------------------
# corner grading
# ----------------------------------------------------------------------

def _grade(tau: np.ndarray, p: float):
    """Grading map g(tau) = tau^p / (tau^p + (1-tau)^p) and its derivative.

    Returns (g, g') on [0, 1]. For p >= 2 the derivative vanishes at both
    endpoints, which is what concentrates nodes at the corners of a
    piecewise parametrization.
    """
    tau = np.asarray(tau, dtype=float)
    a = tau ** p
    b = (1.0 - tau) ** p
    w = a + b
    g = a / w
    u = tau ** (p - 1.0) * (1.0 - tau) ** (p - 1.0)
    dg = p * u / (w * w)
    return g, dg


def _check_grading(n_s: int, p: float):
    if n_s < 8:
        raise ValueError("need at least 8 nodes per piece")
    if p < 2.0:
        raise ValueError("grading exponent must be at least 2")


def _graded(pieces, n_s: int, p: float, mirrors=()) -> BoundaryCurve:
    """Counterclockwise curve of graded pieces, n_s nodes each, with the given mirrors.

    Each piece maps (g, g', scale) to its (eta, deta), where g = _grade(tau)
    on tau = k / n_s, k < n_s, and scale = d tau / d t, since the pieces
    share [0, 2 pi) equally. Piece k starts at corner node k n_s.
    """
    g, dg = _grade(np.arange(n_s) / n_s, p)
    scale = len(pieces) / TWO_PI
    parts = [piece(g, dg, scale) for piece in pieces]
    eta = np.concatenate([e for e, _ in parts])
    deta = np.concatenate([d for _, d in parts])
    # shoelace area of the nodes; the orientation stamped below must be true
    nxt = np.roll(eta, -1)
    if np.sum(eta.real * nxt.imag - nxt.real * eta.imag) <= 0.0:
        raise ValueError("the boundary must run counterclockwise")
    return _curve(eta, deta, "ccw", range(0, eta.size, n_s), mirrors)


# ----------------------------------------------------------------------
# smooth curves
# ----------------------------------------------------------------------

def make_ellipse(a: float, b: float, n: int, kind: str = "interior") -> BoundaryCurve:
    """Ellipse with semiaxes a, b, traversed for the chosen domain.

    ``kind="interior"`` gives the counterclockwise curve
    eta(t) = a cos t + i b sin t bounding the inside; ``kind="exterior"``
    gives the clockwise curve eta(t) = a cos t - i b sin t whose domain
    is the unbounded complement. a = b produces a circle. Both declare
    the real axis (node i -> -i) and the imaginary axis (i -> n/2 - i) as
    mirrors.
    """
    # refused before inf * 0 = nan can warn in the samples below
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("curve data must be finite")
    if a <= 0.0 or b <= 0.0:
        raise ValueError("semiaxes must be positive")
    if n < 4 or n % 2:
        raise ValueError("n must be even and at least 4")
    t = _uniform_t(n)
    if kind == "interior":
        eta = a * np.cos(t) + 1j * b * np.sin(t)
        deta = -a * np.sin(t) + 1j * b * np.cos(t)
        orientation = "ccw"
    elif kind == "exterior":
        eta = a * np.cos(t) - 1j * b * np.sin(t)
        deta = -a * np.sin(t) - 1j * b * np.cos(t)
        orientation = "cw"
    else:
        raise ValueError("kind must be 'interior' or 'exterior'")
    return _curve(eta, deta, orientation, mirrors=(Mirror(0, 0j, 1 + 0j), Mirror(n // 2, 0j, 1j)))


def make_amoeba(n: int) -> BoundaryCurve:
    """Blob-shaped analytic test curve with strong curvature variation.

    eta(t) = (exp(cos t) cos^2(2t) + exp(sin t) sin^2(2t)) e^{it},
    counterclockwise. Derivatives are computed spectrally, so the node
    count must be large enough to resolve the shape (n >= 64).
    """
    if n < 64 or n % 2:
        raise ValueError("n must be even and at least 64")
    t = _uniform_t(n)
    radius = np.exp(np.cos(t)) * np.cos(2.0 * t) ** 2 + np.exp(np.sin(t)) * np.sin(2.0 * t) ** 2
    eta = radius * np.exp(1j * t)
    return _curve(eta, spectral_derivative(eta), "ccw")


# ----------------------------------------------------------------------
# piecewise curves with corners
# ----------------------------------------------------------------------

def _segment_intersects(p1, p2, q1, q2) -> bool:
    # proper intersection test for open segments (shared endpoints excluded)
    def cross(o, a, b):
        return (a.real - o.real) * (b.imag - o.imag) - (a.imag - o.imag) * (b.real - o.real)

    d1 = cross(q1, q2, p1)
    d2 = cross(q1, q2, p2)
    d3 = cross(p1, p2, q1)
    d4 = cross(p1, p2, q2)
    if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)):
        return True
    return False


def _validate_polygon(vertices: np.ndarray):
    m = len(vertices)
    if m < 3:
        raise ValueError("a polygon needs at least 3 vertices")
    nxt = np.roll(vertices, -1)
    if np.any(np.abs(nxt - vertices) == 0.0):
        raise ValueError("repeated consecutive vertices")
    for i in range(m):
        for j in range(i + 1, m):
            if j == i + 1 or (i == 0 and j == m - 1):
                continue  # adjacent sides share an endpoint
            if _segment_intersects(vertices[i], nxt[i], vertices[j], nxt[j]):
                raise ValueError("polygon sides intersect")


def make_polygon(vertices, n_s: int, p: float = 3.0) -> BoundaryCurve:
    """Simple polygon with n_s graded nodes per side.

    Parameters
    ----------
    vertices : sequence of complex
        Counterclockwise vertex list (at least 3, no repeats, simple).
    n_s : int
        Nodes per side (>= 8). Total node count is len(vertices) * n_s.
    p : float
        Grading exponent, p >= 2. Larger p clusters nodes more tightly
        at the corners.

    Vertex k (0-based) lands exactly on node k * n_s, and those corner
    nodes have vanishing parametrization derivative.
    """
    vertices = np.asarray(vertices, dtype=complex)
    _check_grading(n_s, p)
    _validate_polygon(vertices)
    sides = zip(vertices, np.roll(vertices, -1) - vertices)
    return _graded([lambda g, dg, scale, v=v, dz=dz: (v + dz * g, dz * dg * scale)
                    for v, dz in sides], n_s, p)


def make_circular_arc_polygon(arcs, n_s: int, p: float = 3.0) -> BoundaryCurve:
    """Closed chain of circular arcs with graded nodes at the junctions.

    Each arc is a tuple ``(center, radius, theta0, theta1)`` traversed
    from angle theta0 to theta1 around its center. Consecutive arcs must
    join to within 1e-12, and the chain must run counterclockwise. A
    single arc spanning a full turn is treated as a smooth circle: uniform
    parametrization, no corners, oriented by its direction of travel.
    """
    _check_grading(n_s, p)
    arcs = [(complex(c), float(R), float(a0), float(a1)) for (c, R, a0, a1) in arcs]
    if not arcs:
        raise ValueError("need at least one arc")
    for (_, R, a0, a1) in arcs:
        if R <= 0.0:
            raise ValueError("arc radius must be positive")
        if a1 == a0:
            raise ValueError("arc has zero angular extent")
    m = len(arcs)
    if m == 1 and abs(abs(arcs[0][3] - arcs[0][2]) - TWO_PI) < 1e-12:
        c, R, a0, a1 = arcs[0]
        t = _uniform_t(n_s)
        phi = a0 + (a1 - a0) * t / TWO_PI
        dphi = (a1 - a0) / TWO_PI
        eta = c + R * np.exp(1j * phi)
        deta = 1j * R * dphi * np.exp(1j * phi)
        orientation = "ccw" if a1 > a0 else "cw"
        return _curve(eta, deta, orientation)
    # closure check
    for k in range(m):
        c, R, _, a1 = arcs[k]
        cn, Rn, a0n, _ = arcs[(k + 1) % m]
        end = c + R * np.exp(1j * a1)
        start = cn + Rn * np.exp(1j * a0n)
        if abs(end - start) > 1e-12:
            raise ValueError(f"arc chain not closed at junction {k}")

    def piece(c, R, a0, a1):
        def arc(g, dg, scale):
            dphi = a1 - a0
            e = np.exp(1j * (a0 + dphi * g))
            return c + R * e, 1j * R * e * (dphi * dg * scale)
        return arc

    return _graded([piece(*arc) for arc in arcs], n_s, p)


def make_rectangle(r: float, n_s: int, p: float = 3.0) -> BoundaryCurve:
    """Rectangle with vertices 0, 1, 1 + i r, i r (aspect ratio r > 0).

    Its mirrors are x = 1/2 (node i -> n_s - i) and y = r/2 (i -> 3 n_s - i).
    """
    if r <= 0.0:
        raise ValueError("aspect ratio must be positive")
    centre = 0.5 * (1.0 + 1j * r)
    return replace(make_polygon([0.0, 1.0, 1.0 + 1j * r, 1j * r], n_s, p),
                   mirrors=(Mirror(n_s, centre, 1j), Mirror(3 * n_s, centre, 1 + 0j)))


# ----------------------------------------------------------------------
# opened slit disks
# ----------------------------------------------------------------------
#
# The three slit-disk families are handled after opening the slit with an
# explicit square-root map, so the curves built here are the boundaries
# of the opened (Jordan) domains:
#
#   G1: unit disk slit along (-1, 0], opened by  zeta = 2 sqrt(r) sqrt(z)
#   G2: unit disk slit along [r, 1),  opened by  zeta = 2 i sqrt(r) sqrt(z - r)
#       (square-root branch cut along the positive real axis)
#   G3: unit disk slit along (-1, a], opened by  zeta = 2 sqrt(r-a) sqrt(z-a)
#
# In every case the two sides of the slit open up into a straight segment
# on the imaginary axis and the unit circle opens into an analytic arc;
# the only corners of the opened boundary are the two junction points
# where the segment meets the arc. G1 is G3 with a = 0.


def _sqrt_branch(theta, c):
    """Continuous branch of sqrt(e^{i theta} - c) along the opened circle, 0 <= c < 1.

    Uses e^{i theta} - c = e^{i theta/2} ((1-c) cos(theta/2)
    + i (1+c) sin(theta/2)). For theta in [-pi, pi] (G1, G3; c = a) the
    bracket stays in the right half plane, for theta in [0, 2 pi] (G2;
    c = r, cut along the positive reals) in the upper half plane; the
    principal square root is continuous on both. G2's endpoint values are
    the one-sided limits from inside the arc, +-sqrt(1-r) at theta = 0, 2 pi.
    """
    half = 0.5 * np.asarray(theta, dtype=float)
    bracket = (1.0 - c) * np.cos(half) + 1j * (1.0 + c) * np.sin(half)
    return np.exp(0.25j * np.asarray(theta, dtype=float)) * np.sqrt(bracket)


def _check_slit(case: str, r: float, a: float):
    if case not in ("G1", "G2", "G3"):
        raise ValueError("case must be 'G1', 'G2' or 'G3'")
    if case in ("G1", "G2") and a != 0.0:
        raise ValueError(f"{case} has no offset parameter")
    if not 0.0 <= a < r < 1.0:
        raise ValueError("parameters must satisfy 0 <= a < r < 1")


def make_opened_slit_disk(case: str, r: float, a: float = 0.0, n_s: int = 512,
                          p: float = 3.0) -> BoundaryCurve:
    """Boundary of a slit unit disk after opening the slit (see above).

    Two graded pieces of n_s nodes each: the straight segment the slit
    sides open into, and the arc the unit circle opens into. Corner nodes
    sit at the two junctions (indices 0 and n_s). The real axis is a
    mirror (node i -> n_s - i).
    """
    _check_grading(n_s, p)
    _check_slit(case, r, a)
    if case == "G2":
        coef, c, theta0 = 2.0j * np.sqrt(r), r, 0.0
        y_top = 2.0 * np.sqrt(r * (1.0 - r))
    else:  # G1 is G3 with a = 0
        coef, c, theta0 = 2.0 * np.sqrt(r - a), a, -np.pi
        y_top = 2.0 * np.sqrt((r - a) * (1.0 + a))

    def arc(g, dg, scale):
        # zeta = coef S(theta) with S^2 = e^{i theta} - c, theta over a full turn
        theta = theta0 + TWO_PI * g
        s = _sqrt_branch(theta, c)
        return coef * s, coef * (0.5j * np.exp(1j * theta) / s) * (TWO_PI * dg * scale)

    # each segment keeps its own expression: a +-1 factor would flip the
    # sign of the zero at its midpoint node
    axis = (Mirror(n_s, 0j, 1 + 0j),)
    if case == "G2":  # the arc from theta = 0, then the segment from -i y_top up
        return _graded([arc, lambda g, dg, scale: (1j * y_top * (2.0 * g - 1.0),
                                                   2.0j * y_top * dg * scale)], n_s, p, axis)
    # the segment from +i y_top down, then the arc from theta = -pi
    return _graded([lambda g, dg, scale: (1j * y_top * (1.0 - 2.0 * g),
                                          -2.0j * y_top * dg * scale), arc], n_s, p, axis)


# ----------------------------------------------------------------------
# spectral utilities and point location
# ----------------------------------------------------------------------

def spectral_derivative(values: np.ndarray) -> np.ndarray:
    """Derivative of a 2 pi periodic function from uniform samples.

    Fourier multiplier i k with the Nyquist mode zeroed; exact for
    trigonometric polynomials below the Nyquist frequency.
    """
    values = np.asarray(values)
    n = values.shape[0]
    if n % 2:
        raise ValueError("sample count must be even")
    k = np.fft.fftfreq(n, d=1.0 / n)
    k[n // 2] = 0.0
    return np.fft.ifft(1j * k * np.fft.fft(values))


def _row_blocks(m: int, n: int, eta=None, z=None):
    """Row blocks of a pass over m targets and n nodes, about _BLOCK_PAIRS pairs each.

    Yields the row slices, or, given the nodes eta and the m targets z,
    (rows, eta[None, :] - z[rows, None]). This is the one block policy of
    the O(n m) passes over the boundary nodes; callers reduce along rows.
    Blocks have at least two rows unless m is 1: numpy hands a one-row
    matrix-vector product to BLAS as a dot product, which rounds unlike
    the product of more rows. A lone last row joins the block before it.
    """
    block = max(2, _BLOCK_PAIRS // n)
    start = 0
    while start < m:
        stop = m if m - start < block + 2 else start + block
        rows = slice(start, stop)
        yield rows if z is None else (rows, eta[None, :] - z[rows, None])
        start = stop


def _boundary_sums(curve: BoundaryCurve, z, values=None):
    """Flat (inside, rows, cauchy) at points z from one _row_blocks pass.

    rows = w sum_j eta'_j / (eta_j - z), w = 2 pi / n, is 2 pi i times the
    winding number and the Cauchy denominator; cauchy weights the same sum
    by values (None without); inside as in winding_inside. A z on a node
    gets nan sums: outside, as it should be. Each output keeps its bits
    whatever the row blocks, and a point alone gets the bits it gets in any
    batch: it is summed as a pair with itself. Clearance is a pass of its
    own, boundary_clearance.
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex)).ravel()
    if z.size == 1:
        pair = _boundary_sums(curve, np.repeat(z, 2), values)
        return tuple(None if out is None else out[:1] for out in pair)
    rows = np.empty(z.shape, dtype=complex)
    cauchy = None if values is None else np.empty(z.shape, dtype=complex)
    for sl, diff in _row_blocks(z.size, curve.n, curve.eta, z):
        with np.errstate(divide="ignore", invalid="ignore"):
            ker = curve.deta[None, :] / diff
            rows[sl] = curve.weight * np.sum(ker, axis=1)
            if values is not None:
                cauchy[sl] = curve.weight * (ker @ values)
    inside = np.rint(_winding(rows)) == (1.0 if curve.orientation == "ccw" else 0.0)
    return inside, rows, cauchy


def _winding(rows: np.ndarray) -> np.ndarray:
    with np.errstate(invalid="ignore"):
        return (rows / (2j * np.pi)).real


def _base_ok(curve: BoundaryCurve, z):
    """True at flat points z that can be a disk map's base point.

    That is winding number +1 (inside) for a counterclockwise curve and -1
    (in the bounded complement) for a clockwise one. A non-finite z, or one
    on a node, gets nan sums and fails.
    """
    rows = _boundary_sums(curve, z)[1]
    return np.rint(_winding(rows)) == (1.0 if curve.orientation == "ccw" else -1.0)


def winding_number(curve: BoundaryCurve, z) -> np.ndarray:
    """Discrete winding number of the curve around each point z."""
    return _winding(_boundary_sums(curve, z)[1])


def winding_inside(curve: BoundaryCurve, z):
    """True where z lies in the domain bounded by the curve.

    For a counterclockwise curve the domain is the interior (winding 1);
    for a clockwise curve it is the unbounded exterior (winding 0).
    Points closer to the boundary than about 10 node spacings are not
    classified reliably; see boundary_clearance.
    """
    z = np.asarray(z, dtype=complex)
    inside = _boundary_sums(curve, z)[0]
    return bool(inside[0]) if z.ndim == 0 else inside.reshape(z.shape)


def _nearest(nodes: np.ndarray, z: np.ndarray) -> np.ndarray:
    """min_j |nodes_j - z| at flat points z, from one _row_blocks pass."""
    out = np.empty(z.shape)
    for rows, diff in _row_blocks(z.size, nodes.size, nodes, z):
        out[rows] = np.min(np.abs(diff), axis=1)
    return out


def boundary_clearance(curve: BoundaryCurve, z) -> np.ndarray:
    """Distance from each z to the nearest curve node, flat.

    Point-location and evaluation routines degrade within a few node
    spacings of the boundary; callers compare this clearance against
    ``factor * (2 pi / n) * max |eta'|``. It is a pass of its own over the
    nodes, apart from the winding and Cauchy sums, and its values do not
    depend on the batch a point comes in.
    """
    return _nearest(curve.eta, np.atleast_1d(np.asarray(z, dtype=complex)).ravel())


def _clear_of(curve: BoundaryCurve, z, d: float) -> np.ndarray:
    """boundary_clearance(curve, z) > d at flat points z, decided mostly from coarse nodes.

    dc is the distance to every _COARSE-th node, and reach the largest
    distance from a node to the nearer of the coarse nodes before and after
    it (node 0 follows the last). dc is among the distances the clearance
    is the minimum of, so dc <= d proves a point not clear; by the triangle
    inequality the clearance is at least dc - reach, so dc - reach > d
    proves it clear. Both tests keep a relative margin of _MARGIN, and only
    the points between them get the full clearance, so every point reads
    as boundary_clearance(curve, z) > d reads.
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex)).ravel()
    eta = curve.eta
    before = np.arange(curve.n) // _COARSE * _COARSE
    after = np.where(before + _COARSE < curve.n, before + _COARSE, 0)
    reach = np.max(np.minimum(np.abs(eta - eta[before]), np.abs(eta - eta[after])))
    dc = _nearest(eta[::_COARSE], z)
    clear = dc * (1.0 - _MARGIN) - reach * (1.0 + _MARGIN) > d
    band = ~clear & (dc * (1.0 + _MARGIN) > d)
    clear[band] = boundary_clearance(curve, z[band]) > d
    return clear


def node_spacing_scale(curve: BoundaryCurve) -> float:
    """Coarse upper bound for the geometric node spacing, (2 pi / n) max|eta'|."""
    return curve.weight * float(np.max(np.abs(curve.deta)))
