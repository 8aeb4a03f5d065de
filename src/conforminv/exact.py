"""Closed-form reference values: elliptic integrals and exact invariants.

Everything in this module is independent of the boundary-integral solver.
It provides ground truth for testing the numerical pipeline: the
arithmetic-geometric mean, the complete elliptic integral K, the
decreasing modulus function mu of the Groetzsch ring, exact reduced
moduli for a handful of model domains, and the exact conformal modulus
of a disk quadrilateral with given vertex angles.
"""

from __future__ import annotations

import math

__all__ = [
    "agm",
    "ellip_k",
    "mu",
    "mu_inv",
    "oracle_reduced_modulus",
    "oracle_quad_r",
    "crowding_r_of_theta2",
    "crowding_theta2_of_r",
]

_HALF_PI = math.pi / 2.0


def agm(a: float, b: float) -> float:
    """Arithmetic-geometric mean of two positive numbers."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError("agm requires positive arguments")
    an, bn = float(a), float(b)
    # quadratic convergence: ~6 sweeps for doubles, cap generously
    for _ in range(64):
        if abs(an - bn) <= 1e-17 * abs(an):
            break
        an, bn = 0.5 * (an + bn), math.sqrt(an * bn)
    return 0.5 * (an + bn)


def ellip_k(s: float) -> float:
    """Complete elliptic integral K(s) = pi / (2 agm(1, sqrt(1 - s^2))).

    The argument is the modulus s in [0, 1), not the parameter s^2.
    """
    if not 0.0 <= s < 1.0:
        raise ValueError("ellip_k requires 0 <= s < 1")
    return _HALF_PI / agm(1.0, math.sqrt((1.0 - s) * (1.0 + s)))


def mu(s: float) -> float:
    """Modulus mu(s) = (pi/2) K(s') / K(s) with s' = sqrt(1 - s^2).

    Strictly decreasing from +inf at s=0+ to 0 at s=1-. Evaluated as
    (pi/2) agm(1, s') / agm(1, s), which never squares the modulus and so
    stays accurate (and finite) when s or s' underflows the rounding of
    1 - s^2.
    """
    if not 0.0 < s < 1.0:
        raise ValueError("mu requires 0 < s < 1")
    sc = math.sqrt((1.0 - s) * (1.0 + s))
    return _HALF_PI * agm(1.0, sc) / agm(1.0, s)


def _mu_deriv(s: float) -> float:
    # d mu / d s = -pi^2 / (4 s (1 - s^2) K(s)^2)
    k = ellip_k(s)
    return -math.pi * math.pi / (4.0 * s * (1.0 - s * s) * k * k)


def mu_inv(y: float) -> float:
    """Inverse of mu: the s in (0, 1) with mu(s) = y.

    Newton iteration on a bisection bracket; for very large y the
    asymptotic mu(s) ~ log(4/s) seeds the iteration. Small y means s
    close to 1, which is resolved through the conjugate modulus via
    mu(s) mu(s') = pi^2/4 (the direct root would sit inside the flat,
    barely representable region next to 1).
    """
    if y <= 0.0:
        raise ValueError("mu_inv requires y > 0")
    if y < 0.3:
        sc = mu_inv(math.pi * math.pi / (4.0 * y))
        return math.sqrt((1.0 - sc) * (1.0 + sc))
    # seed from the small-s asymptotic, clamped into (0, 1)
    s = min(max(4.0 * math.exp(-y), 1e-300), 0.999999999999999)
    lo, hi = 0.0, 1.0  # invariant: mu(lo) > y > mu(hi) in the limit sense
    for _ in range(200):
        f = mu(s) - y
        if f > 0.0:
            lo = max(lo, s)
        else:
            hi = min(hi, s)
        step = f / _mu_deriv(s)
        s_new = s - step
        if not lo < s_new < hi:
            s_new = 0.5 * (lo + hi)
        if abs(s_new - s) <= 1e-16 * s:
            s = s_new
            break
        s = s_new
    return s


def oracle_reduced_modulus(case: str, r: float, a: float = 0.0) -> float:
    """Exact reduced modulus of a model domain with respect to its base point.

    Supported cases:

    * ``"ellipse_exterior"``: exterior of the ellipse with semiaxes (1, r),
      0 < r <= 1, base at infinity: m = log(2 / (1 + r)) / (2 pi).
    * ``"ellipse_interior"``: interior of the ellipse with semiaxes
      (cosh r, sinh r), r > 0, base 0:
      m = log(pi / (2 sqrt(s) K(s))) / (2 pi) with s = mu_inv(2 r).
    * ``"G1"``: unit disk slit along (-1, 0], base r in (0, 1):
      m = log(4 r (1 - r) / (1 + r)) / (2 pi).
    * ``"G2"``: unit disk slit along [r, 1), base 0, r in (0, 1):
      m = log(4 r / (1 + r)^2) / (2 pi).
    * ``"G3"``: unit disk slit along (-1, a], base r, 0 <= a < r < 1:
      m = log(4 (r-a)(1-ra)(1-r) / ((1+r)(1-a)^2)) / (2 pi).
    """
    two_pi = 2.0 * math.pi
    if case == "ellipse_exterior":
        if not 0.0 < r <= 1.0:
            raise ValueError("ellipse_exterior requires 0 < r <= 1")
        return math.log(2.0 / (1.0 + r)) / two_pi
    if case == "ellipse_interior":
        if r <= 0.0:
            raise ValueError("ellipse_interior requires r > 0")
        s = mu_inv(2.0 * r)
        return math.log(math.pi / (2.0 * math.sqrt(s) * ellip_k(s))) / two_pi
    if case == "G1":
        if not 0.0 < r < 1.0:
            raise ValueError("G1 requires 0 < r < 1")
        return math.log(4.0 * r * (1.0 - r) / (1.0 + r)) / two_pi
    if case == "G2":
        if not 0.0 < r < 1.0:
            raise ValueError("G2 requires 0 < r < 1")
        return math.log(4.0 * r / ((1.0 + r) * (1.0 + r))) / two_pi
    if case == "G3":
        if not 0.0 <= a < r < 1.0:
            raise ValueError("G3 requires 0 <= a < r < 1")
        num = 4.0 * (r - a) * (1.0 - r * a) * (1.0 - r)
        den = (1.0 + r) * (1.0 - a) * (1.0 - a)
        return math.log(num / den) / two_pi
    raise ValueError(f"unknown case {case!r}")


def oracle_quad_r(theta1: float, theta2: float, theta3: float) -> float:
    """Exact modulus of the disk quadrilateral (1, e^{i t1}, e^{i t2}, e^{i t3}).

    The four marked points on the unit circle are 1 and the three
    e^{i theta_k} with 0 < theta1 < theta2 < theta3 < 2 pi. The modulus r
    is the aspect ratio of the conformally equivalent rectangle with the
    marked points at its corners:

        1 + s = [sin(t2/2) / sin(t1/2)] * [sin((t3-t1)/2) / sin((t3-t2)/2)]
        r = 2 mu(1 / sqrt(1 + s)) / pi
    """
    if not 0.0 < theta1 < theta2 < theta3 < 2.0 * math.pi:
        raise ValueError("angles must satisfy 0 < t1 < t2 < t3 < 2 pi")
    one_plus_s = (math.sin(theta2 / 2.0) / math.sin(theta1 / 2.0)) * (
        math.sin((theta3 - theta1) / 2.0) / math.sin((theta3 - theta2) / 2.0)
    )
    return 2.0 * mu(1.0 / math.sqrt(one_plus_s)) / math.pi


def crowding_r_of_theta2(theta2: float) -> float:
    """Rectangle modulus r for the symmetric disk quadrilateral.

    Marked points (e^{-i t2/2}, e^{i t2/2}, -e^{-i t2/2}, -e^{i t2/2})
    arranged so the configuration depends on theta2 in (pi/2, 3 pi/2):

        r = (2/pi) mu( sqrt((1 + cot(theta2/2)) / 2) )
    """
    if not _HALF_PI < theta2 < 3.0 * _HALF_PI:
        raise ValueError("theta2 must lie in (pi/2, 3 pi/2)")
    c = math.cos(theta2 / 2.0) / math.sin(theta2 / 2.0)
    return 2.0 * mu(math.sqrt((1.0 + c) / 2.0)) / math.pi


def crowding_theta2_of_r(r: float) -> float:
    """Inverse of crowding_r_of_theta2: theta2 = 2 arccot(2 mu_inv(r pi/2)^2 - 1).

    For r < 1 the cotangent argument is evaluated through the conjugate
    modulus, which avoids the catastrophic cancellation of forming
    s = sqrt(1 - s'^2) when s' is tiny.
    """
    if r <= 0.0:
        raise ValueError("r must be positive")
    if r >= 1.0:
        s = mu_inv(r * _HALF_PI)
        x = 2.0 * s * s - 1.0
    else:
        # mu(s) mu(s') = pi^2/4, so mu(s') = pi / (2 r); then
        # 2 s^2 - 1 = 1 - 2 s'^2 exactly.
        sc = mu_inv(_HALF_PI / r)
        x = 1.0 - 2.0 * sc * sc
    # arccot with range (0, pi)
    return 2.0 * (_HALF_PI - math.atan(x))
