"""The benchmark's four workloads: inputs from the seed, queries, oracle checks.

A query is one call of an invariant (or of the CLI). Queries are grouped
into units: a unit's queries run back to back and one check scores all
of them, which lets the symmetry check d(a, b) = d(b, a) see both
directions. Each check returns one error per query, in the measure its
tolerance is stated in; an error above the tolerance, an exception, a
non-zero CLI exit or a non-finite value is a failure.

Reference values are copied, unchanged, from ``tests/test_acceptance.py``
(hyperbolic distances on the L-shape) or computed by ``conforminv.exact``
(quadrilateral and exterior-ellipse oracles) while the inputs are made,
outside any timed region.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import conforminv.cli
import conforminv.curves
import conforminv.exact
import conforminv.invariants

PI = math.pi

# tests/test_acceptance.py: L_SHAPE and the make_polygon(L_SHAPE, 512, p=3.0)
# discretization used by test_hyperbolic_distance_l_shape
L_SHAPE = [6 + 1j, 1 + 1j, 1 + 4j, -1 + 4j, -1 - 1j, 6 - 1j]
L_NS = 512
L_P = 3.0

# tests/test_acceptance.py::test_hyperbolic_distance_l_shape, targets_i and
# targets_r: (base, point, pinned distance), absolute tolerance 1e-6
ACCEPTANCE_PAIRS = (
    (2j, 1.0 + 0.0j, 3.50661554819086),
    (2j, 2.0 + 0.0j, 4.91711064317017),
    (2j, 3.0 + 0.0j, 6.47927360380709),
    (2j, 4.0 + 0.0j, 8.05147684115352),
    (2j, 5.0 + 0.0j, 9.66456147776192),
    (2 + 0j, 0.0 + 0.0j, 2.99228771572299),
    (2 + 0j, 0.0 + 1.0j, 3.50483278097652),
    (2 + 0j, 0.0 + 2.0j, 4.91711064317017),
    (2 + 0j, 0.0 + 3.0j, 6.52150321421451),
)
DISTANCE_TOL = 1e-6  # test_hyperbolic_distance_l_shape and _symmetry
# The bases of the pinned pairs. test_hyperbolic_distance_symmetry
# computes d(2i, 2) with base 2i and d(2, 2i) with base 2.
L_BASES = (2j, 2 + 0j)
# Seed-drawn points lie half a unit inside the L: the foot
# [-0.5, 3.5] x [-0.5, 0.5] and the leg [-0.5, 0.5] x [0.5, 3].
# The foot stops at 3.5 because accuracy falls off further down it, where
# the map crowds: over 20 000 pairs, the largest gap between the two
# bases is 2.9e-7 up to x = 3.5, 6.4e-7 up to 4 and 3.6e-6 up to 5.
L_FOOT_END = 3.5
L_FOOT, L_LEG = L_FOOT_END + 0.5, 2.5  # areas of the two rectangles
# R4 sequence steps: inverse powers of the root of x^5 = x + 1
R4 = 1.0 / 1.1673039782614187 ** np.arange(1, 5)

# tests/test_acceptance.py::test_quadrilateral_sweep_against_oracle:
# marked points (1, e^{i pi/2}, e^{i theta2}, e^{i 3pi/2}) at its nine
# angles theta2 = 0.6 pi, 0.7 pi, ..., 1.4 pi, relative tolerance
QUAD_TOL = 1e-10
QUAD_THETAS = tuple(float(t) for t in PI * np.arange(0.6, 1.45, 0.1))
# Half the default n_s (the size of the quadrilateral property tests): a
# query then takes about 2 s instead of 6 s, so a run holds enough
# queries for steady figures. The errors stay below 2.9e-11.
QUAD_NS = 256

# tests/test_acceptance.py::test_exterior_ellipse_sweep: semiaxes (1, r),
# n = 4096, r in [0.1, 1], absolute tolerance
CAPACITY_N = 4096
CAPACITY_TOL = 1e-10
CAPACITY_RANGE = (0.1, 1.0)

GRID = "-1,6,-1,4,141,101"
GRID_NODES = 141 * 101


@dataclass
class Unit:
    """Queries run back to back, scored together by ``check``."""

    queries: list
    check: Callable[[list], list]   # results (None on exception) -> errors
    mandatory: bool = False         # runs even after the deadline


def _finite_or_inf(x) -> float:
    return float(x) if x is not None and math.isfinite(x) else math.inf


class Workload:
    name = ""
    tol = 0.0
    n = 0

    def warmup(self) -> Unit:
        raise NotImplementedError

    def units(self):
        raise NotImplementedError

    def run(self, query):
        raise NotImplementedError

    def key(self, query):
        """The (curve, base) a query solves for, to count repeats."""
        raise NotImplementedError

    def describe(self, query):
        """JSON-ready record of one query's input."""
        return self.key(query)


class LShapeHypdist(Workload):
    name = "lshape-hypdist"
    tol = DISTANCE_TOL
    n = 6 * L_NS

    def __init__(self, rng, workdir):
        self.rng = rng
        self.curve = conforminv.curves.make_polygon(L_SHAPE, L_NS, p=L_P)

    def _point(self, u, v):
        # area-preserving map of the unit square onto the foot and the leg
        split = L_FOOT / (L_FOOT + L_LEG)
        if u < split:
            return complex(-0.5 + L_FOOT * u / split, -0.5 + v)
        return complex(-0.5 + v, 0.5 + L_LEG * (u - split) / (1.0 - split))

    @staticmethod
    def _pinned(base, z, want, mandatory=False):
        return Unit([(base, base, z)],
                    lambda res: [abs(_finite_or_inf(res[0]) - want)], mandatory)

    def warmup(self):
        return self._pinned(*ACCEPTANCE_PAIRS[0])

    def units(self):
        for pair in ACCEPTANCE_PAIRS:
            yield self._pinned(*pair, mandatory=True)
        # Pairs (a, b) follow the R4 low-discrepancy sequence from a
        # seed-drawn offset: each pair is uniform on region x region, and
        # every run covers that space evenly. d(a, b) is computed with base
        # 2i and d(b, a) with base 2, so the check sees both the symmetry
        # and the independence of the base, and every solve repeats one of
        # the two (curve, base) problems.
        offset = self.rng.uniform(size=4)
        k = 0
        while True:
            u = (offset + k * R4) % 1.0
            a, b = self._point(u[0], u[1]), self._point(u[2], u[3])
            yield Unit([(L_BASES[0], a, b), (L_BASES[1], b, a)], self._symmetry)
            k += 1

    @staticmethod
    def _symmetry(res):
        gap = abs(_finite_or_inf(res[0]) - _finite_or_inf(res[1]))
        gap = gap if math.isfinite(gap) else math.inf
        return [gap, gap]

    def run(self, query):
        base, z1, z2 = query
        return conforminv.invariants.hyperbolic_distance(self.curve, base, z1, z2)

    def key(self, query):
        return [query[0].real, query[0].imag]

    def describe(self, query):
        return [[z.real, z.imag] for z in query]


class QuadSweep(Workload):
    name = "quad-sweep"
    tol = QUAD_TOL
    n = 4 * QUAD_NS

    def __init__(self, rng, workdir):
        self.rng = rng
        self.cfg = conforminv.invariants.QuadConfig(n_s=QUAD_NS)

    def _unit(self, thetas):
        refs = [conforminv.exact.oracle_quad_r(0.5 * PI, t, 1.5 * PI) for t in thetas]

        def check(res):
            return [math.inf if tr is None or not tr.converged
                    else abs(_finite_or_inf(tr.r) - ref) / ref
                    for tr, ref in zip(res, refs)]

        return Unit(list(thetas), check)

    def warmup(self):
        # theta2 = pi is the square, which converges in one rectangle solve
        return self._unit([PI])

    def units(self):
        # The outer iteration count (1 to 29) depends on theta2, so a unit
        # is a whole sweep of the nine angles in a seed-drawn order: every
        # run then holds the same mix of cheap and dear queries.
        while True:
            yield self._unit([QUAD_THETAS[i]
                              for i in self.rng.permutation(len(QUAD_THETAS))])

    def run(self, theta2):
        return conforminv.invariants.quad_modulus(
            1.0 + 0.0j, 1j, complex(np.exp(1j * theta2)), -1j, cfg=self.cfg)

    def key(self, theta2):
        return theta2 / PI


class GridField(Workload):
    name = "grid-field"
    tol = DISTANCE_TOL
    n = 6 * L_NS

    def __init__(self, rng, workdir):
        self.rng = rng
        self.domain = Path(workdir) / "L.json"
        self.out = Path(workdir) / "field.csv"
        self.domain.write_text(json.dumps({
            "kind": "polygon",
            "vertices": [[z.real, z.imag] for z in L_SHAPE],
            "ns": L_NS,
            "grading_p": L_P,
        }))

    def _unit(self, base):
        refs = {(z.real, z.imag): want for b, z, want in ACCEPTANCE_PAIRS if b == base}

        def check(res):
            if res[0] != 0:
                return [math.inf]
            return [self._field_error(refs)]

        return Unit([base], check)

    def _field_error(self, refs):
        with open(self.out, newline="") as fh:
            rows = list(csv.reader(fh))
        if rows[0] != ["x", "y", "inside", "value"] or len(rows) != 1 + GRID_NODES:
            return math.inf
        worst = 0.0
        found = 0
        for x, y, inside, value in rows[1:]:
            if inside != "1":
                continue
            v = float(value)
            if not math.isfinite(v):
                return math.inf
            for (rx, ry), want in refs.items():
                if abs(float(x) - rx) < 1e-9 and abs(float(y) - ry) < 1e-9:
                    worst = max(worst, abs(v - want))
                    found += 1
        return worst if found == len(refs) else math.inf

    def warmup(self):
        return self._unit(2j)

    def units(self):
        while True:
            yield self._unit(2j if self.rng.integers(2) == 0 else 2 + 0j)

    def run(self, base):
        z1 = "2i" if base == 2j else "2"
        return conforminv.cli.main(["hypdist", str(self.domain), "--z1", z1,
                                    f"--grid={GRID}", "--out", str(self.out)])

    def key(self, base):
        return [base.real, base.imag]


class CapacitySweep(Workload):
    name = "capacity-sweep"
    tol = CAPACITY_TOL
    n = CAPACITY_N

    def __init__(self, rng, workdir):
        self.rng = rng

    def _unit(self, r):
        ref = conforminv.exact.oracle_reduced_modulus("ellipse_exterior", r)
        return Unit([r], lambda res: [abs(_finite_or_inf(res[0]) - ref)])

    def warmup(self):
        return self._unit(0.5)

    def units(self):
        while True:
            yield self._unit(float(self.rng.uniform(*CAPACITY_RANGE)))

    def run(self, r):
        curve = conforminv.curves.make_ellipse(1.0, r, CAPACITY_N, "exterior")
        return conforminv.invariants.reduced_modulus(curve)

    def key(self, r):
        return r


WORKLOADS = {w.name: w for w in (LShapeHypdist, QuadSweep, GridField, CapacitySweep)}


def make(name: str, seed: int, workdir) -> Workload:
    return WORKLOADS[name](np.random.default_rng(seed), workdir)
