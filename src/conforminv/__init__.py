"""Conformal invariants of simply connected planar domains.

Numerical conformal mapping via a boundary integral equation with the
generalized Neumann kernel, plus the invariants built on top of it:
hyperbolic distance, conformal radius and reduced modulus, harmonic
measure of boundary sides, and the conformal modulus of quadrilaterals.
"""

from .curves import (BoundaryCurve, make_amoeba, make_circular_arc_polygon,
                     make_ellipse, make_opened_slit_disk, make_polygon,
                     make_rectangle, spectral_derivative, winding_inside)
from .diskmap import DiskMap, cauchy_eval, map_bounded, map_unbounded, slit_opening_forward
from .exact import (agm, crowding_r_of_theta2, crowding_theta2_of_r, ellip_k, mu,
                    mu_inv, oracle_quad_r, oracle_reduced_modulus)
from .invariants import (GridSpec, QuadConfig, QuadModulusTrace, ScalarField,
                         conformal_radius, harmonic_measure, harmonic_measure_all,
                         harmonic_measure_field, hyperbolic_distance, hyperbolic_distance_field,
                         quad_modulus, quad_modulus_general, reduced_modulus,
                         reduced_modulus_slit_disk)
from .kernel import (ConvergenceError, GnkSolution, KernelContext, conjugate_periodic, context,
                     solve_neumann_system)

__version__ = "0.1.0"

__all__ = [
    "BoundaryCurve", "make_ellipse", "make_amoeba", "make_polygon",
    "make_circular_arc_polygon", "make_rectangle", "make_opened_slit_disk",
    "spectral_derivative", "winding_inside",
    "KernelContext", "context", "conjugate_periodic",
    "GnkSolution", "ConvergenceError", "solve_neumann_system",
    "DiskMap", "map_bounded", "map_unbounded", "cauchy_eval", "slit_opening_forward",
    "agm", "ellip_k", "mu", "mu_inv", "oracle_reduced_modulus",
    "oracle_quad_r", "crowding_r_of_theta2", "crowding_theta2_of_r",
    "GridSpec", "ScalarField", "hyperbolic_distance", "hyperbolic_distance_field",
    "conformal_radius", "reduced_modulus", "reduced_modulus_slit_disk",
    "harmonic_measure", "harmonic_measure_all", "QuadConfig", "QuadModulusTrace",
    "quad_modulus", "quad_modulus_general", "harmonic_measure_field",
    "__version__",
]
