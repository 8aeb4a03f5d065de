"""Conformal invariants of simply connected planar domains.

Numerical conformal mapping via a boundary integral equation with the
generalized Neumann kernel, plus the invariants built on top of it:
hyperbolic distance, conformal radius and reduced modulus, harmonic
measure of boundary sides, and the conformal modulus of quadrilaterals.

The package exports each submodule's ``__all__`` and ``__version__``.
"""

from . import curves, diskmap, exact, invariants, kernel
from .curves import *  # noqa: F403
from .diskmap import *  # noqa: F403
from .exact import *  # noqa: F403
from .invariants import *  # noqa: F403
from .kernel import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [name for module in (curves, kernel, diskmap, exact, invariants)
           for name in module.__all__] + ["__version__"]
