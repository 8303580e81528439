"""Minimal phase-space energies of distributions under affine maps.

The package computes how much potential energy a nonnegative phase-space
distribution can shed under affine coordinate changes whose linear part is
either volume preserving or symplectic, together with the discrete
rearrangement floor on lattices and randomized verification tools.
"""

# Names are imported from the module that owns them.  These three stay here
# only because bench/reference.py imports them from the package.
from .distributions import Moments, QuadraticPotential
from .verify import SymplecticSampler

__version__ = "0.1.0"
