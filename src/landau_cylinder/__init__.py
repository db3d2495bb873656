"""Driven Landau states on a flux-threaded cylinder.

Numerical laboratory for adiabatic transport of Landau-level eigenstates
on a 2D cylinder threaded by an axial flux: magnetic translation algebra,
exact mode-space time evolution, and geometric-phase readout for loops
that wind around the cylinder, sweep local area, or both.
"""

# Each submodule's own __all__ is the one list of its public names; every
# star import below also binds the submodule itself in this namespace.
from .core import *
from .drive import *
from .eigenstates import *
from .experiments import *
from .magtrans import *
from .propagator import *

__version__ = "0.1.0"

__all__ = [
    name
    for module in (core, drive, eigenstates, experiments, magtrans, propagator)
    for name in module.__all__
] + ["__version__"]
