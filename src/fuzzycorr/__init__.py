"""Coarse-grained bipartite correlations and quantum-to-classical transition search.

Numerical toolkit for fuzzy (coarse-grained) correlation functions of
macroscopic entangled states, symmetric multi-settings Bell witnesses and
linear steering witnesses, their optima at fixed closed-form angles, and
location of the coarsening / visibility values where the optimized witness
drops to its classical bound.
"""

from .correlation import *
from .transition import *
from .witness import *

__version__ = "0.1.0"
