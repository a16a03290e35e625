"""Bipartite correlation boxes and their nonlocality analyses.

Build boxes (the maximally nonlocal box, deterministic local strategies,
hidden-variable averages, singlet-state measurement statistics, convex
mixtures), analyze them for no-signaling, parameter and outcome
independence, factorizability and conditioned dependence, evaluate the
CHSH combination against the classical, quantum and algebraic bounds,
and sample them reproducibly.
"""

from . import box, chsh, hidden_variable, locality, quantum, sampler
from .box import *
from .chsh import *
from .hidden_variable import *
from .locality import *
from .quantum import *
from .sampler import *

__version__ = "0.1.0"

__all__ = [
    *box.__all__,
    *chsh.__all__,
    *hidden_variable.__all__,
    *locality.__all__,
    *quantum.__all__,
    *sampler.__all__,
]
