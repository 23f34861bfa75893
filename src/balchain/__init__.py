"""Exact-arithmetic Markov chain families built on balancing-type numbers.

The package generates the integer sequences, constructs the chain families
with exact fraction entries, computes stationary distributions by three
independent methods, and machine-checks every closed form and limit claim.
"""

from . import chains, quadratic, sequences, steady, verify
from .chains import *
from .quadratic import *
from .sequences import *
from .steady import *
from .verify import *

__version__ = "0.1.0"

__all__ = (
    chains.__all__
    + quadratic.__all__
    + sequences.__all__
    + steady.__all__
    + verify.__all__
)
