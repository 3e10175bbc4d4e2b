"""Constructive witnesses for sums of products of congruence classes and
arithmetic progressions, with exhaustive small-parameter oracles for every claim.
"""

from . import iterated, oracle, progressions, witness
from .iterated import *
from .oracle import *
from .progressions import *
from .witness import *

__version__ = "0.1.0"

# Each submodule's __all__ is the one list of its public names.
__all__ = [
    *witness.__all__,
    *progressions.__all__,
    *iterated.__all__,
    *oracle.__all__,
    "__version__",
]
