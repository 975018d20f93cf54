"""Generator-based arithmetic and the structures built on it.

The field of two-coordinate numbers over a pair of strictly increasing
bijections, concrete normed algebras over that field (scalars and finite
grids of function values), geometric-series inversion, homomorphism and
ideal machinery, a randomized axiom harness, and a small CLI.
"""

# each submodule's __all__ is the one list of its public names; errors
# defines only exception classes and imports nothing, so it needs none
from .algebra import *
from .axiom_harness import *
from .cli import *
from .errors import *
from .expr import *
from .generators import *
from .inversion import *
from .morphisms import *
from .report import *
from .star_complex import *
from .star_real import *

__version__ = "0.1.0"
