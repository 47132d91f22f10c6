"""fracppk: Poisson counting processes and random fields of order k, with
time-fractional, space-fractional, and tempered time-space variants.

The package evaluates pmfs, pgfs, moments, Levy measures, and first-passage
densities exactly, by closed forms and positive sums (clock weights, from a
quadrature over the Mittag-Leffler law where the clock is inverse stable,
times convolution powers of the jump law); exact-in-law samplers built on
subordinator representations; marked spatial fields over boxes; and a
verification harness that cross-checks the analytic and sampling routes
against each other.
"""

from . import errors, combinatorics, specfun, subordinators, processes, fields, verify
from .errors import *
from .combinatorics import *
from .specfun import *
from .subordinators import *
from .processes import *
from .fields import *
from .verify import *

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name
    for module in (errors, combinatorics, specfun, subordinators, processes, fields, verify)
    for name in module.__all__
]
