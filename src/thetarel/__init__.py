"""thetarel: general theta relations, generated exactly and verified numerically.

The library builds the coefficient-weighted term lists of n-fold theta
relations driven by the cycle number lambda (n for odd n, n/2 for even
n), evaluates theta functions with arbitrary rational characteristics by
truncated lattice sums with rigorous tail bounds, and packages classical
specializations (quartic, ternary, constants identities) as pass/fail
checks.

The package namespace republishes the public API of five modules, each
exactly as the module's __all__ declares it: charalg, identities,
relations, theta and transforms.
"""

from .charalg import *
from .identities import *
from .relations import *
from .theta import *
from .transforms import *

__version__ = "0.1.0"
