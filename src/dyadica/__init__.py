"""dyadica: bi-parameter dyadic harmonic analysis on a discretized torus.

Cell-average function calculus, shifted dyadic lattices with goodness
bookkeeping, Haar/martingale decompositions, exact power-kernel operators,
Muckenhoupt weights, mixed norms, bi-parameter paraproducts and iterated
commutators — together with the verification suites that exercise them.

Each module's ``__all__`` is its public API; the package exports the union
of those lists and nothing else.
"""

__version__ = "0.1.0"

from . import analysis, cli, dyadic, errors, fracops, grid, haar, paracomm, weights
from .errors import *  # noqa: F401,F403
from .grid import *  # noqa: F401,F403
from .dyadic import *  # noqa: F401,F403
from .haar import *  # noqa: F401,F403
from .fracops import *  # noqa: F401,F403
from .weights import *  # noqa: F401,F403
from .analysis import *  # noqa: F401,F403
from .paracomm import *  # noqa: F401,F403
from .cli import *  # noqa: F401,F403

__all__ = [
    name
    for module in (errors, grid, dyadic, haar, fracops, weights, analysis, paracomm, cli)
    for name in module.__all__
]
