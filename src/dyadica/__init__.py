"""dyadica: bi-parameter dyadic harmonic analysis on a discretized torus.

Cell-average function calculus, shifted dyadic lattices with goodness
bookkeeping, Haar/martingale decompositions, exact power-kernel operators,
Muckenhoupt weights, mixed norms, bi-parameter paraproducts and iterated
commutators — together with the verification suites that exercise them.

Each module's ``__all__`` is its public API; the package exports the union
of those lists and nothing else.  ``import dyadica`` loads the one-parameter
core: ``errors``, ``grid``, ``dyadic``, ``haar`` and ``fracops``.  The upper
layers, ``weights``, ``analysis``, ``paracomm`` and ``cli``, load together on
the first use of any of their names or of ``__all__`` (PEP 562).
"""

__version__ = "0.1.0"

from . import dyadic, errors, fracops, grid, haar
from .errors import *  # noqa: F401,F403
from .grid import *  # noqa: F401,F403
from .dyadic import *  # noqa: F401,F403
from .haar import *  # noqa: F401,F403
from .fracops import *  # noqa: F401,F403

_UPPER = ("weights", "analysis", "paracomm", "cli")


def __getattr__(name):
    if name in _UPPER:  # the cli imports the other three
        import importlib

        return importlib.import_module(f"{__name__}.{name}")
    upper = [__getattr__(module) for module in _UPPER]
    exports = {key: getattr(module, key) for module in upper for key in module.__all__}
    if name != "__all__" and name not in exports:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    core = (errors, grid, dyadic, haar, fracops)
    globals().update(exports, __all__=[key for m in (*core, *upper) for key in m.__all__])
    return globals()[name]

