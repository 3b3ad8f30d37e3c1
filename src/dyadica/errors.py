"""Exception hierarchy for dyadica.

Every error raised on purpose by the package derives from :class:`DyadicaError`,
so callers can catch one base class.  The subclasses mirror the kinds of
contract violations the operations distinguish: bad configuration values,
mismatched grids, out-of-range parameters, and broken caller preconditions.
"""

__all__ = [
    "ConfigurationError",
    "ContractError",
    "DegenerateInputError",
    "DyadicaError",
    "InfeasibleExponentError",
    "InvariantError",
    "LevelUnderflowError",
    "ParameterError",
    "ResolutionError",
    "ShapeError",
    "SystemMismatchError",
]


class DyadicaError(Exception):
    """Base class for all errors raised by dyadica."""


class ConfigurationError(DyadicaError):
    """A configuration value is out of range or a config file is invalid."""


class ShapeError(DyadicaError):
    """Operands live on different grids, or have the wrong number of axes:
    in the axis contract (``dyadica.dyadic._placed``), the function's axis
    count, another factor's grid or a weight's axis is wrong."""


class ParameterError(DyadicaError):
    """A numeric parameter (exponent, power, family) is outside its domain,
    or a systems argument is not a DyadicSystem or a pair of them."""


class SystemMismatchError(DyadicaError):
    """Cubes from different dyadic systems were combined, or, under the axis
    contract (``dyadica.dyadic._placed``), a system's axis is not the
    function's axis at its position."""


class LevelUnderflowError(DyadicaError):
    """An ancestor above the coarsest level was requested."""


class ResolutionError(DyadicaError):
    """The mesh is too coarse for the requested object (e.g. children of a
    finest-level cell)."""


class ContractError(DyadicaError):
    """A documented caller precondition does not hold."""


class InvariantError(DyadicaError):
    """Internal data violates a structural invariant (e.g. a coefficient
    bound)."""


class DegenerateInputError(DyadicaError):
    """The input is degenerate for this operation (e.g. identically zero)."""


class InfeasibleExponentError(DyadicaError):
    """No valid target exponent exists for the requested (p, lambda)."""
