"""Every public integer parameter goes through one predicate,
``grid._is_integer``: a bool, a float (even an integral one) or a string
raises ParameterError (``build_axis``, a configuration value, raises
ConfigurationError), and a numpy integer gives the plain int's result.  An
axis selector (``axis_index``) is an integer parameter too."""

import numpy as np
import pytest

from dyadica import dyadic, fracops, grid, haar
from dyadica.errors import ConfigurationError, ParameterError

AX = grid.build_axis(3)
S = dyadic.DyadicSystem(AX, 5)
PARAMS = dyadic.GoodParams()
CUBE = S.cube(1, 1)
_rng = np.random.default_rng(3)
F1 = grid.grid_function(_rng.normal(size=8), AX)
F2 = grid.grid_function(_rng.normal(size=(8, 8)), AX, AX)
TABLE = np.ones((4, 1, 2))

# (function.parameter): (the call with that parameter set to v, a valid int)
CALLS = {
    "build_axis.level": (lambda v: grid.build_axis(v), 3),
    "kernel_cell_integral.cell_a": (lambda v: grid.kernel_cell_integral(AX, v, 0, 0.5), 1),
    "kernel_cell_integral.cell_b": (lambda v: grid.kernel_cell_integral(AX, 0, v, 0.5), 1),
    "DyadicSystem.offset_cells": (lambda v: dyadic.DyadicSystem(AX, v), 2),
    "DyadicCube.level": (lambda v: S.cube(v, 0), 2),
    "DyadicCube.index": (lambda v: S.cube(2, v), 2),
    "GoodParams.r": (lambda v: dyadic.GoodParams(r=v), 2),
    "ancestor.i": (lambda v: dyadic.ancestor(S.cube(2, 3), v), 2),
    "bad_mask.level": (lambda v: dyadic.bad_mask(S, v, PARAMS), 3),
    "estimate_pgood.level_k": (lambda v: dyadic.estimate_pgood(AX, PARAMS, v, 4, 0), 3),
    "estimate_pgood.trials": (lambda v: dyadic.estimate_pgood(AX, PARAMS, 3, v, 0), 2),
    "level_average.level": (lambda v: haar.level_average(F1, S, v), 2),
    "level_average.axis_index": (lambda v: haar.level_average(F2, S, 1, axis_index=v), 2),
    "partial_frac_integral.axis_index": (lambda v: fracops.partial_frac_integral(F2, 0.5, v), 2),
    "level_difference.level": (lambda v: haar.level_difference(F1, S, v), 2),
    "martingale_block.i": (lambda v: haar.martingale_block(F1, CUBE, v), 1),
    "rect_block.i": (lambda v: haar.rect_block(F2, CUBE, CUBE, v, 0), 1),
    "rect_block.j": (lambda v: haar.rect_block(F2, CUBE, CUBE, 0, v), 1),
    "maximal_table.i": (lambda v: fracops.maximal_table(S, v, 0, 0.5), 2),
    "maximal_table.j": (lambda v: fracops.maximal_table(S, 0, v, 0.5), 2),
    "ShiftCoefficientTable.i": (lambda v: fracops.ShiftCoefficientTable(v, 0, 0.5, TABLE), 1),
    "ShiftCoefficientTable.j": (lambda v: fracops.ShiftCoefficientTable(0, v, 0.5, TABLE), 1),
    "concentric_indicator_pairing.extra_cells": (
        lambda v: fracops.concentric_indicator_pairing(CUBE, v, 0.5),
        1,
    ),
}


def _bits(result):
    """A value that is equal for two results exactly when their bits are."""
    if isinstance(result, grid.GridFunction):
        return result.values.tobytes()
    if isinstance(result, fracops.ShiftCoefficientTable):
        return int(result.i), int(result.j), result.lam, result.coeffs.tobytes()
    if isinstance(result, np.ndarray):
        return result.tobytes()
    return result


@pytest.mark.parametrize("bad", (1.5, True, "2"), ids=("float", "bool", "str"))
@pytest.mark.parametrize("name", sorted(CALLS))
def test_integer_parameters_reject_bools_and_non_integers(name, bad):
    call, _ = CALLS[name]
    error = ConfigurationError if name == "build_axis.level" else ParameterError
    with pytest.raises(error, match="must be"):
        call(bad)


@pytest.mark.parametrize("name", sorted(CALLS))
def test_integer_parameters_take_numpy_integers_as_plain_ints(name):
    call, value = CALLS[name]
    assert _bits(call(np.int64(value))) == _bits(call(value))


def test_kernel_cell_integral_does_not_truncate():
    with pytest.raises(ParameterError):
        grid.kernel_cell_integral(AX, 1.9, 0, 0.5)
    assert grid.kernel_cell_integral(AX, np.int32(1), 0, 0.5) == grid.kernel_cell_integral(AX, 1, 0, 0.5)
