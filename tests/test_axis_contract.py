"""The axis contract of every public entry point that takes dyadic systems.

System k lives on axis k of the function.  Each row calls one entry point
three times with one fault each: a level-4 system against level-3 functions
raises SystemMismatchError, a function with the wrong number of axes raises
ShapeError, and a systems argument that is neither a DyadicSystem nor a pair
of them raises ParameterError.
"""

import numpy as np
import pytest

from dyadica import analysis, fracops, haar, paracomm
from dyadica.dyadic import DyadicSystem, GoodParams
from dyadica.errors import ParameterError, ShapeError, SystemMismatchError
from dyadica.grid import build_axis, grid_function
from dyadica.weights import ProductWeight, Weight

AX = build_axis(3)
S, T = DyadicSystem(AX, 5), DyadicSystem(AX, 2)
WRONG = DyadicSystem(build_axis(4), 0)
WEIGHT = ProductWeight(*(Weight(grid_function(np.ones(8), AX)) for _ in range(2)))
TABLE = fracops.maximal_table(S, 1, 0, 0.5)
FAMILY = analysis.OmegaFamily((np.ones((8, 8), dtype=bool),))

# the three systems arguments of each kind: (right, on the wrong axis, malformed)
ONE = (S, WRONG, AX)
PAIR = ((S, T), (WRONG, WRONG), (S, AX))


def _function(ndim: int):
    """A mean-zero function on ``ndim`` copies of the level-3 axis."""
    vals = np.random.default_rng(ndim).normal(size=(8,) * ndim)
    return grid_function(vals - vals.mean(), *(AX,) * ndim)


# id: (call(f, systems), the function's number of axes, systems kind)
ROWS = {
    "level_average": (lambda f, s: haar.level_average(f, s, 1), 1, ONE),
    "level_average-axis2": (lambda f, s: haar.level_average(f, s, 1, 2), 2, ONE),
    "level_difference": (lambda f, s: haar.level_difference(f, s, 1), 1, ONE),
    "level_difference-axis2": (lambda f, s: haar.level_difference(f, s, 1, 2), 2, ONE),
    "haar_expand": (lambda f, s: haar.haar_expand(f, s), 1, ONE),
    "haar_expand-pair": (lambda f, s: haar.haar_expand(f, *s), 2, PAIR),
    "frac_maximal": (lambda f, s: analysis.frac_maximal(f, s, 0.5), 1, ONE),
    "frac_maximal_domination": (
        lambda f, s: analysis.frac_maximal_domination(f, s, 0.5),
        1,
        ONE,
    ),
    "square_function-sole": (lambda f, s: analysis.square_function(f, s, "sole"), 1, ONE),
    "square_function-axis1": (lambda f, s: analysis.square_function(f, s, "axis1"), 2, PAIR),
    "square_function-axis2": (lambda f, s: analysis.square_function(f, s, "axis2"), 2, PAIR),
    "square_function-rect": (lambda f, s: analysis.square_function(f, s, "rect"), 2, PAIR),
    "bmo_prod_norm": (lambda f, s: analysis.bmo_prod_norm(f, WEIGHT, s, FAMILY), 2, PAIR),
    "bmo_prod_rect_norm": (lambda f, s: analysis.bmo_prod_rect_norm(f, WEIGHT, s), 2, PAIR),
    "domination_ratio": (lambda f, s: fracops.domination_ratio(f, 0.5, s), 1, ONE),
    "verify_representation": (
        lambda f, s: fracops.verify_representation(f, f, 0.5, GoodParams(), [S, s]),
        1,
        ONE,
    ),
    "paraproduct": (lambda f, s: paracomm.paraproduct("A1", f, f, s), 2, PAIR),
    "decompose_product": (lambda f, s: paracomm.decompose_product(f, f, s), 2, PAIR),
    "shift_commutator_expand": (
        lambda f, s: paracomm.shift_commutator_expand(f, f, TABLE, TABLE, s),
        2,
        PAIR,
    ),
}


@pytest.mark.parametrize("row", ROWS)
def test_each_violation_of_the_axis_contract_raises_its_error(row):
    call, ndim, (right, wrong, malformed) = ROWS[row]
    f = _function(ndim)
    call(f, right)  # the row itself is well formed
    with pytest.raises(SystemMismatchError):
        call(f, wrong)
    with pytest.raises(ShapeError):
        call(_function(3 - ndim), right)
    with pytest.raises(ParameterError):
        call(f, malformed)
