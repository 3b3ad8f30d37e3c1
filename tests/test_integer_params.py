"""Every public integer parameter goes through one predicate,
``grid._is_integer``: a bool, a float (even an integral one) or a string
raises ParameterError (``build_axis``, a configuration value, raises
ConfigurationError), and a numpy integer gives the plain int's result.  An
axis selector (``axis_index``, or the transforms' array axis ``pos``) is an
integer parameter too, and so is each integer field of a configuration."""

import numpy as np
import pytest

from dyadica import analysis, cli, dyadic, fracops, grid, haar, paracomm
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
    "ExperimentConfig.seed": (lambda v: cli.ExperimentConfig("norms", v), 3),
    "ExperimentConfig.levels": (lambda v: cli.ExperimentConfig("norms", 0, levels=(v,)), 3),
    "ExperimentConfig.samples": (lambda v: cli.ExperimentConfig("norms", 0, samples=v), 3),
    "DyadicSystem.offset_cells": (lambda v: dyadic.DyadicSystem(AX, v), 2),
    "DyadicSystem.cubes_at_level": (lambda v: S.cubes_at_level(v), 2),
    "sample_system.seed": (lambda v: dyadic.sample_system(AX, v), 7),
    "DyadicCube.level": (lambda v: S.cube(v, 0), 2),
    "DyadicCube.index": (lambda v: S.cube(2, v), 2),
    "GoodParams.r": (lambda v: dyadic.GoodParams(r=v), 2),
    "ancestor.i": (lambda v: dyadic.ancestor(S.cube(2, 3), v), 2),
    "bad_mask.level": (lambda v: dyadic.bad_mask(S, v, PARAMS), 3),
    "level_average.level": (lambda v: haar.level_average(F1, S, v), 2),
    "level_average.axis_index": (lambda v: haar.level_average(F2, S, 1, axis_index=v), 2),
    "level_difference.level": (lambda v: haar.level_difference(F1, S, v), 2),
    "level_difference.axis_index": (
        lambda v: haar.level_difference(F2, S, 1, axis_index=v),
        2,
    ),
    "haar_analyze.pos": (lambda v: haar.haar_analyze(F2.values, S, v), 1),
    "haar_synthesize.pos": (lambda v: haar.haar_synthesize(F2.values, S, v), 1),
    "maximal_table.i": (lambda v: fracops.maximal_table(S, v, 0, 0.5), 2),
    "maximal_table.j": (lambda v: fracops.maximal_table(S, 0, v, 0.5), 2),
    "ShiftCoefficientTable.i": (lambda v: fracops.ShiftCoefficientTable(v, 0, 0.5, TABLE), 1),
    "ShiftCoefficientTable.j": (lambda v: fracops.ShiftCoefficientTable(0, v, 0.5, TABLE), 1),
    "concentric_indicator_pairing.extra_cells": (
        lambda v: fracops.concentric_indicator_pairing(CUBE, v, 0.5),
        1,
    ),
    "default_omega_family.lshapes": (lambda v: analysis.default_omega_family(S, S, v), 2),
    "default_omega_family.seed": (lambda v: analysis.default_omega_family(S, S, 2, v), 1),
    "BloomConfig.n_samples": (lambda v: paracomm.BloomConfig(n_samples=v), 4),
    "BloomConfig.seed": (lambda v: paracomm.BloomConfig(seed=v), 4),
    "BloomConfig.base_level": (lambda v: paracomm.BloomConfig(base_level=v), 2),
}


def _bits(result):
    """A value that is equal for two results exactly when their bits are."""
    if isinstance(result, grid.GridFunction):
        return result.values.tobytes()
    if isinstance(result, fracops.ShiftCoefficientTable):
        return int(result.i), int(result.j), result.lam, result.coeffs.tobytes()
    if isinstance(result, np.ndarray):
        return result.tobytes()
    if isinstance(result, analysis.OmegaFamily):
        return tuple(mask.tobytes() for mask in result.shapes)
    return result


@pytest.mark.parametrize("bad", (1.5, True, "2"), ids=("float", "bool", "str"))
@pytest.mark.parametrize("name", sorted(CALLS))
def test_integer_parameters_reject_bools_and_non_integers(name, bad):
    call, _ = CALLS[name]
    configured = name == "build_axis.level" or name.startswith("ExperimentConfig.")
    error = ConfigurationError if configured else ParameterError
    with pytest.raises(error, match="must be"):
        call(bad)


@pytest.mark.parametrize("name", sorted(CALLS))
def test_integer_parameters_take_numpy_integers_as_plain_ints(name):
    call, value = CALLS[name]
    assert _bits(call(np.int64(value))) == _bits(call(value))
