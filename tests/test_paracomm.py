"""Tests for paraproducts, the exact product split, commutators, the
shift-level commutator expansion, and the ratio experiment."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dyadica.dyadic import DyadicCube, DyadicSystem, ancestor
from dyadica.errors import (
    ContractError,
    InvariantError,
    ParameterError,
    ShapeError,
    SystemMismatchError,
)
from dyadica.fracops import (
    ShiftCoefficientTable,
    apply_shift,
    maximal_table,
    partial_frac_integral,
)
from dyadica.grid import build_axis, constant_function, grid_function
from dyadica.haar import basis_column, haar_matrix
from dyadica.paracomm import (
    PARAPRODUCT_TAGS,
    BloomConfig,
    bloom_experiment,
    commutator,
    decompose_product,
    paraproduct,
    shift_commutator_expand,
    telescope_terms,
)

from oracles import mean_corrections_brute, paraproduct_brute


def system_pair(level, off1=0, off2=0):
    axis = build_axis(level)
    return DyadicSystem(axis, off1), DyadicSystem(axis, off2)


def rand_f(rng, sys1, sys2):
    shape = (sys1.axis.n_cells, sys2.axis.n_cells)
    return grid_function(rng.normal(size=shape), sys1.axis, sys2.axis)


def tensor_haar(sys1, sys2, k1, m1, k2, m2):
    c1 = haar_matrix(sys1)[:, basis_column(DyadicCube(sys1, k1, m1))]
    c2 = haar_matrix(sys2)[:, basis_column(DyadicCube(sys2, k2, m2))]
    return grid_function(np.outer(c1, c2), sys1.axis, sys2.axis)


# -- paraproducts ---------------------------------------------------------


def test_tag_inventory():
    assert PARAPRODUCT_TAGS == ("A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8", "W")


def test_paraproduct_validation():
    s1, s2 = system_pair(3)
    f = rand_f(np.random.default_rng(0), s1, s2)
    with pytest.raises(ParameterError):
        paraproduct("A9", f, f, (s1, s2))
    with pytest.raises(ParameterError):
        paraproduct("A1", f, f, (s1,))
    with pytest.raises(ParameterError):
        paraproduct("A1", f, f, s1)
    with pytest.raises(ParameterError):
        decompose_product(f, f, s1)
    one_axis = grid_function(np.ones(8), s1.axis)
    with pytest.raises(ShapeError):
        paraproduct("A1", one_axis, one_axis, (s1, s2))
    wrong = DyadicSystem(build_axis(4), 0)
    with pytest.raises(SystemMismatchError):
        paraproduct("A1", f, f, (wrong, s2))


def test_constant_symbol_kills_difference_tags():
    # every tag except W differentiates the symbol in some axis
    s1, s2 = system_pair(3)
    f = rand_f(np.random.default_rng(1), s1, s2)
    b = constant_function(2.5, s1.axis, s2.axis)
    for tag in PARAPRODUCT_TAGS[:-1]:
        assert np.all(paraproduct(tag, b, f, (s1, s2)).values == 0.0)
    assert np.max(np.abs(paraproduct("W", b, f, (s1, s2)).values)) > 0.0


def test_constant_input_leaves_only_the_smooth_tag():
    # every tag except A4 differentiates the second factor in some axis
    s1, s2 = system_pair(3, 2, 5)
    b = rand_f(np.random.default_rng(2), s1, s2)
    f = constant_function(1.75, s1.axis, s2.axis)
    for tag in PARAPRODUCT_TAGS:
        vals = paraproduct(tag, b, f, (s1, s2)).values
        if tag == "A4":
            assert np.max(np.abs(vals)) > 0.0
        else:
            assert np.all(vals == 0.0)


def test_single_rectangle_step_reproduces_its_square():
    s1, s2 = system_pair(4)
    g = tensor_haar(s1, s2, 1, 1, 2, 3)
    a1 = paraproduct("A1", g, g, (s1, s2))
    assert np.allclose(a1.values, g.values**2, atol=1e-12)
    # the remaining tags all average g at or below its own scale
    for tag in PARAPRODUCT_TAGS[1:]:
        assert np.allclose(paraproduct(tag, g, g, (s1, s2)).values, 0.0, atol=1e-12)


def test_paraproduct_bilinear():
    s1, s2 = system_pair(3)
    rng = np.random.default_rng(4)
    b1, b2, f = (rand_f(rng, s1, s2) for _ in range(3))
    combo = b1.with_values(b1.values - 3.0 * b2.values)
    for tag in ("A1", "A6", "W"):
        lhs = paraproduct(tag, combo, f, (s1, s2)).values
        rhs = (
            paraproduct(tag, b1, f, (s1, s2)).values
            - 3.0 * paraproduct(tag, b2, f, (s1, s2)).values
        )
        assert np.allclose(lhs, rhs, atol=1e-12)


@settings(max_examples=20, deadline=None)
@given(
    st.integers(1, 5),
    st.integers(1, 5),
    st.integers(0, 31),
    st.integers(0, 31),
    st.integers(0, 2**32 - 1),
)
@example(5, 5, 31, 31, 0)
@example(1, 5, 1, 30, 1)
def test_paraproducts_match_nested_loop_reference(L1, L2, off1, off2, seed):
    s1 = DyadicSystem(build_axis(L1), off1 % (1 << L1))
    s2 = DyadicSystem(build_axis(L2), off2 % (1 << L2))
    rng = np.random.default_rng(seed)
    b, f = rand_f(rng, s1, s2), rand_f(rng, s1, s2)
    scale = float(np.max(np.abs(b.values)) * np.max(np.abs(f.values)))
    o1, o2 = s1.offset_cells, s2.offset_cells
    parts = decompose_product(b, f, (s1, s2)).parts
    for tag in PARAPRODUCT_TAGS:
        ref = paraproduct_brute(tag, b.values, f.values, o1, o2)
        assert np.max(np.abs(parts[tag].values - ref)) <= 1e-13 * scale
        single = paraproduct(tag, b, f, (s1, s2)).values
        assert np.max(np.abs(single - ref)) <= 1e-13 * scale
    ref = mean_corrections_brute(b.values, f.values, o1, o2)
    assert np.max(np.abs(parts["mean"].values - ref)) <= 1e-13 * scale


# -- product decomposition ------------------------------------------------


def test_decomposition_is_exact():
    rng = np.random.default_rng(3)
    for off1, off2 in [(0, 0), (3, 6), (7, 1)]:
        s1, s2 = system_pair(4, off1, off2)
        b, f = rand_f(rng, s1, s2), rand_f(rng, s1, s2)
        report = decompose_product(b, f, (s1, s2))
        scale = np.max(np.abs(b.values * f.values))
        assert report.residual <= 1e-12 * scale
        assert set(report.parts) == set(PARAPRODUCT_TAGS) | {"mean"}


def test_constant_product_sits_in_the_mean_bucket():
    s1, s2 = system_pair(3)
    b = constant_function(1.5, s1.axis, s2.axis)
    f = constant_function(-2.0, s1.axis, s2.axis)
    report = decompose_product(b, f, (s1, s2))
    for tag in PARAPRODUCT_TAGS:
        assert np.all(report.parts[tag].values == 0.0)
    assert np.allclose(report.parts["mean"].values, -3.0, atol=1e-14)
    assert report.residual <= 1e-14


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 7), st.integers(0, 7))
def test_decomposition_exact_for_any_offsets(seed, off1, off2):
    s1, s2 = system_pair(3, off1, off2)
    rng = np.random.default_rng(seed)
    b, f = rand_f(rng, s1, s2), rand_f(rng, s1, s2)
    report = decompose_product(b, f, (s1, s2))
    scale = max(float(np.max(np.abs(b.values * f.values))), 1e-30)
    assert report.residual <= 1e-12 * scale


# -- commutators ----------------------------------------------------------


def test_commutator_constant_symbol_vanishes():
    s1, s2 = system_pair(4)
    f = rand_f(np.random.default_rng(5), s1, s2)
    b = constant_function(3.25, s1.axis, s2.axis)
    inner = commutator(b, f, {"inner": 0.5})
    assert np.max(np.abs(inner.values)) <= 1e-12
    iterated = commutator(b, f, {"iterated": (0.3, 0.7)})
    assert np.max(np.abs(iterated.values)) <= 1e-12


def test_commutator_symbol_constant_in_the_acting_axis_vanishes():
    s1, s2 = system_pair(4)
    rng = np.random.default_rng(6)
    f = rand_f(rng, s1, s2)
    beta = rng.normal(size=s1.axis.n_cells)
    b = grid_function(np.outer(beta, np.ones(s2.axis.n_cells)), s1.axis, s2.axis)
    inner = commutator(b, f, {"inner": 0.5})
    assert np.max(np.abs(inner.values)) <= 1e-12


def test_iterated_commutator_matches_nested_inner():
    s1, s2 = system_pair(3)
    rng = np.random.default_rng(7)
    b, f = rand_f(rng, s1, s2), rand_f(rng, s1, s2)
    full = commutator(b, f, {"iterated": (0.4, 0.6)})

    def inner(g):
        return commutator(b, g, {"inner": 0.6})

    t1f = partial_frac_integral(f, 0.4, 1)
    nested = partial_frac_integral(inner(f), 0.4, 1).values - inner(t1f).values
    assert np.allclose(full.values, nested, atol=1e-11)


def test_commutator_validation():
    s1, s2 = system_pair(3)
    f = rand_f(np.random.default_rng(8), s1, s2)
    with pytest.raises(ParameterError):
        commutator(f, f, {"wrong": 0.5})
    with pytest.raises(ParameterError):
        commutator(f, f, {"inner": 0.5, "iterated": (0.5, 0.5)})
    one_axis = grid_function(np.ones(8), s1.axis)
    with pytest.raises(ShapeError):
        commutator(one_axis, one_axis, {"inner": 0.5})


# -- telescoping ----------------------------------------------------------


def test_telescope_depth_zero_is_empty():
    s = DyadicSystem(build_axis(5), 0)
    b = grid_function(np.random.default_rng(9).normal(size=32), s.axis)
    I = s.cube(3, 5)
    assert telescope_terms(b, I, I, s) == ()


def test_telescope_sums_to_the_average_gap():
    s = DyadicSystem(build_axis(6), 3)
    b = grid_function(np.random.default_rng(10).normal(size=64), s.axis)
    I = s.cube(5, 17)
    for depth in (1, 3, 5):
        K = ancestor(I, depth)
        terms = telescope_terms(b, I, K, s)
        assert len(terms) == depth
        gap = b.values[I.cells()].mean() - b.values[K.cells()].mean()
        assert abs(sum(terms) - gap) <= 1e-12


def test_telescope_validation():
    s = DyadicSystem(build_axis(4), 0)
    b = grid_function(np.arange(16.0), s.axis)
    I = s.cube(3, 2)
    with pytest.raises(ContractError):
        telescope_terms(b, I, s.cube(2, 3), s)  # not an ancestor
    with pytest.raises(ContractError):
        telescope_terms(b, s.cube(2, 1), I, s)  # deeper than I
    other = DyadicSystem(build_axis(4), 5)
    with pytest.raises(SystemMismatchError):
        telescope_terms(b, other.cube(3, 2), other.cube(2, 1), s)
    two_axis = grid_function(np.ones((16, 16)), s.axis, s.axis)
    with pytest.raises(ShapeError):
        telescope_terms(two_axis, I, ancestor(I, 1), s)


# -- shift-level commutator expansion -------------------------------------


def test_shift_matrix_agrees_with_apply_shift():
    from dyadica.paracomm import _shift_matrix

    s = DyadicSystem(build_axis(4), 2)
    table = maximal_table(s, 1, 0, 0.5)
    v = np.random.default_rng(11).normal(size=16)
    M = _shift_matrix(s, table)
    direct = apply_shift(grid_function(v, s.axis), s, 1, 0, 0.5, table).values
    assert np.allclose(M @ v, direct, atol=1e-12)


def test_shift_expansion_residual_is_rounding_noise():
    rng = np.random.default_rng(12)
    cases = [
        ((1, 0, 1, 0), (0, 0)),
        ((0, 0, 2, 1), (3, 6)),
        ((1, 2, 0, 1), (5, 2)),
    ]
    for (i, j, s_, t_), (off1, off2) in cases:
        s1, s2 = system_pair(4, off1, off2)
        b, f = rand_f(rng, s1, s2), rand_f(rng, s1, s2)
        t1 = maximal_table(s1, i, j, 0.3)
        t2 = maximal_table(s2, s_, t_, 0.6)
        expansion = shift_commutator_expand(
            b, f, (i, j, 0.3, t1), (s_, t_, 0.6, t2), (s1, s2)
        )
        assert expansion.residual <= 1e-10
        assert set(expansion.paraproduct_terms) == set(PARAPRODUCT_TAGS[:-1])


def test_shift_expansion_constant_symbol():
    s1, s2 = system_pair(3)
    f = rand_f(np.random.default_rng(13), s1, s2)
    b = constant_function(1.25, s1.axis, s2.axis)
    t1 = maximal_table(s1, 1, 1, 0.5)
    t2 = maximal_table(s2, 0, 1, 0.5)
    expansion = shift_commutator_expand(
        b, f, (1, 1, 0.5, t1), (0, 1, 0.5, t2), (s1, s2)
    )
    assert expansion.residual <= 1e-12
    assert np.max(np.abs(expansion.e_term.values)) <= 1e-12
    for g in expansion.paraproduct_terms.values():
        assert np.max(np.abs(g.values)) <= 1e-12


def test_shift_expansion_empty_tables():
    s1, s2 = system_pair(3)
    rng = np.random.default_rng(14)
    b, f = rand_f(rng, s1, s2), rand_f(rng, s1, s2)
    t1 = ShiftCoefficientTable(1, 0, 0.5, {})
    t2 = ShiftCoefficientTable(0, 0, 0.5, {})
    expansion = shift_commutator_expand(
        b, f, (1, 0, 0.5, t1), (0, 0, 0.5, t2), (s1, s2)
    )
    assert expansion.residual == 0.0
    assert np.all(expansion.e_term.values == 0.0)


def test_shift_expansion_contract_checks():
    s1, s2 = system_pair(3)
    rng = np.random.default_rng(15)
    b, f = rand_f(rng, s1, s2), rand_f(rng, s1, s2)
    t1 = maximal_table(s1, 1, 0, 0.5)
    t2 = maximal_table(s2, 0, 0, 0.5)
    with pytest.raises(ContractError):
        shift_commutator_expand(b, f, (0, 0, 0.5, t1), (0, 0, 0.5, t2), (s1, s2))
    with pytest.raises(ContractError):
        shift_commutator_expand(b, f, (1, 0, 0.25, t1), (0, 0, 0.5, t2), (s1, s2))
    K = s2.cube(1, 0)
    oversized = ShiftCoefficientTable(0, 0, 0.5, {(K, K, K): 99.0})
    with pytest.raises(InvariantError):
        shift_commutator_expand(
            b, f, (1, 0, 0.5, t1), (0, 0, 0.5, oversized), (s1, s2)
        )


# -- ratio experiment -----------------------------------------------------


def test_bloom_experiment_smoke():
    config = BloomConfig(
        levels=(3, 4),
        n_samples=4,
        weight_quads=(
            ((0.0, 0.5), (0.0, 0.5), (0.0, 0.5), (0.0, 0.5)),
            ((0.2, 0.5), (-0.15, 0.25), (0.15, 0.75), (0.0, 0.5)),
        ),
        seed=7,
    )
    report = bloom_experiment(config)
    assert report.q1 == pytest.approx(4.0)
    assert len(report.levels) == 2
    for level_result in report.levels:
        assert len(level_result.quads) == 2
        assert level_result.ensemble_max > 0.0
        for quad_result in level_result.quads:
            assert len(quad_result.ratios) + quad_result.skipped == 4
            assert all(np.isfinite(r) and r > 0.0 for r in quad_result.ratios)
    trivial = report.levels[0].quads[0]
    assert all(abs(c - 1.0) <= 1e-12 for c in trivial.characteristics)
    assert "lower bound" in report.note


def test_bloom_experiment_deterministic():
    config = BloomConfig(
        levels=(3,),
        n_samples=3,
        weight_quads=(((0.1, 0.5), (0.0, 0.5), (-0.1, 0.25), (0.0, 0.5)),),
        seed=3,
    )
    first = bloom_experiment(config)
    second = bloom_experiment(config)
    assert first.levels[0].quads[0].ratios == second.levels[0].quads[0].ratios


def test_bloom_experiment_rejects_levels_below_base():
    with pytest.raises(ParameterError):
        bloom_experiment(BloomConfig(levels=(2,)))
