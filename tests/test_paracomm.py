"""Tests for paraproducts, the exact product split, commutators, the
shift-level commutator expansion, and the ratio experiment."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dyadica.dyadic import DyadicCube, DyadicSystem
from dyadica.errors import (
    InvariantError,
    ParameterError,
    ShapeError,
    SystemMismatchError,
)
from dyadica.fracops import ShiftCoefficientTable, maximal_table
from dyadica.grid import build_axis, grid_function
from dyadica.haar import basis_column, haar_matrix
from dyadica.paracomm import (
    PARAPRODUCT_TAGS,
    _iterated_commutator,
    _smoothing,
    BloomConfig,
    bloom_experiment,
    decompose_product,
    paraproduct,
    shift_commutator_expand,
)

from oracles import (
    apply_shift_brute,
    coarse_sample,
    leftover_term_brute,
    maximal_entries_brute,
    mean_corrections_brute,
    paraproduct_brute,
    route_brute,
    shift_entries,
    shift_matrix_brute,
)


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
    b = grid_function(np.full((s1.axis.n_cells, s2.axis.n_cells), 2.5), s1.axis, s2.axis)
    for tag in PARAPRODUCT_TAGS[:-1]:
        assert np.all(paraproduct(tag, b, f, (s1, s2)).values == 0.0)
    assert np.max(np.abs(paraproduct("W", b, f, (s1, s2)).values)) > 0.0


def test_constant_input_leaves_only_the_smooth_tag():
    # every tag except A4 differentiates the second factor in some axis
    s1, s2 = system_pair(3, 2, 5)
    b = rand_f(np.random.default_rng(2), s1, s2)
    f = grid_function(np.full((s1.axis.n_cells, s2.axis.n_cells), 1.75), s1.axis, s2.axis)
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
    b = grid_function(np.full((s1.axis.n_cells, s2.axis.n_cells), 1.5), s1.axis, s2.axis)
    f = grid_function(np.full((s1.axis.n_cells, s2.axis.n_cells), -2.0), s1.axis, s2.axis)
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


@pytest.mark.parametrize("L1, L2, off1, off2", ((4, 4, 0, 1), (3, 5, 7, 31), (5, 2, 3, 0)))
def test_stacked_decomposition_matches_single_samples_bitwise(L1, L2, off1, off2):
    from dyadica.paracomm import _decompose

    s1, s2 = DyadicSystem(build_axis(L1), off1), DyadicSystem(build_axis(L2), off2)
    rng = np.random.default_rng(L1 + L2)
    B, F = rng.normal(size=(2, 10, s1.axis.n_cells, s2.axis.n_cells))
    parts, mean, residual = _decompose(B, F, s1, s2)
    assert parts.shape == (len(PARAPRODUCT_TAGS),) + B.shape and residual.shape == (10,)
    for k in range(10):
        b, f = (grid_function(x[k], s1.axis, s2.axis) for x in (B, F))
        report = decompose_product(b, f, (s1, s2))
        for t, tag in enumerate(PARAPRODUCT_TAGS):
            assert np.array_equal(parts[t, k], report.parts[tag].values)
        assert np.array_equal(mean[k], report.parts["mean"].values)
        assert residual[k] == report.residual


# -- commutators with the smoothing operators ------------------------------


def _smoothings(axis, lam1, lam2):
    """Bloom's T1 along the first array axis and T2 along the second."""
    return _smoothing(axis, lam1, -2), _smoothing(axis, lam2, -1)


def test_commutator_constant_symbol_vanishes():
    s1, s2 = system_pair(4)
    f = rand_f(np.random.default_rng(5), s1, s2).values
    b = np.full(f.shape, 3.25)
    iterated = _iterated_commutator(b, f, *_smoothings(s1.axis, 0.3, 0.7))
    assert np.max(np.abs(iterated)) <= 1e-12


def test_commutator_symbol_constant_in_the_acting_axis_vanishes():
    # T2 acts along the second axis only, so a symbol of the first variable
    # alone commutes with it
    s1, s2 = system_pair(4)
    rng = np.random.default_rng(6)
    f = rand_f(rng, s1, s2).values
    b = np.outer(rng.normal(size=s1.axis.n_cells), np.ones(s2.axis.n_cells))
    _, t2 = _smoothings(s1.axis, 0.3, 0.5)
    assert np.max(np.abs(b * t2(f) - t2(b * f))) <= 1e-12


def test_iterated_commutator_matches_nested_inner():
    # [T1, [b, T2]] f = T1 ([b, T2] f) - [b, T2] (T1 f), with the two orders
    # lam1 != lam2 on their own axes
    s1, s2 = system_pair(3)
    rng = np.random.default_rng(7)
    b, f = rand_f(rng, s1, s2).values, rand_f(rng, s1, s2).values
    t1, t2 = _smoothings(s1.axis, 0.4, 0.6)
    full = _iterated_commutator(b, f, t1, t2)

    def inner(g):
        return b * t2(g) - t2(b * g)

    nested = t1(inner(f)) - inner(t1(f))
    assert np.allclose(full, nested, atol=1e-11)


# -- shift-level commutator expansion -------------------------------------


def test_shift_matrix_agrees_with_apply_shift():
    from dyadica.paracomm import _shift_matrix

    s = DyadicSystem(build_axis(4), 2)
    table = maximal_table(s, 1, 0, 0.5)
    v = np.random.default_rng(11).normal(size=16)
    M = _shift_matrix(s, table)
    direct = apply_shift_brute(v, s, table)
    assert np.allclose(M @ v, direct, atol=1e-12)


def random_table(rng, system, i, j, lam):
    """A table with every coefficient drawn inside its size bound."""
    bound = maximal_table(system, i, j, lam).coeffs
    draw = rng.uniform(-1.0, 1.0, bound.shape)
    return ShiftCoefficientTable(i, j, lam, bound * draw)


def within(got, want, rel):
    scale = np.max(np.abs(want), initial=0.0)
    return np.max(np.abs(got - want), initial=0.0) <= rel * scale


@settings(max_examples=25, deadline=None)
@given(
    st.integers(2, 6),
    st.integers(2, 6),
    st.tuples(*[st.integers(0, 2)] * 4),
    st.integers(0, 63),
    st.integers(0, 63),
    st.integers(0, 2**32 - 1),
)
@example(6, 6, (2, 2, 2, 1), 63, 17, 0)
@example(2, 3, (2, 1, 1, 0), 3, 5, 1)  # the first axis has no cube K
def test_shift_tables_match_entry_oracles(L1, L2, depths, off1, off2, seed):
    from dyadica.fracops import _route
    from dyadica.haar import _pyramid
    from dyadica.paracomm import _leftover_term, _shift_matrix

    s1 = DyadicSystem(build_axis(L1), off1 % (1 << L1))
    s2 = DyadicSystem(build_axis(L2), off2 % (1 << L2))
    rng = np.random.default_rng(seed)
    t1 = random_table(rng, s1, *depths[:2], 0.3)
    t2 = random_table(rng, s2, *depths[2:], 0.6)
    for system, table in ((s1, t1), (s2, t2)):
        i, j, lam = table.i, table.j, table.lam
        maximal = maximal_table(system, i, j, lam)
        assert not maximal.coeffs[0].any()
        got = {(I, J, K): a for I, J, K, a in shift_entries(maximal, system)}
        assert got == maximal_entries_brute(system, i, j, lam)
        assert np.array_equal(
            _shift_matrix(system, table), shift_matrix_brute(system, table)
        )
        n = system.axis.n_cells
        v = rng.normal(size=n)
        assert within(_route(table, v), route_brute(table, system, v), 1e-13)
        X = rng.normal(size=(n, 3))
        assert within(_route(table, X), route_brute(table, system, X), 1e-13)

        # the layout admits no mismatched triple; shape and bound are checked
        finer = DyadicSystem(build_axis(system.axis.level + 1), 0)
        bad = np.array(table.coeffs)
        if bad.shape[0] > 1:
            bad[-1, -1, -1] = 1.5 * maximal.coeffs[-1, -1, -1]
        else:
            bad[0, 0, 0] = 1e-300  # row 0 is no cube
        for coeffs in (
            maximal_table(finer, i, j, lam).coeffs,
            np.swapaxes(table.coeffs, 1, 2) if i != j else table.coeffs[:, :, :0],
            bad,
        ):
            with pytest.raises(InvariantError):
                ShiftCoefficientTable(i, j, lam, coeffs).validate(system)

    b, f = rand_f(rng, s1, s2), rand_f(rng, s1, s2)
    got = _leftover_term(_pyramid(b.values, s1, s2), f.values, t1, t2, s1, s2)
    assert within(got, leftover_term_brute(b.values, f.values, t1, t2, s1, s2), 1e-13)


def test_two_axis_multiscale_memory_is_linear_in_cells():
    # each factor's rectangle pyramid holds 4 n1 n2 floats; an (L1 + 1)
    # (L2 + 1) n1 n2 rectangle table at 7 levels per axis would hold 64
    import tracemalloc

    s1, s2 = system_pair(7, 3, 127)
    rng = np.random.default_rng(7)
    b, f = rand_f(rng, s1, s2), rand_f(rng, s1, s2)
    t1, t2 = random_table(rng, s1, 1, 0, 0.5), random_table(rng, s2, 0, 1, 0.5)
    budget = 200 * 8 * b.values.size
    for run in (
        lambda: decompose_product(b, f, (s1, s2)),
        lambda: paraproduct("A6", b, f, (s1, s2)),
        lambda: shift_commutator_expand(b, f, t1, t2, (s1, s2)),
    ):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < budget, (peak / (8 * b.values.size))


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
        expansion = shift_commutator_expand(b, f, t1, t2, (s1, s2))
        assert expansion.residual <= 1e-10
        assert set(expansion.paraproduct_terms) == set(PARAPRODUCT_TAGS[:-1])


def test_shift_expansion_constant_symbol():
    s1, s2 = system_pair(3)
    f = rand_f(np.random.default_rng(13), s1, s2)
    b = grid_function(np.full((s1.axis.n_cells, s2.axis.n_cells), 1.25), s1.axis, s2.axis)
    t1 = maximal_table(s1, 1, 1, 0.5)
    t2 = maximal_table(s2, 0, 1, 0.5)
    expansion = shift_commutator_expand(b, f, t1, t2, (s1, s2))
    assert expansion.residual <= 1e-12
    assert np.max(np.abs(expansion.e_term.values)) <= 1e-12
    for g in expansion.paraproduct_terms.values():
        assert np.max(np.abs(g.values)) <= 1e-12


def test_shift_expansion_empty_tables():
    s1, s2 = system_pair(3)
    rng = np.random.default_rng(14)
    b, f = rand_f(rng, s1, s2), rand_f(rng, s1, s2)
    t1 = ShiftCoefficientTable(1, 0, 0.5, np.zeros((4, 1, 2)))
    t2 = ShiftCoefficientTable(0, 0, 0.5, np.zeros((8, 1, 1)))
    expansion = shift_commutator_expand(b, f, t1, t2, (s1, s2))
    assert expansion.residual == 0.0
    assert np.all(expansion.e_term.values == 0.0)


def test_shift_expansion_holds_one_factor_table_at_a_time():
    # traced peak at 64x64: 27.0 MiB with all five factors' tables alive
    # at once, 11.8 MiB with one factor's at a time
    import tracemalloc

    s1, s2 = system_pair(6, 3, 5)
    rng = np.random.default_rng(16)
    b, f = rand_f(rng, s1, s2), rand_f(rng, s1, s2)
    t1 = maximal_table(s1, 0, 0, 0.5)
    t2 = maximal_table(s2, 0, 0, 0.5)
    tracemalloc.start()
    try:
        expansion = shift_commutator_expand(b, f, t1, t2, (s1, s2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert expansion.residual <= 1e-10
    assert peak <= 14 * 2**20


def _traced_peak(run) -> int:
    import tracemalloc

    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_each_stack_charge_bounds_its_helpers_measured_peak(monkeypatch):
    # a charge is a helper's traced peak in floats per grid cell of one
    # sample, inputs included, in the stack that _stacks gives it; the
    # expansion stack peaks near 93 with one commutator term's product table
    # at a time, near 111 when a term's table outlives the next term's
    import tracemalloc

    import dyadica.paracomm as paracomm
    from dyadica.paracomm import _decompose, _expansion, _stacks

    axis = build_axis(4)
    cells = axis.n_cells**2
    rng = np.random.default_rng(45)
    s1, s2 = DyadicSystem(axis, 0), DyadicSystem(axis, 8)
    expand = _expansion(maximal_table(s1, 1, 0, 0.5), maximal_table(s2, 0, 1, 0.5), s1, s2)
    pair = (DyadicSystem(axis, 0), DyadicSystem(axis, 1))
    for helper, charge in (
        (expand, paracomm._EXPAND_FLOATS),
        (lambda B, F: _decompose(B, F, *pair), paracomm._DECOMPOSE_FLOATS),
    ):
        (lo, hi), *_ = _stacks(10, cells, charge)
        B, F = rng.normal(size=(2, hi - lo, axis.n_cells, axis.n_cells))
        helper(B, F)  # the caches it fills are not its stack's
        floats = _traced_peak(lambda: helper(B, F)) / 8 + B.size + F.size
        assert floats / B.size <= charge, (charge, floats / B.size)

    # bloom's stack: from the first refined sample to the last norm
    refine, norms = paracomm._refine, paracomm._mixed_norms
    seen = {"refines": 0, "norms": 0}

    def refined(base, factor):
        if seen["refines"] % 2 == 0:  # b's stack, then f's
            seen["start"] = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
        seen["refines"] += 1
        return refine(base, factor)

    def normed(*args):
        values = norms(*args)
        seen["norms"] += 1
        if seen["norms"] % 2 == 0 and tracemalloc.is_tracing():  # the source norm
            seen["peak"] = tracemalloc.get_traced_memory()[1] - seen["start"]
        return values

    monkeypatch.setattr(paracomm, "_refine", refined)
    monkeypatch.setattr(paracomm, "_mixed_norms", normed)
    for level in (3, 4, 5):
        quads = BloomConfig.weight_quads[1:2]
        config = BloomConfig(levels=(level,), n_samples=10, weight_quads=quads)
        assert _stacks(10, 4**level, paracomm._BLOOM_FLOATS) == [(0, 10)]
        bloom_experiment(config)
        _traced_peak(lambda: bloom_experiment(config))
        floats = seen["peak"] / 8 / (10 * 4**level)
        assert floats <= paracomm._BLOOM_FLOATS, (level, floats)


@pytest.mark.parametrize(
    "level, offsets, depths",
    (
        (4, (0, 8), ((1, 0), (0, 1))),
        (4, (3, 11), ((1, 1), (1, 0))),  # two sources per target on each axis
        (5, (0, 16), ((2, 1), (0, 2))),
        (3, (5, 2), ((0, 0), (0, 0))),
    ),
)
def test_stacked_expansion_matches_single_samples_bitwise(level, offsets, depths):
    from dyadica.paracomm import _expansion

    s1, s2 = system_pair(level, *offsets)
    (i, j), (s_, t_) = depths
    t1, t2 = maximal_table(s1, i, j, 0.5), maximal_table(s2, s_, t_, 0.3)
    n = s1.axis.n_cells
    B, F = np.random.default_rng(level).normal(size=(2, 10, n, n))
    e_term, groups, residual = _expansion(t1, t2, s1, s2)(B, F)
    assert groups.shape == (8,) + B.shape and residual.shape == (10,)
    for k in range(10):
        b, f = (grid_function(x[k], s1.axis, s2.axis) for x in (B, F))
        expansion = shift_commutator_expand(b, f, t1, t2, (s1, s2))
        assert np.array_equal(e_term[k], expansion.e_term.values)
        for t, tag in enumerate(PARAPRODUCT_TAGS[:-1]):
            assert np.array_equal(groups[t, k], expansion.paraproduct_terms[tag].values)
        assert residual[k] == expansion.residual


def test_shift_expansion_contract_checks():
    s1, s2 = system_pair(3)
    rng = np.random.default_rng(15)
    b, f = rand_f(rng, s1, s2), rand_f(rng, s1, s2)
    t1 = maximal_table(s1, 1, 0, 0.5)
    K = s2.cube(1, 0)
    coeffs = np.zeros((8, 1, 1))
    coeffs[basis_column(K)] = 99.0
    oversized = ShiftCoefficientTable(0, 0, 0.5, coeffs)
    with pytest.raises(InvariantError):
        shift_commutator_expand(b, f, t1, oversized, (s1, s2))


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


def test_bloom_experiment_skips_a_sample_whose_symbol_vanishes(monkeypatch):
    import dyadica.paracomm as paracomm

    draw = paracomm._coarse_samples

    def zero_symbol_of_kind_0(*args):
        samples = draw(*args)
        samples[::3, 0] = 0.0  # sample idx is of kind idx % 3
        return samples

    monkeypatch.setattr(paracomm, "_coarse_samples", zero_symbol_of_kind_0)
    config = BloomConfig(
        levels=(3,),
        n_samples=4,
        weight_quads=(((0.1, 0.5), (0.0, 0.5), (-0.1, 0.25), (0.0, 0.5)),),
        seed=3,
    )
    quad = bloom_experiment(config).levels[0].quads[0]
    assert quad.skipped == 2  # samples 0 and 3 draw kind 0
    assert len(quad.ratios) == 2 and all(r > 0.0 for r in quad.ratios)


def test_coarse_samples_match_the_per_sample_oracle_bitwise():
    from dyadica.paracomm import _coarse_samples

    for seed in range(30):
        for qi in range(3):
            for nb in (4, 8, 16):
                got = _coarse_samples(seed, qi, 10, nb)
                want = np.array(
                    [
                        coarse_sample(np.random.default_rng((seed, qi, idx)), nb, idx % 3)
                        for idx in range(10)
                    ]
                )
                assert got.tobytes() == want.tobytes(), (seed, qi, nb)


def test_bloom_experiment_draws_each_sample_once(monkeypatch):
    import dyadica.paracomm as paracomm

    calls = []
    draw = paracomm._coarse_samples

    def counted(seed, qi, count, nb):
        calls.extend((qi, idx) for idx in range(count))
        return draw(seed, qi, count, nb)

    monkeypatch.setattr(paracomm, "_coarse_samples", counted)
    config = BloomConfig(
        levels=(3, 4, 5),
        n_samples=3,
        weight_quads=(
            ((0.0, 0.5), (0.0, 0.5), (0.0, 0.5), (0.0, 0.5)),
            ((0.2, 0.5), (-0.15, 0.25), (0.15, 0.75), (0.0, 0.5)),
        ),
    )
    report = bloom_experiment(config)
    assert len(calls) == 2 * 3
    assert len(report.levels) == 3


def test_bloom_experiment_bmo_matches_public_norm_bitwise(monkeypatch):
    # the weight's rectangle means are built once per (level, quad) and
    # shared by the samples, which reach the norm as stacks; each sample's
    # norm must keep the public bits
    import dyadica.paracomm as paracomm
    from dyadica.analysis import bmo_prod_rect_norm
    from dyadica.weights import bloom_weight, power_weight

    seen, builds, stacks = [], [], []
    norm, build = paracomm._bmo_prod_rect, paracomm._rect_weight_means

    def recorded(B, weight_means, *pair):
        values = norm(B, weight_means, *pair)
        stacks.append(len(B))
        seen.extend((b, pair, value) for b, value in zip(B, values))
        return values

    def counted(*args):
        builds.append(args)
        return build(*args)

    monkeypatch.setattr(paracomm, "_bmo_prod_rect", recorded)
    monkeypatch.setattr(paracomm, "_rect_weight_means", counted)
    config = BloomConfig(
        levels=(3, 4),
        n_samples=3,
        weight_quads=(
            ((0.2, 0.5), (-0.15, 0.25), (0.15, 0.75), (0.0, 0.5)),
            ((0.1, 0.0), (0.1, 0.5), (-0.1, 0.3), (0.15, 0.7)),
        ),
    )
    bloom_experiment(config)
    assert len(builds) == 2 * 2 and len(seen) == 2 * 2 * 3
    assert stacks == [3] * 4  # one stack per (level, quad)
    for i, (B, pair, value) in enumerate(seen):
        quad = config.weight_quads[i // 3 % 2]
        axis = pair[0].axis
        nu = bloom_weight(*(power_weight(axis, a, c) for a, c in quad))
        assert value == bmo_prod_rect_norm(grid_function(B, axis, axis), nu, pair)


def _bloom_by_public_calls(config):
    """Per level and quad, the ratios and characteristics of
    :func:`bloom_experiment` from one public single-sample call per norm and
    one iterated commutator per sample, samples refined with ``np.kron``."""
    from dyadica.analysis import bmo_prod_rect_norm, mixed_norm
    from dyadica.weights import apq_characteristic, bloom_weight, exponent_solve, power_weight

    p1, p2 = config.p1, config.p2
    q1, q2 = exponent_solve(p1, config.lam1).q, exponent_solve(p2, config.lam2).q
    nb = 1 << config.base_level
    out = []
    for level in config.levels:
        axis = build_axis(level)
        pair = (DyadicSystem(axis, 0), DyadicSystem(axis, 0))
        ones = np.ones((axis.n_cells // nb,) * 2)
        for qi, quad in enumerate(config.weight_quads):
            mu1, sg1, mu2, sg2 = (power_weight(axis, a, c) for a, c in quad)
            chars = (
                apq_characteristic(mu1, p1, q1),
                apq_characteristic(sg1, p1, q1),
                apq_characteristic(mu2, p2, q2),
                apq_characteristic(sg2, p2, q2),
            )
            nu = bloom_weight(mu1, sg1, mu2, sg2)
            ratios = []
            for idx in range(config.n_samples):
                rng = np.random.default_rng((config.seed, qi, idx))
                b, f = (
                    grid_function(np.kron(x, ones), axis, axis)
                    for x in coarse_sample(rng, nb, idx % 3)
                )
                bmo = bmo_prod_rect_norm(b, nu, pair)
                if bmo <= 0.0:
                    continue
                t1, t2 = _smoothings(axis, config.lam1, config.lam2)
                com = f.with_values(_iterated_commutator(b.values, f.values, t1, t2))
                num = mixed_norm(com, q1, q2, sg1.power(q1), sg2.power(q2))
                ratios.append(num / (bmo * mixed_norm(f, p1, p2, mu1.power(p1), mu2.power(p2))))
            out.append((level, qi, chars, tuple(ratios)))
    return out


@pytest.mark.parametrize("cells", (None, 7 * 64))
def test_stacked_bloom_matches_single_sample_calls_bitwise(monkeypatch, cells):
    # by default each quad's 10 samples share one stack up to level 5; a
    # budget of 7 * 64 cells' floats splits them 7 and 3 at level 3, and
    # from level 4 a stack holds one sample
    import dyadica.paracomm as paracomm

    if cells is not None:
        monkeypatch.setattr(paracomm, "_STACK_FLOATS", cells * paracomm._BLOOM_FLOATS)
    config = BloomConfig(levels=(3, 4, 5), n_samples=10, seed=1)
    report = bloom_experiment(config)
    got = [
        (lr.level, qi, q.characteristics, q.ratios)
        for lr in report.levels
        for qi, q in enumerate(lr.quads)
    ]
    assert got == _bloom_by_public_calls(config)


def test_bloom_takes_each_distinct_characteristic_once(monkeypatch):
    # the default quads name 8 distinct (weight, p, q) keys among their 12
    # weights: quad 0 repeats (0.0, 0.5), and quad 1 ends with it
    import dyadica.paracomm as paracomm

    calls = []
    characteristics = paracomm._apq_characteristics

    def counted(ws, p, q):
        calls.extend((p, q) for _ in ws)  # one row per weight
        return characteristics(ws, p, q)

    monkeypatch.setattr(paracomm, "_apq_characteristics", counted)
    config = BloomConfig(levels=(3, 4, 5), n_samples=2)
    report = bloom_experiment(config)
    assert len(calls) == 8 * 3
    want = {(level, qi): chars for level, qi, chars, _ in _bloom_by_public_calls(config)}
    for lr in report.levels:
        for qi, q in enumerate(lr.quads):
            assert q.characteristics == want[lr.level, qi]


def test_bloom_and_rect_norm_never_form_the_weight(monkeypatch):
    # Bloom's weight is a tensor product: its rectangle means come from the
    # factors' cube means, with no n1 x n2 weight and no table of it
    import dyadica.analysis as analysis
    from dyadica.weights import ProductWeight, power_weight

    def refuse(*args, **kwargs):
        raise AssertionError("the weight was formed on the grid")

    monkeypatch.setattr(analysis, "_pyramid", refuse)
    monkeypatch.setattr(ProductWeight, "evaluate", refuse)
    report = bloom_experiment(BloomConfig(levels=(3, 4), n_samples=3))
    assert len(report.levels) == 2
    ax1, ax2 = build_axis(3), build_axis(4)
    pair = (DyadicSystem(ax1, 5), DyadicSystem(ax2, 3))
    b = grid_function(np.random.default_rng(4).normal(size=(8, 16)), ax1, ax2)
    w = ProductWeight(power_weight(ax1, 0.3, 0.2), power_weight(ax2, -0.2, 0.6))
    assert analysis.bmo_prod_rect_norm(b, w, pair) > 0.0


def test_bloom_experiment_rejects_levels_below_base():
    with pytest.raises(ParameterError):
        bloom_experiment(BloomConfig(levels=(2,)))


_PAIR = (0.0, 0.5)


@pytest.mark.parametrize(
    "field, value",
    (
        ("n_samples", 0),
        ("n_samples", -1),
        ("base_level", -1),
        ("base_level", 0),
        ("base_level", 15),
        ("weight_quads", ()),
        ("weight_quads", ((_PAIR,) * 3,)),  # a quad of three weights
        ("weight_quads", ((_PAIR,) * 3 + ((0.0, 0.5, 0.1),),)),  # a weight of three numbers
        ("levels", (2, 3)),
    ),
    ids=("samples0", "samples-1", "base-1", "base0", "base15", "no-quad", "three-weights",
         "three-numbers", "level2"),
)
def test_bloom_config_rejects_a_bad_field_when_built(field, value):
    # the experiment would fail later, some fields only with a numpy error
    with pytest.raises(ParameterError, match=field):
        BloomConfig(**{field: value})


# -- the off-diagonal case under a dense oracle ---------------------------


@pytest.mark.parametrize(
    "p1, p2, lam1, lam2",
    (
        (4 / 3, 4 / 3, 0.5, 0.5),
        (4 / 3, 2.0, 0.5, 0.7),
        (1.5, 1.25, 0.6, 0.4),
        (2.5, 4 / 3, 0.8, 0.3),
    ),
    ids=("diagonal", "p1<p2", "p1>p2", "q2=20"),
)
def test_bloom_ratios_match_a_dense_oracle_off_diagonal(p1, p2, lam1, lam2):
    # each axis with its own exponent, order and weights, and every piece
    # formed densely: T_i as the kernel matrix over h (which no library path
    # reads), [T1, [b, T2]] f as matrix products, the mixed norms by loops
    # and the rectangle BMO norm over the default family by direct summation.
    # Each smoothing is within 1e-13 of its largest entry
    # (test_frac_integral_matches_the_dense_kernel_matrix), so, the kernels
    # being positive, the commutator's error is within 1e-12 times the sum E
    # of its four terms' moduli, cell by cell; a mixed norm is monotone and
    # subadditive, so the numerator moves by at most 1e-12 of the norm of E.
    # The norms' and the BMO sum's own rounding is (n + 8) eps relative each,
    # under the 1e-12 added
    from dyadica.analysis import default_omega_family
    from dyadica.grid import kernel_matrix
    from dyadica.weights import bloom_weight, exponent_solve, power_weight

    from oracles import bmo_prod_brute, mixed_norm_brute

    quads = (
        ((0.2, 0.5), (-0.15, 0.25), (0.15, 0.75), (0.1, 0.3)),
        ((0.1, 0.0), (0.1, 0.5), (-0.1, 0.3), (0.15, 0.7)),
    )
    config = BloomConfig(levels=(2, 3), p1=p1, p2=p2, lam1=lam1, lam2=lam2,
                         weight_quads=quads, n_samples=6, seed=3, base_level=2)
    report = bloom_experiment(config)
    q1, q2 = exponent_solve(p1, lam1).q, exponent_solve(p2, lam2).q
    assert (report.q1, report.q2) == (q1, q2)
    nb = 1 << config.base_level
    for result in report.levels:
        axis = build_axis(result.level)
        lattice = DyadicSystem(axis, 0)
        shapes = list(default_omega_family(lattice, lattice).shapes)
        A1, A2 = (kernel_matrix(axis, lam) / axis.h for lam in (lam1, lam2))
        ones = np.ones((axis.n_cells // nb,) * 2)
        for qi, (quad, got) in enumerate(zip(quads, result.quads)):
            weights = [power_weight(axis, a, c) for a, c in quad]
            mu1, sg1, mu2, sg2 = (w.values for w in weights)
            nu = bloom_weight(*weights).evaluate().values
            want, bounds = [], []
            for idx in range(config.n_samples):
                rng = np.random.default_rng((config.seed, qi, idx))
                b, f = (np.kron(x, ones) for x in coarse_sample(rng, nb, idx % 3))
                bmo = bmo_prod_brute(b, nu, 0, 0, shapes)
                if bmo <= 0.0:
                    continue

                def inner(g):
                    return b * (g @ A2) - (b * g) @ A2  # [b, T2] g, A2 symmetric

                def envelope(g):
                    return abs(b) * (abs(g) @ A2) + (abs(b) * abs(g)) @ A2

                com = A1 @ inner(f) - inner(A1 @ f)
                E = A1 @ envelope(f) + envelope(A1 @ abs(f))
                num = mixed_norm_brute(com, q1, q2, sg1**q1, sg2**q2)
                src = mixed_norm_brute(f, p1, p2, mu1**p1, mu2**p2)
                want.append(num / (bmo * src))
                E_norm = mixed_norm_brute(E, q1, q2, sg1**q1, sg2**q2)
                bounds.append(1e-12 * E_norm / num + 1e-12)
            assert len(got.ratios) == len(want) > 0
            for g, w, bound in zip(got.ratios, want, bounds):
                assert abs(g - w) <= bound * w
