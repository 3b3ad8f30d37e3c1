import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dyadica.analysis import mixed_norm
from dyadica.errors import InfeasibleExponentError, ParameterError, ShapeError
from dyadica.grid import _arc_folds, build_axis, grid_function
from dyadica.weights import (
    ExponentTriple,
    ProductWeight,
    Weight,
    ap_characteristic,
    apq_characteristic,
    bloom_weight,
    exponent_solve,
    power_weight,
    product_ap_characteristic,
)

from oracles import (
    ap_brute,
    apq_brute,
    arc_mean_batch,
    array_power,
    char_over_family_batches,
    power_cell_average_quad,
    product_ap_brute,
)


def random_weight(axis, rng, low=0.2, high=5.0):
    return Weight(grid_function(rng.uniform(low, high, axis.n_cells), axis))


# -- types ----------------------------------------------------------------


def test_weight_rejects_nonpositive_entries():
    axis = build_axis(3)
    vals = np.ones(8)
    vals[5] = 0.0
    with pytest.raises(ParameterError):
        Weight(grid_function(vals, axis))
    vals[5] = -0.25
    with pytest.raises(ParameterError):
        Weight(grid_function(vals, axis))


def test_weight_rejects_two_axis_input():
    axis = build_axis(2)
    with pytest.raises(ShapeError):
        Weight(grid_function(np.ones((axis.n_cells, axis.n_cells)), axis, axis))


def test_weight_power_is_entrywise():
    axis = build_axis(3)
    rng = np.random.default_rng(0)
    w = random_weight(axis, rng)
    assert np.array_equal(w.power(-2.0).values, w.values**-2.0)


def test_weight_power_overflow_names_the_exponent():
    axis = build_axis(3)
    w = Weight(grid_function(np.full(8, 1e10), axis))
    with pytest.raises(ParameterError, match=r"w\*\*40\.0 is not finite"):
        w.power(40.0)


def test_characteristics_reject_powers_that_leave_the_float_range():
    # unchecked, w**4 = 0 and w**-4 = inf make every batch NaN and the
    # characteristic -inf; one cell at 1e100 makes it inf
    axis = build_axis(3)
    tiny = Weight(grid_function(np.full(8, 1e-100), axis))
    with pytest.raises(ParameterError, match=r"w\*\*4\.0 is not positive"):
        apq_characteristic(tiny, 4.0 / 3.0, 4.0)
    huge = Weight(grid_function(np.r_[1e100, np.ones(7)], axis))
    with pytest.raises(ParameterError, match=r"w\*\*4\.0 is not finite"):
        apq_characteristic(huge, 4.0 / 3.0, 4.0)
    with pytest.raises(ParameterError, match=r"w\*\*-4\.0 is not finite"):
        ap_characteristic(tiny, 1.25)


def test_product_weight_evaluates_to_outer_product():
    ax1, ax2 = build_axis(2), build_axis(3)
    rng = np.random.default_rng(1)
    pw = ProductWeight(random_weight(ax1, rng), random_weight(ax2, rng))
    f = pw.evaluate()
    assert f.axes == (ax1, ax2)
    assert np.array_equal(f.values, np.outer(pw.factor1.values, pw.factor2.values))


# -- exponent arithmetic --------------------------------------------------


def test_exponent_solve_reference_value():
    triple = exponent_solve(4.0 / 3.0, 0.5)
    assert abs(triple.q - 4.0) <= 1e-12
    assert abs(1.0 / triple.q - (triple.lam - 1.0 + 1.0 / triple.p)) <= 1e-12


def test_exponent_solve_infeasible_when_smoothing_too_weak():
    # 1/q = lam - 1 + 1/p <= 0 exactly when lam <= 1 - 1/p
    with pytest.raises(InfeasibleExponentError):
        exponent_solve(4.0 / 3.0, 0.2)
    with pytest.raises(InfeasibleExponentError):
        exponent_solve(2.0, 0.5)


def test_exponent_solve_rejects_a_target_that_rounds_to_p():
    # one ulp below lam = 1, 1/q = lam - 1 + 1/p rounds to 1/p for this p,
    # so the finite target is not larger than p
    with pytest.raises(InfeasibleExponentError, match="q=1.25 does not exceed p=1.25"):
        exponent_solve(1.25, np.nextafter(1.0, 0.0))


def test_exponent_solve_argument_validation():
    with pytest.raises(ParameterError):
        exponent_solve(1.0, 0.5)
    with pytest.raises(ParameterError):
        exponent_solve(2.0, 1.5)
    with pytest.raises(ParameterError, match="p must be finite"):
        exponent_solve(np.inf, 0.5)  # not an InfeasibleExponentError


def test_exponent_triple_rejects_bad_combinations():
    with pytest.raises(ParameterError):
        ExponentTriple(p=4.0, q=2.0, lam=0.5)
    with pytest.raises(ParameterError):
        ExponentTriple(p=4.0 / 3.0, q=3.9, lam=0.5)  # relation off by far more than 1e-12


def test_exponent_triple_accepts_solved_pair():
    t = ExponentTriple(p=4.0 / 3.0, q=4.0, lam=0.5)
    assert t.q > t.p > 1.0


_INFINITE_EXPONENT_CALLS = {
    "mixed_norm-p1": (lambda f, w: mixed_norm(f, np.inf, 2.0), "p1"),
    "mixed_norm-p2": (lambda f, w: mixed_norm(f, 2.0, np.inf), "p2"),
    "ap_characteristic": (lambda f, w: ap_characteristic(w, np.inf), "p"),
    "apq_characteristic": (lambda f, w: apq_characteristic(w, 2.0, np.inf), "q"),
    "ExponentTriple": (lambda f, w: ExponentTriple(2.0, np.inf, 0.5), "q"),
}


@pytest.mark.parametrize("call", _INFINITE_EXPONENT_CALLS)
def test_an_infinite_exponent_is_a_parameter_error_naming_it(call):
    # the Bloom bound's exponents are finite, 1 < p < q < inf; unchecked, an
    # infinite one gives mixed_norm 1.0 for any f and fails the
    # characteristics on a power of the weight
    axis = build_axis(3)
    f = grid_function(np.random.default_rng(5).normal(size=(8, 8)), axis, axis)
    w = random_weight(axis, np.random.default_rng(6))
    run, name = _INFINITE_EXPONENT_CALLS[call]
    with pytest.raises(ParameterError, match=rf"^{name} must be finite"):
        run(f, w)


# -- power-profile weights ------------------------------------------------


def test_power_weight_rejects_large_exponent():
    axis = build_axis(3)
    for alpha in (1.0, -1.0, 1.5):
        with pytest.raises(ParameterError):
            power_weight(axis, alpha, 0.5)
    # a non-finite parameter is named, before any numpy warning
    for alpha, center, name in ((np.nan, 0.5, "alpha"), (0.3, np.nan, "center"),
                                (0.3, np.inf, "center")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match=name):
                power_weight(axis, alpha, center)


@pytest.mark.parametrize("alpha", [0.5, -0.5, 0.3])
def test_power_weight_matches_quadrature(alpha):
    level, center = 8, 0.3
    axis = build_axis(level)
    w = power_weight(axis, alpha, center)
    assert np.all(w.values > 0.0)
    for cell in range(axis.n_cells):
        ref = power_cell_average_quad(level, cell, alpha, center)
        assert abs(w.values[cell] - ref) <= 1e-8


def test_power_weight_total_mass():
    # integral of d(x)**alpha over the torus is 2 * (1/2)**(1+alpha) / (1+alpha)
    axis = build_axis(7)
    for alpha in (0.7, -0.3):
        w = power_weight(axis, alpha, 0.0)
        expected = 2.0 * 0.5 ** (1.0 + alpha) / (1.0 + alpha)
        assert abs(w.base.mean() - expected) <= 1e-13


def test_power_weight_symmetry_about_center():
    axis = build_axis(6)
    w = power_weight(axis, -0.4, 0.0)
    assert np.allclose(w.values, w.values[::-1], rtol=1e-12, atol=0.0)


# -- one-axis characteristics ---------------------------------------------


def test_ap_characteristic_of_constant_is_one():
    axis = build_axis(4)
    w = Weight(grid_function(np.full(axis.n_cells, 3.0), axis))
    c = ap_characteristic(w, 2.0)
    assert abs(c - 1.0) <= 1e-12


def test_ap_characteristic_exceeds_one_for_nonconstant():
    axis = build_axis(4)
    vals = np.ones(16)
    vals[0] = 9.0
    c = ap_characteristic(Weight(grid_function(vals, axis)), 2.0)
    assert c > 1.1


def test_ap_characteristic_matches_brute_force_bitwise():
    axis = build_axis(4)
    rng = np.random.default_rng(7)
    for p in (4.0 / 3.0, 2.0, 3.0):
        for _ in range(5):
            w = random_weight(axis, rng)
            assert ap_characteristic(w, p) == ap_brute(w.values, p)


# the (p, q) pairs of the bitwise characteristic tests, criterion 11's included
BITWISE_PQ = ((4.0 / 3.0, 4.0), (2.0, 4.0), (1.5, 2.5), (2.0, 3.0), (4.0 / 3.0, 8.0 / 3.0), (3.0, 6.0))


def test_one_element_array_powers_match_the_power_of_a_long_array():
    # the per-arc oracles raise each mean as a one-element array, the library
    # a whole batch of means at once; on a SIMD build numpy's scalar power
    # can differ from both in the last bit, but these two must agree
    x = 10.0 ** np.random.default_rng(2026).uniform(-3.0, 3.0, 10_000)
    exponents = {p - 1.0 for p, _ in BITWISE_PQ} | {q / (p / (p - 1.0)) for p, q in BITWISE_PQ}
    for e in sorted(exponents):
        batch = x**e
        single = np.array([array_power(v, e) for v in x])
        assert np.array_equal(single, batch), e


def test_characteristics_match_per_arc_loops_across_seeds():
    # criterion 11's weights block, at 20 seeds of its generator besides its own
    for seed in range(20):
        rng = np.random.default_rng(seed)
        for idx in range(20):
            axis = build_axis(3 + idx % 2)
            vals = rng.uniform(0.3, 3.0, axis.n_cells)
            w = Weight(grid_function(vals, axis))
            p, q = BITWISE_PQ[idx % 3]
            assert ap_characteristic(w, p) == ap_brute(vals, p), (seed, idx)
            assert apq_characteristic(w, p, q) == apq_brute(vals, p, q), (seed, idx)


FULL_CIRCLE_GRID = np.array([
    0.12288277926669501, 0.12300917789803263, 11.367131198344214, 11.353236387295263,
    0.12287034356801908, 11.359858340238073, 0.12286636540691245, 0.12306087700539851,
])


def test_the_full_circle_counts_once():
    # a high-contrast weight: the sums of the full circle from its eight starts
    # differ in the last bits, and the largest of them set the maximum when
    # every start counted; the one arc of width n starts at 0
    vals = FULL_CIRCLE_GRID
    w = Weight(grid_function(vals, build_axis(3)))
    want = ap_brute(vals, 3.0)
    assert want == char_over_family_batches(vals, vals**-0.5, 2.0)
    assert ap_characteristic(w, 3.0) == want


@pytest.mark.parametrize("widths", (1, 3, None))
def test_characteristic_blocks_at_their_edges(monkeypatch, widths):
    # the budget sets how many consecutive arc widths one block holds: one
    # (the full circle's mean repeated across its row), three (a partial last
    # block at every n here, the full circle in it) or all of them
    import dyadica.weights as weights

    def budget(rows, n):
        monkeypatch.setattr(weights, "_BLOCK_FLOATS", 2 * rows * n * (widths or n))

    rng = np.random.default_rng(45)
    tables = [FULL_CIRCLE_GRID] + [rng.uniform(0.2, 5.0, 1 << lv) for lv in (1, 2, 3, 5)]
    for vals in tables:
        w = Weight(grid_function(vals, build_axis(len(vals).bit_length() - 1)))
        budget(1, len(vals))
        for p, q in BITWISE_PQ:
            assert ap_characteristic(w, p) == ap_brute(vals, p), (len(vals), p)
            assert apq_characteristic(w, p, q) == apq_brute(vals, p, q), (len(vals), p, q)
    axis = build_axis(5)
    ws = [random_weight(axis, rng) for _ in range(3)]
    budget(len(ws), axis.n_cells)
    for p, q in BITWISE_PQ:
        stacked = weights._apq_characteristics(ws, p, q).tolist()
        assert stacked == [apq_characteristic(w, p, q) for w in ws]


@pytest.mark.parametrize("count, quotient", ((16, 1), (40, 0)))
def test_many_weights_take_one_width_per_block_at_the_shipped_budget(count, quotient):
    # 16 weights at L = 8 fill the budget with one width (8192 // 32 // 256),
    # 40 overfill it and still take one; one weight alone takes blocks of 16
    # widths; all match the batches
    import dyadica.weights as weights

    axis = build_axis(8)
    rng = np.random.default_rng(48)
    ws = [random_weight(axis, rng) for _ in range(count)]
    assert weights._BLOCK_FLOATS // (2 * len(ws)) // axis.n_cells == quotient
    p, q = 4.0 / 3.0, 4.0
    p_dual = p / (p - 1.0)
    stacked = weights._apq_characteristics(ws, p, q).tolist()
    assert stacked == [apq_characteristic(w, p, q) for w in ws]
    for idx in (0, 11):
        v = ws[idx].values
        assert stacked[idx] == char_over_family_batches(v**q, v ** (-p_dual), q / p_dual)


@settings(max_examples=12, deadline=None)
@given(
    level=st.integers(1, 8),
    p=st.sampled_from([4.0 / 3.0, 2.0, 3.0]),
    seed=st.integers(0, 2**32 - 1),
)
@example(level=8, p=2.0, seed=0)
def test_characteristics_match_per_width_batches_bitwise(level, p, seed):
    # the per-width batches re-sum every arc (O(n**3), about 25 s at L = 10),
    # so they are compared up to L = 8 here and the carried means at L = 10
    # by the next test
    axis = build_axis(level)
    w = random_weight(axis, np.random.default_rng(seed))
    p_dual, q = p / (p - 1.0), 2.0 * p
    v = w.values
    want_ap = char_over_family_batches(v, v ** (1.0 - p_dual), p - 1.0)
    assert ap_characteristic(w, p) == want_ap
    want_apq = char_over_family_batches(v**q, v ** (-p_dual), q / p_dual)
    assert apq_characteristic(w, p, q) == want_apq


@pytest.mark.parametrize("level", [1, 5, 8, 10])
def test_interval_means_carried_across_widths_match_per_width_batches(level):
    axis = build_axis(level)
    n = axis.n_cells
    v = np.random.default_rng(level).uniform(0.2, 5.0, n)
    widths = {1, 2, 3, 7, 8, 9, n // 2 + 1, n - 1, n} & set(range(1, n + 1))
    for width, (sums,) in enumerate(_arc_folds(v[None].copy(), np.add), 1):
        if n <= 32 or width in widths:
            assert np.array_equal(sums / width, arc_mean_batch(v, np.arange(n), width)), width


def test_ap_characteristic_power_profile_matches_brute_force():
    # alpha = 1/2, p = 2, every grid interval of the level-8 axis; wide arcs
    # cross numpy's pairwise-summation threshold, hence the 1-ulp allowance
    axis = build_axis(8)
    w = power_weight(axis, 0.5, 0.5)
    mine = ap_characteristic(w, 2.0)
    ref = ap_brute(w.values, 2.0)
    assert abs(mine - ref) <= 1e-14 * ref
    assert mine >= 1.0


def test_ap_characteristic_scale_invariant():
    axis = build_axis(5)
    rng = np.random.default_rng(11)
    w = random_weight(axis, rng)
    scaled = Weight(w.base.with_values(37.5 * w.values))
    a, b = ap_characteristic(w, 2.5), ap_characteristic(scaled, 2.5)
    assert abs(a - b) <= 1e-12 * a


def test_ap_characteristic_family_validation():
    axis = build_axis(3)
    w = Weight(grid_function(np.ones(axis.n_cells), axis))
    with pytest.raises(ParameterError):
        ap_characteristic(w, 1.0)


def test_derived_class_weights_have_finite_characteristics():
    # a finite A_{p,q} characteristic puts w**q in A_q, w**(-p') in A_p' and
    # w**(-q') in A_q' (p' and q' the dual exponents); on the arcs each
    # characteristic is at least 1
    axis = build_axis(5)
    w = power_weight(axis, 0.25, 0.5)
    p, q = 4.0 / 3.0, 4.0
    assert np.isfinite(apq_characteristic(w, p, q))
    p_dual, q_dual = p / (p - 1.0), q / (q - 1.0)
    for exponent, r in ((q, q), (-p_dual, p_dual), (-q_dual, q_dual)):
        value = ap_characteristic(w.power(exponent), r)
        assert np.isfinite(value) and value >= 1.0 - 1e-12


def test_apq_characteristic_matches_brute_force_bitwise():
    axis = build_axis(4)
    rng = np.random.default_rng(17)
    for p, q in ((4.0 / 3.0, 4.0), (2.0, 3.0)):
        for _ in range(5):
            w = random_weight(axis, rng)
            assert apq_characteristic(w, p, q) == apq_brute(w.values, p, q)


def test_apq_characteristic_requires_q_above_p():
    axis = build_axis(3)
    w = Weight(grid_function(np.ones(axis.n_cells), axis))
    with pytest.raises(ParameterError):
        apq_characteristic(w, 2.0, 2.0)
    with pytest.raises(ParameterError):
        apq_characteristic(w, 3.0, 2.0)


def test_apq_characteristic_scale_invariant():
    axis = build_axis(5)
    rng = np.random.default_rng(19)
    w = random_weight(axis, rng)
    scaled = Weight(w.base.with_values(0.04 * w.values))
    a = apq_characteristic(w, 4.0 / 3.0, 4.0)
    b = apq_characteristic(scaled, 4.0 / 3.0, 4.0)
    assert abs(a - b) <= 1e-11 * a


def test_apq_equals_classical_characteristic_of_qth_power():
    # per-interval scores agree: [w]_{p,q} = [w**q] at exponent 1 + q/p'
    axis = build_axis(5)
    rng = np.random.default_rng(23)
    w = random_weight(axis, rng)
    p, q = 4.0 / 3.0, 4.0
    p_dual = p / (p - 1.0)
    a = apq_characteristic(w, p, q)
    b = ap_characteristic(w.power(q), 1.0 + q / p_dual)
    assert abs(a - b) <= 1e-11 * a


def test_apq_duality_joint_finiteness():
    # the reciprocal weight at the swapped dual exponents has characteristic
    # equal to the original raised to p'/q
    axis = build_axis(5)
    rng = np.random.default_rng(29)
    w = random_weight(axis, rng)
    p, q = 4.0 / 3.0, 4.0
    p_dual = p / (p - 1.0)
    q_dual = q / (q - 1.0)
    a = apq_characteristic(w, p, q)
    b = apq_characteristic(w.power(-1.0), q_dual, p_dual)
    assert np.isfinite(a) and np.isfinite(b)
    assert abs(b - a ** (p_dual / q)) <= 1e-10 * b


# -- two-weight ratios ----------------------------------------------------


def test_bloom_weight_trivial_when_factors_match():
    axis = build_axis(4)
    rng = np.random.default_rng(31)
    mu1, mu2 = random_weight(axis, rng), random_weight(axis, rng)
    nu = bloom_weight(mu1, mu1, mu2, mu2)
    assert np.array_equal(nu.factor1.values, np.ones(axis.n_cells))
    assert np.array_equal(nu.factor2.values, np.ones(axis.n_cells))


def test_bloom_weight_swap_inverts():
    axis = build_axis(4)
    rng = np.random.default_rng(37)
    mu1, sg1 = random_weight(axis, rng), random_weight(axis, rng)
    mu2, sg2 = random_weight(axis, rng), random_weight(axis, rng)
    nu = bloom_weight(mu1, sg1, mu2, sg2)
    swapped = bloom_weight(sg1, mu1, sg2, mu2)
    assert np.allclose(swapped.factor1.values * nu.factor1.values, 1.0, rtol=1e-14)
    assert np.allclose(swapped.factor2.values * nu.factor2.values, 1.0, rtol=1e-14)


def test_bloom_weight_axis_mismatch():
    rng = np.random.default_rng(41)
    w3 = random_weight(build_axis(3), rng)
    w4 = random_weight(build_axis(4), rng)
    with pytest.raises(ShapeError):
        bloom_weight(w3, w4, w3, w3)


def test_bloom_product_characteristic_matches_brute_force():
    axis = build_axis(3)
    rng = np.random.default_rng(43)
    nu = bloom_weight(
        random_weight(axis, rng),
        random_weight(axis, rng),
        random_weight(axis, rng),
        random_weight(axis, rng),
    )
    mine = product_ap_characteristic(nu, 2.0)
    ref = product_ap_brute(nu.factor1.values, nu.factor2.values, 2.0)
    assert np.isfinite(mine)
    assert abs(mine - ref) <= 1e-12 * ref


def test_product_ap_characteristic_of_constants_is_one():
    axis = build_axis(3)
    pw = ProductWeight(
        Weight(grid_function(np.full(8, 2.0), axis)), Weight(grid_function(np.full(8, 0.5), axis))
    )
    assert abs(product_ap_characteristic(pw, 2.0) - 1.0) <= 1e-12


# -- invariants under random inputs ---------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    vals=st.lists(st.floats(0.1, 10.0), min_size=8, max_size=8),
    p=st.sampled_from([1.5, 2.0, 3.0]),
)
def test_ap_characteristic_at_least_one_and_scale_invariant(vals, p):
    axis = build_axis(3)
    w = Weight(grid_function(np.array(vals), axis))
    c = ap_characteristic(w, p)
    assert c >= 1.0 - 1e-11
    scaled = Weight(w.base.with_values(0.125 * w.values))
    assert abs(ap_characteristic(scaled, p) - c) <= 1e-10 * c
