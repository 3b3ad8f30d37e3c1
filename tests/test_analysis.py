import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dyadica.analysis import (
    OmegaFamily,
    _gathered_means,
    _prefix_sum_means,
    bmo_prod_norm,
    default_omega_family,
    duality_check,
    dyadic_maximal,
    frac_maximal,
    frac_maximal_domination,
    mixed_norm,
    square_function,
    strong_maximal,
)
from dyadica.dyadic import DyadicCube, DyadicSystem
from dyadica.errors import DegenerateInputError, ParameterError, ShapeError
from dyadica.fracops import frac_integral
from dyadica.grid import (
    build_axis,
    constant_function,
    grid_function,
    inner_product,
    l2_norm,
    tabulate_midpoint,
)
from dyadica.haar import haar_function, level_average, level_difference
from dyadica.weights import ProductWeight, Weight, power_weight

from oracles import bmo_prod_brute, dyadic_rect_maximal_brute, strong_maximal_brute


def rand_f(rng, ax1, ax2=None, spread=1.0):
    if ax2 is None:
        return grid_function(rng.normal(0.0, spread, ax1.n_cells), ax1)
    return grid_function(rng.normal(0.0, spread, (ax1.n_cells, ax2.n_cells)), ax1, ax2)


def ones_weight(axis):
    return Weight(constant_function(1.0, axis))


def tensor_haar(sys1, sys2, k1, m1, k2, m2):
    hv1 = haar_function(DyadicCube(sys1, k1, m1)).values
    hv2 = haar_function(DyadicCube(sys2, k2, m2)).values
    return grid_function(np.outer(hv1, hv2), sys1.axis, sys2.axis)


# -- strong maximal -------------------------------------------------------


def test_strong_maximal_constant():
    axis = build_axis(3)
    m = strong_maximal(constant_function(1.0, axis, axis))
    assert np.array_equal(m.values, np.ones((8, 8)))


def test_strong_maximal_dominates_pointwise():
    axis = build_axis(3)
    rng = np.random.default_rng(0)
    f = rand_f(rng, axis, axis)
    m = strong_maximal(f)
    assert np.all(m.values >= np.abs(f.values) - 1e-15)


def test_strong_maximal_single_cell_far_corner():
    # mass 1 cell at (0,0) on the 8x8 grid; at cell (4,4) the best rectangle
    # containing both is 5x5 cells, so the value is 1/25 of the cell value
    axis = build_axis(3)
    vals = np.zeros((8, 8))
    vals[0, 0] = 1.0
    m = strong_maximal(grid_function(vals, axis, axis))
    assert m.values[4, 4] == pytest.approx(1.0 / 25.0, rel=1e-12)
    ref = strong_maximal_brute(vals)
    assert np.array_equal(m.values, ref)


def test_strong_maximal_matches_brute_force_bitwise():
    axis = build_axis(3)
    rng = np.random.default_rng(1)
    for _ in range(3):
        f = rand_f(rng, axis, axis)
        assert np.array_equal(strong_maximal(f).values, strong_maximal_brute(f.values))


def test_strong_maximal_homogeneous():
    axis = build_axis(3)
    rng = np.random.default_rng(2)
    f = rand_f(rng, axis, axis)
    m1 = strong_maximal(f)
    m2 = strong_maximal(-2.0 * f)
    assert np.array_equal(m2.values, 2.0 * m1.values)


@settings(max_examples=10, deadline=None)
@given(
    levels=st.tuples(st.integers(1, 7), st.integers(1, 7)).filter(
        lambda ls: sum(ls) <= 8
    ),
    seed=st.integers(0, 2**32 - 1),
)
@example(levels=(4, 4), seed=0)
def test_strong_maximal_matches_brute_force_bitwise_all_shapes(levels, seed):
    # every power-of-two shape that takes the gathered means (<= 256 cells)
    ax1, ax2 = build_axis(levels[0]), build_axis(levels[1])
    f = rand_f(np.random.default_rng(seed), ax1, ax2)
    assert np.array_equal(strong_maximal(f).values, strong_maximal_brute(f.values))


def test_strong_maximal_prefix_sums_agree_with_gather():
    axis = build_axis(4)
    rng = np.random.default_rng(3)
    a = np.abs(rng.normal(size=(16, 16)))
    gathered, prefix = _gathered_means(a), _prefix_sum_means(a)
    for w1 in range(1, 17):
        for w2 in range(1, 17):
            g, p = gathered(w1, w2), prefix(w1, w2)
            assert g.shape == p.shape
            assert np.max(np.abs(p - g)) <= 1e-12 * np.max(g)


def test_strong_maximal_rejects_one_axis():
    axis = build_axis(3)
    with pytest.raises(ShapeError):
        strong_maximal(constant_function(1.0, axis))


# -- dyadic maximal -------------------------------------------------------


def test_dyadic_maximal_constant_all_modes():
    axis = build_axis(3)
    f = constant_function(1.0, axis, axis)
    pair = (DyadicSystem(axis, 2), DyadicSystem(axis, 5))
    for mode in ("axis1", "axis2", "biparameter"):
        out = dyadic_maximal(f, pair, mode)
        assert np.allclose(out.values, 1.0, rtol=1e-14)


def test_dyadic_maximal_below_strong_maximal():
    axis = build_axis(4)
    rng = np.random.default_rng(4)
    f = rand_f(rng, axis, axis)
    pair = (DyadicSystem(axis, 7), DyadicSystem(axis, 13))
    ms = strong_maximal(f).values
    for mode in ("axis1", "axis2", "biparameter"):
        out = dyadic_maximal(f, pair, mode).values
        assert np.all(out <= ms + 1e-12)
        assert np.all(out >= np.abs(f.values) - 1e-15)


def test_dyadic_maximal_biparameter_matches_brute_force_bitwise():
    axis = build_axis(3)
    rng = np.random.default_rng(5)
    for off1, off2 in ((0, 0), (3, 6)):
        f = rand_f(rng, axis, axis)
        pair = (DyadicSystem(axis, off1), DyadicSystem(axis, off2))
        mine = dyadic_maximal(f, pair, "biparameter").values
        ref = dyadic_rect_maximal_brute(f.values, off1, off2)
        assert np.array_equal(mine, ref)


@settings(max_examples=15, deadline=None)
@given(
    levels=st.tuples(st.integers(1, 6), st.integers(1, 6)),
    offsets=st.tuples(st.integers(0, 63), st.integers(0, 63)),
    seed=st.integers(0, 2**32 - 1),
)
@example(levels=(4, 4), offsets=(13, 6), seed=0)
@example(levels=(6, 6), offsets=(37, 5), seed=1)
@example(levels=(2, 6), offsets=(3, 50), seed=2)
def test_dyadic_maximal_biparameter_matches_brute_force_all_sizes(
    levels, offsets, seed
):
    # both sides of 256 cells, where an earlier design switched algorithms
    ax1, ax2 = build_axis(levels[0]), build_axis(levels[1])
    off1, off2 = offsets[0] % ax1.n_cells, offsets[1] % ax2.n_cells
    f = rand_f(np.random.default_rng(seed), ax1, ax2)
    pair = (DyadicSystem(ax1, off1), DyadicSystem(ax2, off2))
    mine = dyadic_maximal(f, pair, "biparameter").values
    assert np.array_equal(mine, dyadic_rect_maximal_brute(f.values, off1, off2))


def test_dyadic_maximal_mode_validation():
    axis = build_axis(3)
    f = constant_function(1.0, axis, axis)
    sys1 = DyadicSystem(axis, 0)
    with pytest.raises(ParameterError):
        dyadic_maximal(f, sys1, "diagonal")
    with pytest.raises(ParameterError):
        dyadic_maximal(f, sys1, "biparameter")
    with pytest.raises(ShapeError):
        dyadic_maximal(constant_function(1.0, axis), (sys1, sys1), "axis1")
    other = DyadicSystem(build_axis(4), 0)
    with pytest.raises(ShapeError):
        dyadic_maximal(f, (other, sys1), "biparameter")


# -- fractional maximal ---------------------------------------------------


def test_frac_maximal_constant_attained_at_whole_torus():
    # for f = 1 the score at scale k is 2**(k*(lam-1)), maximal at k = 0
    axis = build_axis(5)
    f = constant_function(1.0, axis)
    out = frac_maximal(f, DyadicSystem(axis, 0), 0.4)
    assert np.allclose(out.values, 1.0, rtol=1e-14)


def test_frac_maximal_homogeneous():
    axis = build_axis(4)
    rng = np.random.default_rng(7)
    f = rand_f(rng, axis)
    system = DyadicSystem(axis, 5)
    a = frac_maximal(f, system, 0.5).values
    b = frac_maximal(2.0 * f, system, 0.5).values
    assert np.allclose(b, 2.0 * a, rtol=1e-14)


def test_frac_maximal_lambda_validation():
    axis = build_axis(3)
    f = constant_function(1.0, axis)
    for lam in (0.0, 1.0, -0.3):
        with pytest.raises(ParameterError):
            frac_maximal(f, DyadicSystem(axis, 0), lam)


def test_frac_maximal_two_axis_tensor():
    ax1, ax2 = build_axis(4), build_axis(3)
    rng = np.random.default_rng(8)
    g = np.abs(rng.normal(1.0, 0.3, ax1.n_cells)) + 0.5
    f = grid_function(np.outer(g, np.ones(ax2.n_cells)), ax1, ax2)
    system = DyadicSystem(ax1, 3)
    two = frac_maximal(f, system, 0.5, axis_index=1).values
    one = frac_maximal(grid_function(g, ax1), system, 0.5).values
    assert np.allclose(two, one[:, None] * np.ones(ax2.n_cells), rtol=1e-13)


def test_frac_maximal_domination_stable_under_refinement():
    ratios = []
    for level in (5, 6, 7):
        axis = build_axis(level)
        f = tabulate_midpoint(lambda x: 2.0 + np.sin(2.0 * np.pi * x), axis)
        ratios.append(frac_maximal_domination(f, DyadicSystem(axis, 0), 0.5))
    assert all(np.isfinite(r) and r > 0 for r in ratios)
    assert max(ratios) / min(ratios) <= 1.25


def test_frac_maximal_domination_rejects_zero():
    axis = build_axis(3)
    with pytest.raises(DegenerateInputError):
        frac_maximal_domination(constant_function(0.0, axis), DyadicSystem(axis, 0), 0.5)


# -- square functions -----------------------------------------------------


def test_square_function_sole_single_haar():
    axis = build_axis(4)
    system = DyadicSystem(axis, 9)
    h = haar_function(DyadicCube(system, 2, 1))
    s = square_function(h, system, "sole")
    assert np.allclose(s.values, np.abs(h.values), rtol=1e-14, atol=1e-15)


def test_square_function_sole_plancherel():
    axis = build_axis(5)
    rng = np.random.default_rng(9)
    for _ in range(20):
        system = DyadicSystem(axis, int(rng.integers(32)))
        f = rand_f(rng, axis)
        f = f - f.mean()
        s = square_function(f, system, "sole")
        assert abs(l2_norm(s) - l2_norm(f)) <= 1e-12 * max(l2_norm(f), 1e-30)


def test_square_function_rect_tensor_haar():
    axis = build_axis(3)
    sys1, sys2 = DyadicSystem(axis, 1), DyadicSystem(axis, 6)
    f = tensor_haar(sys1, sys2, 1, 0, 2, 3)
    s = square_function(f, (sys1, sys2), "rect")
    assert np.allclose(s.values, np.abs(f.values), rtol=1e-13, atol=1e-14)


def test_square_function_axis_mode_plancherel():
    ax1, ax2 = build_axis(4), build_axis(3)
    rng = np.random.default_rng(10)
    f = rand_f(rng, ax1, ax2)
    sys1 = DyadicSystem(ax1, 11)
    # remove the first-axis mean so the axis-1 differences capture everything
    f = f - level_average(f, sys1, 0, axis_index=1)
    s = square_function(f, sys1, "axis1")
    assert abs(l2_norm(s) - l2_norm(f)) <= 1e-12 * l2_norm(f)


def test_square_function_axis_and_rect_match_level_difference_loops():
    ax1, ax2 = build_axis(4), build_axis(3)
    sys1, sys2 = DyadicSystem(ax1, 5), DyadicSystem(ax2, 7)
    f = rand_f(np.random.default_rng(12), ax1, ax2)
    scale = float(np.max(np.abs(f.values)))
    for mode, axis_index, system in (("axis1", 1, sys1), ("axis2", 2, sys2)):
        acc = np.zeros_like(f.values)
        for k in range(system.axis.level):
            acc += level_difference(f, system, k, axis_index).values ** 2
        s = square_function(f, (sys1, sys2), mode).values
        assert np.max(np.abs(s - np.sqrt(acc))) <= 1e-13 * scale
    acc = np.zeros_like(f.values)
    for k1 in range(ax1.level):
        d1 = level_difference(f, sys1, k1, axis_index=1)
        for k2 in range(ax2.level):
            acc += level_difference(d1, sys2, k2, axis_index=2).values ** 2
    s = square_function(f, (sys1, sys2), "rect").values
    assert np.max(np.abs(s - np.sqrt(acc))) <= 1e-13 * scale


def test_square_function_l2_contraction():
    axis = build_axis(4)
    rng = np.random.default_rng(11)
    f = rand_f(rng, axis)
    s = square_function(f, DyadicSystem(axis, 3), "sole")
    assert l2_norm(s) <= l2_norm(f) + 1e-12


def test_square_function_mode_validation():
    axis = build_axis(3)
    one = constant_function(1.0, axis)
    two = constant_function(1.0, axis, axis)
    system = DyadicSystem(axis, 0)
    with pytest.raises(ShapeError):
        square_function(two, system, "sole")
    with pytest.raises(ShapeError):
        square_function(one, system, "axis1")
    with pytest.raises(ParameterError):
        square_function(two, system, "rect")
    with pytest.raises(ParameterError):
        square_function(two, (system, system), "spiral")


# -- mixed norms ----------------------------------------------------------


def test_mixed_norm_constant_unweighted():
    axis = build_axis(3)
    f = constant_function(1.0, axis, axis)
    assert mixed_norm(f, 2.0, 3.0) == pytest.approx(1.0, rel=1e-14)


def test_mixed_norm_equal_exponents_is_plain_lp():
    ax1, ax2 = build_axis(4), build_axis(3)
    rng = np.random.default_rng(12)
    f = rand_f(rng, ax1, ax2)
    w1 = Weight(grid_function(rng.uniform(0.5, 2.0, ax1.n_cells), ax1))
    w2 = Weight(grid_function(rng.uniform(0.5, 2.0, ax2.n_cells), ax2))
    p = 3.0
    mine = mixed_norm(f, p, p, w1, w2)
    dens = np.outer(w1.values, w2.values)
    ref = (np.sum(np.abs(f.values) ** p * dens) * ax1.h * ax2.h) ** (1.0 / p)
    assert abs(mine - ref) <= 1e-12 * ref


def test_mixed_norm_homogeneous_and_triangle():
    ax = build_axis(3)
    rng = np.random.default_rng(13)
    f, g = rand_f(rng, ax, ax), rand_f(rng, ax, ax)
    n = mixed_norm(f, 1.5, 4.0)
    assert mixed_norm(-3.0 * f, 1.5, 4.0) == pytest.approx(3.0 * n, rel=1e-13)
    assert mixed_norm(f + g, 1.5, 4.0) <= mixed_norm(f, 1.5, 4.0) + mixed_norm(
        g, 1.5, 4.0
    ) + 1e-12


def test_mixed_norm_validation():
    axis = build_axis(3)
    f = constant_function(1.0, axis, axis)
    with pytest.raises(ParameterError):
        mixed_norm(f, 0.5, 2.0)
    with pytest.raises(ParameterError):
        mixed_norm(f, 2.0, 0.99)
    with pytest.raises(ShapeError):
        mixed_norm(constant_function(1.0, axis), 2.0, 2.0)
    with pytest.raises(ShapeError):
        mixed_norm(f, 2.0, 2.0, w1=ones_weight(build_axis(4)))


# -- product BMO ----------------------------------------------------------


def test_bmo_prod_constant_is_zero():
    axis = build_axis(3)
    pair = (DyadicSystem(axis, 0), DyadicSystem(axis, 5))
    w = ProductWeight(ones_weight(axis), ones_weight(axis))
    b = constant_function(4.0, axis, axis)
    assert bmo_prod_norm(b, w, pair) == 0.0


def test_bmo_prod_single_tensor_haar_closed_form():
    # for b = h_I x h_J and w = 1 the sup is attained at the rectangle
    # I x J itself with value (|I| |J|)**(-1/2)
    axis = build_axis(3)
    pair = (DyadicSystem(axis, 2), DyadicSystem(axis, 7))
    w = ProductWeight(ones_weight(axis), ones_weight(axis))
    k1, k2 = 1, 2
    b = tensor_haar(*pair, k1, 1, k2, 0)
    expected = 2.0 ** ((k1 + k2) / 2.0)
    assert bmo_prod_norm(b, w, pair) == pytest.approx(expected, rel=1e-12)


def test_bmo_prod_family_missing_support_gives_zero():
    axis = build_axis(3)
    pair = (DyadicSystem(axis, 0), DyadicSystem(axis, 0))
    w = ProductWeight(ones_weight(axis), ones_weight(axis))
    b = tensor_haar(*pair, 1, 0, 1, 0)  # supported on cells 0..3 x 0..3
    far = np.zeros((8, 8), dtype=bool)
    far[6:8, 6:8] = True
    assert bmo_prod_norm(b, w, pair, OmegaFamily((far,))) == 0.0


def test_bmo_prod_monotone_in_family():
    axis = build_axis(3)
    rng = np.random.default_rng(14)
    pair = (DyadicSystem(axis, 3), DyadicSystem(axis, 6))
    w = ProductWeight(ones_weight(axis), ones_weight(axis))
    b = rand_f(rng, axis, axis)
    base = default_omega_family(*pair)
    bigger = default_omega_family(*pair, lshapes=6, seed=1)
    assert bmo_prod_norm(b, w, pair, base) <= bmo_prod_norm(b, w, pair, bigger) + 1e-15


def test_bmo_prod_matches_brute_force_bitwise():
    axis = build_axis(3)
    rng = np.random.default_rng(15)
    off1, off2 = 4, 1
    pair = (DyadicSystem(axis, off1), DyadicSystem(axis, off2))
    b = rand_f(rng, axis, axis)
    w = ProductWeight(
        Weight(grid_function(rng.uniform(0.5, 2.0, 8), axis)),
        Weight(grid_function(rng.uniform(0.5, 2.0, 8), axis)),
    )
    family = default_omega_family(*pair, lshapes=4, seed=2)
    mine = bmo_prod_norm(b, w, pair, family)
    wvals = np.outer(w.factor1.values, w.factor2.values)
    ref = bmo_prod_brute(b.values, wvals, off1, off2, list(family.shapes))
    assert mine == ref


def test_bmo_prod_rect_norm_matches_mask_path():
    from dyadica.analysis import bmo_prod_rect_norm

    rng = np.random.default_rng(18)
    for level, off1, off2 in ((3, 2, 5), (4, 7, 0)):
        axis = build_axis(level)
        pair = (DyadicSystem(axis, off1), DyadicSystem(axis, off2))
        b = rand_f(rng, axis, axis)
        w = ProductWeight(
            Weight(grid_function(rng.uniform(0.5, 2.0, axis.n_cells), axis)),
            Weight(grid_function(rng.uniform(0.5, 2.0, axis.n_cells), axis)),
        )
        slow = bmo_prod_norm(b, w, pair, default_omega_family(*pair))
        fast = bmo_prod_rect_norm(b, w, pair)
        assert abs(fast - slow) <= 1e-11 * slow


def test_bmo_prod_validation():
    axis = build_axis(3)
    pair = (DyadicSystem(axis, 0), DyadicSystem(axis, 0))
    w = ProductWeight(ones_weight(axis), ones_weight(axis))
    b = constant_function(1.0, axis, axis)
    with pytest.raises(ParameterError):
        OmegaFamily(())
    with pytest.raises(ParameterError):
        OmegaFamily((np.zeros((8, 8), dtype=bool),))
    with pytest.raises(ShapeError):
        bmo_prod_norm(constant_function(1.0, axis), w, pair)
    with pytest.raises(ParameterError):
        bmo_prod_norm(b, w, pair[0])


# -- duality --------------------------------------------------------------


def test_duality_single_tensor_haar_ratio_one():
    axis = build_axis(3)
    pair = (DyadicSystem(axis, 1), DyadicSystem(axis, 5))
    w = ProductWeight(ones_weight(axis), ones_weight(axis))
    b = tensor_haar(*pair, 1, 1, 1, 0)
    report = duality_check(b, b, w, pair)
    assert report.pairing == pytest.approx(1.0, rel=1e-12)
    # bmo = (|I||J|)**(-1/2) and ||S b||_{L1} = (|I||J|)**(1/2)
    assert report.bmo_norm * report.square_l1 == pytest.approx(1.0, rel=1e-10)
    assert report.ratio == pytest.approx(1.0, rel=1e-10)
    assert not report.family_too_small


def test_duality_zero_pairing_for_mean_type_b():
    axis = build_axis(3)
    pair = (DyadicSystem(axis, 0), DyadicSystem(axis, 2))
    w = ProductWeight(ones_weight(axis), ones_weight(axis))
    rng = np.random.default_rng(16)
    # b depends only on the first variable: all rectangle coefficients vanish
    b = grid_function(np.outer(rng.normal(size=8), np.ones(8)), axis, axis)
    phi = tensor_haar(*pair, 1, 0, 2, 2)
    report = duality_check(b, phi, w, pair)
    assert abs(report.pairing) <= 1e-14
    assert report.bmo_norm <= 1e-13
    assert not report.family_too_small


def test_duality_flags_unseen_mean_component():
    axis = build_axis(3)
    pair = (DyadicSystem(axis, 0), DyadicSystem(axis, 0))
    w = ProductWeight(ones_weight(axis), ones_weight(axis))
    b = constant_function(1.0, axis, axis)
    phi = constant_function(1.0, axis, axis)
    report = duality_check(b, phi, w, pair)
    assert report.family_too_small
    assert report.ratio == np.inf


def test_duality_random_ensemble_finite():
    axis = build_axis(3)
    rng = np.random.default_rng(17)
    pair = (DyadicSystem(axis, 2), DyadicSystem(axis, 6))
    w = ProductWeight(ones_weight(axis), ones_weight(axis))
    ratios = []
    for _ in range(20):
        b = rand_f(rng, axis, axis)
        phi = rand_f(rng, axis, axis)
        report = duality_check(b, phi, w, pair)
        if not report.family_too_small:
            ratios.append(report.ratio)
    assert ratios and all(np.isfinite(r) for r in ratios)


# -- weighted ratio smoke tests -------------------------------------------


def test_fefferman_stein_ratio_stable():
    # vector-valued maximal inequality as a resolution-stability statement
    profiles = [
        lambda x, y: 1.5 + np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y),
        lambda x, y: np.exp(np.cos(2 * np.pi * (x + y))),
        lambda x, y: 1.0 + 0.5 * np.sin(4 * np.pi * y),
    ]
    ratios = []
    for level in (3, 4):
        axis = build_axis(level)
        w1 = power_weight(axis, 0.3, 0.5)
        w2 = power_weight(axis, -0.2, 0.25)
        fs = [tabulate_midpoint(p, axis, axis) for p in profiles]
        sq_in = grid_function(
            np.sqrt(sum(f.values**2 for f in fs)), axis, axis
        )
        sq_out = grid_function(
            np.sqrt(sum(strong_maximal(f).values ** 2 for f in fs)), axis, axis
        )
        num = mixed_norm(sq_out, 2.0, 3.0, w1, w2)
        den = mixed_norm(sq_in, 2.0, 3.0, w1, w2)
        ratios.append(num / den)
    assert all(np.isfinite(r) and r >= 1.0 - 1e-12 for r in ratios)
    assert abs(ratios[1] - ratios[0]) <= 0.5 * ratios[0]
