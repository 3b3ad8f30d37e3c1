import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dyadica import analysis
from dyadica.analysis import (
    OmegaFamily,
    _carry_gap,
    _fold_means,
    _rect_weight_means,
    _trailing_max,
    _widest_containing,
    _window_folds,
    bmo_prod_norm,
    default_omega_family,
    frac_maximal,
    frac_maximal_domination,
    mixed_norm,
    square_function,
    strong_maximal,
)
from dyadica.dyadic import DyadicCube, DyadicSystem
from dyadica.errors import DegenerateInputError, ParameterError, ShapeError, SystemMismatchError
from dyadica.fracops import domination_ratio, frac_integral
from dyadica.grid import (
    Axis,
    build_axis,
    grid_function,
    inner_product,
    l2_norm,
    midpoints,
    tabulate_midpoint,
)
from dyadica.haar import haar_function, level_average, level_difference
from dyadica.weights import ProductWeight, Weight, power_weight

from oracles import (
    bmo_prod_brute,
    carried_means_reference,
    cube_cells,
    gathered_means,
    level_scale_reference,
    mixed_norm_brute,
    square_function_reference,
    strong_maximal_brute,
    trailing_max_brute,
)


def rand_f(rng, ax1, ax2=None, spread=1.0):
    if ax2 is None:
        return grid_function(rng.normal(0.0, spread, ax1.n_cells), ax1)
    return grid_function(rng.normal(0.0, spread, (ax1.n_cells, ax2.n_cells)), ax1, ax2)


def ones_weight(axis):
    return Weight(grid_function(np.ones(axis.n_cells), axis))


def tensor_haar(sys1, sys2, k1, m1, k2, m2):
    hv1 = haar_function(DyadicCube(sys1, k1, m1)).values
    hv2 = haar_function(DyadicCube(sys2, k2, m2)).values
    return grid_function(np.outer(hv1, hv2), sys1.axis, sys2.axis)


# -- strong maximal -------------------------------------------------------


def test_strong_maximal_constant():
    axis = build_axis(3)
    m = strong_maximal(grid_function(np.ones((axis.n_cells, axis.n_cells)), axis, axis))
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
    m2 = strong_maximal(f.with_values(-2.0 * f.values))
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


@pytest.mark.parametrize("levels", ((0, 8), (8, 0), (4, 4)))
def test_strong_maximal_matches_brute_force_at_view_edges(levels):
    # 1 x 256 and 256 x 1 are the thinnest grids of the wrapped-grid view,
    # and GridFunction keeps its values read-only
    f = grid_function(
        np.random.default_rng(sum(levels)).normal(size=[1 << k for k in levels]),
        *(Axis(k) for k in levels),
    )
    assert not f.values.flags.writeable
    assert np.array_equal(strong_maximal(f).values, strong_maximal_brute(f.values))


# every power-of-two shape of the gathered path (<= 256 cells)
SMALL_SHAPES = [(1 << k1, 1 << k2) for k1 in range(9) for k2 in range(9 - k1)]


def exactness_grids(shape, rng):
    """Random, heavy-tailed, tie-heavy and subnormal values on ``shape``."""
    return {
        "random": rng.normal(size=shape),
        "heavy-tailed": rng.standard_cauchy(size=shape) ** 3,
        "tie-heavy": rng.choice((0.1, 0.2, 0.3), size=shape),
        "subnormal": rng.choice((0.0, 5e-324, 1e-310, 3e-310), size=shape),
    }


def test_strong_maximal_carried_sums_agree_with_gather():
    # the small-grid path picks the windows to gather by this bound: every
    # carried window mean of the fold engine is within _carry_gap of its
    # gathered mean(), and the starts past the full circle's first read 0
    rng = np.random.default_rng(3)
    for shape in SMALL_SHAPES:
        for kind, values in exactness_grids(shape, rng).items():
            a = np.abs(values)
            gathered, gap = gathered_means(a), _carry_gap(a)
            for lo, means in _fold_means(a):
                for w2, M in enumerate(means, 1):
                    for k, carried in enumerate(M):
                        g = gathered[lo + k + 1, w2]
                        c1, c2 = g.shape
                        assert np.max(np.abs(carried[:c1, :c2] - g)) <= gap, (shape, kind, w2)
                        assert not carried[c1:].any() and not carried[:, c2:].any()


@pytest.mark.parametrize("shape", ((4, 8), (32, 4), (1, 16), (20, 16)))
def test_window_folds_are_carried_sums_and_window_minima(shape):
    # per row-width group and column width, the sums of _window_folds are
    # the reference's carried sums and its minima the minimum over each
    # window; 20 x 16 folds its row widths twelve at a time
    a = np.abs(np.random.default_rng(6).normal(size=shape))
    carried = carried_means_reference(a)
    seen = 0
    for (lo, sums), (_, lows) in zip(_window_folds(a, np.add), _window_folds(a, np.minimum)):
        for w2, (S, L) in enumerate(zip(sums, lows), 1):
            for k, (s, low) in enumerate(zip(S, L)):
                w1 = lo + k + 1
                want = carried[w1, w2]
                c1, c2 = want.shape
                assert np.array_equal(s[:c1, :c2] / (w1 * w2), want), (w1, w2)
                cells = itertools.product(range(w1), range(w2))
                window_min = np.min([np.roll(a, (-i, -j), (0, 1)) for i, j in cells], axis=0)
                assert np.array_equal(low, window_min), (w1, w2)
                seen += 1
    assert seen == a.size


@pytest.mark.parametrize(
    "shape, group", (((16, 16), 16), ((1, 256), 16), ((32, 32), 4), ((64, 64), 1), ((512, 1), 8))
)
def test_window_folds_hold_at_most_4096_windows(shape, group):
    # sixteen row widths a group up to 256 cells, then fewer: a fold array
    # holds at most _SPREAD_CHUNK * _GATHER_CELLS windows
    a = np.zeros(shape)
    groups = [(lo, next(folds).shape) for lo, folds in _window_folds(a, np.add)]
    assert [lo for lo, _ in groups] == list(range(0, shape[0], group))
    assert groups[0][1] == (min(group, shape[0]),) + shape


def _grid(values):
    return grid_function(values, *(Axis(n.bit_length() - 1) for n in values.shape))


def _one_dip(shape):
    # 0.3 everywhere but one 0.1: at the dip the widest window wins, the
    # full circle on a one-cell axis
    values = np.full(shape, 0.3)
    values[tuple(n // 3 for n in shape)] = 0.1
    return values


TIE_RNG = np.random.default_rng(11)
EXTREME_GRIDS = {
    "constant-0.1": np.full((16, 16), 0.1),
    "constant-1e-310": np.full((8, 16), 1e-310),
    "ties-0.1-0.2-0.3": TIE_RNG.choice((0.1, 0.2, 0.3), size=(16, 16)),
    "ties-0.1-0.2-0.3-wide": TIE_RNG.choice((0.1, 0.2, 0.3), size=(4, 32)),
    "single-spike": np.where(np.arange(128).reshape(16, 8) == 45, 1.0, 0.0),
    "one-dip-1x256": _one_dip((1, 256)),
    "one-dip-256x1": _one_dip((256, 1)),
    "one-dip-8x8": _one_dip((8, 8)),
    # some rows keep the full-width window at start 0 only: a rotated copy
    # of it sums in another order
    "random-2x16": np.random.default_rng(13).normal(size=(2, 16)),
    # every shape is kept at every start: the full circle is gathered at
    # its one start
    "random-2x2": np.random.default_rng(1).normal(size=(2, 2)),
    # every window is gathered: a carried mean nears max_float / (4 n1 n2)
    "near-overflow": TIE_RNG.uniform(1e306, 2e306, size=(8, 8)),
}


@pytest.mark.parametrize("kind", EXTREME_GRIDS)
def test_strong_maximal_matches_brute_force_on_ties_and_extremes(kind):
    values = EXTREME_GRIDS[kind]
    assert np.array_equal(strong_maximal(_grid(values)).values, strong_maximal_brute(values))


def test_strong_maximal_refuses_an_overflowing_window_mean():
    # the full sum overflows to inf: in mean() at 16 x 16, as when every
    # window was gathered, and in the carried sums at 32 x 32; with_values
    # refuses the inf
    for n in (16, 32):
        values = np.full((n, n), 1e307)
        values[3, 9] = 1.7e308
        with np.errstate(over="ignore"), pytest.raises(ShapeError, match="finite"):
            strong_maximal(_grid(values))


@pytest.mark.parametrize("levels", [(4, 4), (2, 6), (1, 7)], ids=["16x16", "4x64", "2x128"])
def test_strong_maximal_gathers_few_windows_on_a_normal_grid(monkeypatch, levels):
    gathered = []

    def counting(windows, lo, w2, keep):
        gathered.append(int(keep.sum()))
        return real(windows, lo, w2, keep)

    real = analysis._gathered
    monkeypatch.setattr(analysis, "_gathered", counting)
    f = rand_f(np.random.default_rng(12), *map(build_axis, levels))
    strong_maximal(f)
    assert 0 < sum(gathered) <= 1024


def test_strong_maximal_gathers_a_constant_grid_in_bounded_chunks():
    # on a constant grid every shape is kept at every start; gathered in
    # chunks of at most 128 KiB a 16 x 16 call peaks near 0.88 MiB under
    # tracemalloc, and with each row width's starts copied at once near
    # 1.17 MiB
    import tracemalloc

    f = _grid(np.full((16, 16), 0.1))
    strong_maximal(f)  # first-call allocations are not the engine's
    tracemalloc.start()
    try:
        strong_maximal(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.05 * 2**20, peak / 2**20


def test_strong_maximal_deficit_is_zero_on_64x64():
    # carried window sums of |f| >= 0 reproduce every one-cell window exactly,
    # so the maximal function never drops below |f|
    axis = build_axis(6)
    f = rand_f(np.random.default_rng(4), axis, axis)
    assert np.max(np.abs(f.values) - strong_maximal(f).values) <= 0.0


LARGE_RNG = np.random.default_rng(5)
LARGE_GRIDS = {
    "random-16x32": LARGE_RNG.normal(size=(16, 32)),
    "random-32x16": LARGE_RNG.normal(size=(32, 16)),
    # a rotated copy of a full circle sums in another order: at 4 x 128 one
    # of them rounds above the start-0 copy at a cell it sets
    "ties-0.1-0.2-0.3-8x128": LARGE_RNG.choice((0.1, 0.2, 0.3), size=(8, 128)),
    "ties-0.1-0.2-0.3-128x8": LARGE_RNG.choice((0.1, 0.2, 0.3), size=(128, 8)),
    "ties-0.1-0.2-0.3-4x128": LARGE_RNG.choice((0.1, 0.2, 0.3), size=(4, 128)),
    "one-dip-1x512": _one_dip((1, 512)),
    "one-dip-512x1": _one_dip((512, 1)),
    "constant-0.1-32x32": np.full((32, 32), 0.1),
}


def _window_max(m, w, axis):
    """``out[x] = max m[x - w + 1 .. x]`` along ``axis`` with wrap-around, as
    the max of each length-w window of a wrapped copy."""
    pad = [(0, 0)] * m.ndim
    pad[axis] = (w - 1, 0)
    windows = np.lib.stride_tricks.sliding_window_view(np.pad(m, pad, "wrap"), w, axis)
    return windows.max(axis=-1)


def test_strong_maximal_above_gather_size_matches_per_shape_spread():
    # above 256 cells the carried means are the answer; spreading each
    # shape's reference means on its own, along both axes, must give the
    # same bits as the engine's grouped spread (strong_maximal_brute is too
    # slow at these sizes)
    for kind, values in LARGE_GRIDS.items():
        a = np.abs(values)
        want = np.zeros_like(a)
        for (w1, w2), means in carried_means_reference(a).items():
            scores = np.broadcast_to(means, a.shape)
            np.maximum(want, _window_max(_window_max(scores, w2, 1), w1, 0), out=want)
        assert np.array_equal(strong_maximal(_grid(values)).values, want), kind


@settings(max_examples=25, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 12), st.integers(1, 12)),
    axis_index=st.sampled_from([0, 1]),
    repeat_axis=st.sampled_from([None, 0, 1]),
    seed=st.integers(0, 2**32 - 1),
)
@example(shape=(1, 5), axis_index=0, repeat_axis=None, seed=0)
@example(shape=(6, 1), axis_index=1, repeat_axis=None, seed=0)
@example(shape=(8, 8), axis_index=1, repeat_axis=1, seed=0)
def test_trailing_max_matches_rolled_max(shape, axis_index, repeat_axis, seed):
    m = np.random.default_rng(seed).normal(size=shape)
    if repeat_axis is not None:
        # a read-only view repeating one line, as a full-circle side gives
        m = np.broadcast_to(m[:1] if repeat_axis == 0 else m[:, :1], shape)
    for w in range(1, shape[axis_index] + 1):
        got = _trailing_max(m, w, axis_index)
        assert np.array_equal(got, trailing_max_brute(m, w, axis_index)), w


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(1, 40),
    other=st.integers(1, 6),
    axis_index=st.sampled_from([0, 1]),
    seed=st.integers(0, 2**32 - 1),
    first=st.integers(1, 20),
)
@example(n=5, other=1, axis_index=1, seed=0, first=1)
@example(n=33, other=3, axis_index=0, seed=0, first=1)
@example(n=40, other=2, axis_index=1, seed=0, first=7)
def test_widest_containing_matches_per_width_rolled_max(n, other, axis_index, seed, first):
    # widths first .. n, up to 40 of them: two full chunks of widths and a
    # partial one, or a group of row widths that starts past width 1
    first = min(first, n)
    shape = (n, other) if axis_index == 0 else (other, n)
    rng = np.random.default_rng(seed)
    means = [rng.uniform(size=shape) for _ in range(first, n + 1)]
    # the full-width means count one start, the others read 0, as the fold
    # means do
    np.moveaxis(means[-1], axis_index, 0)[1:] = 0
    want = np.zeros(shape)
    for w, m in enumerate(means, first):
        np.maximum(want, trailing_max_brute(m, w, axis_index), out=want)
    assert np.array_equal(_widest_containing(iter(means), axis_index, first), want)


def test_strong_maximal_rejects_one_axis():
    axis = build_axis(3)
    with pytest.raises(ShapeError):
        strong_maximal(grid_function(np.ones(axis.n_cells), axis))


# -- fractional maximal ---------------------------------------------------


def test_frac_maximal_constant_attained_at_whole_torus():
    # for f = 1 the score at scale k is 2**(k*(lam-1)), maximal at k = 0
    axis = build_axis(5)
    f = grid_function(np.ones(axis.n_cells), axis)
    out = frac_maximal(f, DyadicSystem(axis, 0), 0.4)
    assert np.allclose(out.values, 1.0, rtol=1e-14)


def test_frac_maximal_homogeneous():
    axis = build_axis(4)
    rng = np.random.default_rng(7)
    f = rand_f(rng, axis)
    system = DyadicSystem(axis, 5)
    a = frac_maximal(f, system, 0.5).values
    b = frac_maximal(f.with_values(2.0 * f.values), system, 0.5).values
    assert np.allclose(b, 2.0 * a, rtol=1e-14)


def test_frac_maximal_lambda_validation():
    axis = build_axis(3)
    f = grid_function(np.ones(axis.n_cells), axis)
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
        frac_maximal_domination(grid_function(np.zeros(8), axis), DyadicSystem(axis, 0), 0.5)


def test_frac_maximal_domination_is_the_grid_max_of_its_ratio():
    axis = build_axis(5)
    f = rand_f(np.random.default_rng(9), axis)
    smooth = frac_integral(f.with_values(np.abs(f.values)), 0.4).values
    for offset in _offsets(axis.n_cells):
        system = DyadicSystem(axis, offset)
        want = np.max(frac_maximal(f, system, 0.4).values / smooth)
        assert frac_maximal_domination(f, system, 0.4) == want


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
        f = f.with_values(f.values - f.mean())
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
    f = f.with_values(f.values - level_average(f, sys1, 0, axis_index=1).values)
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
    one = grid_function(np.ones(axis.n_cells), axis)
    two = grid_function(np.ones((axis.n_cells, axis.n_cells)), axis, axis)
    system = DyadicSystem(axis, 0)
    with pytest.raises(ShapeError):
        square_function(two, system, "sole")
    with pytest.raises(ShapeError):
        square_function(one, system, "axis1")
    with pytest.raises(ParameterError):
        square_function(two, system, "rect")
    with pytest.raises(ParameterError):
        square_function(two, (system, system), "spiral")
    wide = grid_function(np.ones((8, 16)), axis, build_axis(4))
    for level in (4, 3):  # each pair misses one axis of the 8 x 16 grid
        pair = (DyadicSystem(build_axis(level), 0),) * 2
        with pytest.raises(SystemMismatchError):
            square_function(wide, pair, "rect")


def _offsets(n):
    return sorted({0, 1, n // 2, n - 1})


@pytest.mark.parametrize("L", range(1, 9))
def test_one_axis_multiscale_paths_match_stack_formulas_bitwise(L):
    axis = build_axis(L)
    f = rand_f(np.random.default_rng(L), axis)
    a = np.abs(f.values)
    for offset, lam in itertools.product(_offsets(axis.n_cells), (0.3, 0.75)):
        system = DyadicSystem(axis, offset)
        want = square_function_reference(f.values, ((0, offset),))
        assert np.array_equal(square_function(f, system, "sole").values, want)
        scales = np.array([2.0 ** (k * (lam - 1.0)) for k in range(L + 1)])
        want = level_scale_reference(a, 0, offset, scales, np.maximum)
        assert np.array_equal(frac_maximal(f, system, lam).values, want)
        majorant = level_scale_reference(a, 0, offset, scales, np.add)
        want = np.max(majorant / frac_integral(f.with_values(a), lam).values)
        assert domination_ratio(f, lam, system) == want


@pytest.mark.parametrize("L2", range(1, 7))
@pytest.mark.parametrize("L1", range(1, 7))
def test_two_axis_multiscale_paths_match_stack_formulas_bitwise(L1, L2):
    ax1, ax2 = build_axis(L1), build_axis(L2)
    f = rand_f(np.random.default_rng(8 * L1 + L2), ax1, ax2)
    offsets = zip(_offsets(ax1.n_cells), reversed(_offsets(ax2.n_cells)))
    for o1, o2 in offsets:
        pair = (DyadicSystem(ax1, o1), DyadicSystem(ax2, o2))
        want = square_function_reference(f.values, ((0, o1), (1, o2)))
        assert np.array_equal(square_function(f, pair, "rect").values, want)
        for mode, pos, offset in (("axis1", 0, o1), ("axis2", 1, o2)):
            want = square_function_reference(f.values, ((pos, offset),))
            assert np.array_equal(square_function(f, pair, mode).values, want)


# -- mixed norms ----------------------------------------------------------


def test_mixed_norm_constant_unweighted():
    axis = build_axis(3)
    f = grid_function(np.ones((axis.n_cells, axis.n_cells)), axis, axis)
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
    scaled, total = f.with_values(-3.0 * f.values), f.with_values(f.values + g.values)
    assert mixed_norm(scaled, 1.5, 4.0) == pytest.approx(3.0 * n, rel=1e-13)
    assert mixed_norm(total, 1.5, 4.0) <= mixed_norm(f, 1.5, 4.0) + mixed_norm(
        g, 1.5, 4.0
    ) + 1e-12


@pytest.mark.parametrize(
    "levels, p1, p2",
    (((3, 5), 4 / 3, 3.0), ((5, 2), 2.5, 1.25), ((4, 4), 1.0, 6.0)),
    ids=("8x32", "32x4", "16x16"),
)
def test_mixed_norm_matches_the_loop_oracle_off_diagonal(levels, p1, p2):
    # the inner norm runs over the first axis with w1 and the outer over the
    # second with w2; with p1 != p2 and non-constant weights, exchanging the
    # axes, the exponents or the weights moves the norm far beyond rounding.
    # Both sides sum nonnegative terms in their own orders, and each sum or
    # power is within a few eps per term of exact (Higham, 2002, sec. 4.2),
    # so the two agree within (n1 + n2 + 8) eps relative; the bound is 4 times
    # that
    ax1, ax2 = build_axis(levels[0]), build_axis(levels[1])
    rng = np.random.default_rng(sum(levels))
    f = rand_f(rng, ax1, ax2)
    w1 = Weight(grid_function(rng.uniform(0.2, 5.0, ax1.n_cells), ax1))
    w2 = Weight(grid_function(rng.uniform(0.2, 5.0, ax2.n_cells), ax2))
    bound = 4 * (ax1.n_cells + ax2.n_cells + 8) * np.finfo(float).eps
    for u1, u2 in ((w1, w2), (None, w2), (w1, None), (None, None)):
        got = mixed_norm(f, p1, p2, u1, u2)
        densities = (None if u is None else u.values for u in (u1, u2))
        want = mixed_norm_brute(f.values, p1, p2, *densities)
        assert abs(got - want) <= bound * want


def test_mixed_norm_validation():
    axis = build_axis(3)
    f = grid_function(np.ones((axis.n_cells, axis.n_cells)), axis, axis)
    with pytest.raises(ParameterError):
        mixed_norm(f, 0.5, 2.0)
    with pytest.raises(ParameterError):
        mixed_norm(f, 2.0, 0.99)
    with pytest.raises(ParameterError):
        mixed_norm(f, float("nan"), 2.0)
    with pytest.raises(ShapeError):
        mixed_norm(grid_function(np.ones(axis.n_cells), axis), 2.0, 2.0)
    with pytest.raises(ShapeError):
        mixed_norm(f, 2.0, 2.0, w1=ones_weight(build_axis(4)))


# -- product BMO ----------------------------------------------------------


@pytest.mark.parametrize(
    "mask", (np.ones((8, 8), dtype=int), np.ones(8, dtype=bool)), ids=("int", "one-axis")
)
def test_omega_family_takes_two_axis_boolean_masks_only(mask):
    with pytest.raises(ParameterError, match="shapes must be two-axis boolean masks"):
        OmegaFamily((mask,))


def test_bmo_prod_rejects_a_mask_of_another_grid():
    axis = build_axis(3)
    pair = (DyadicSystem(axis, 0), DyadicSystem(axis, 0))
    w = ProductWeight(ones_weight(axis), ones_weight(axis))
    family = OmegaFamily((np.ones((4, 4), dtype=bool),))
    with pytest.raises(ShapeError, match="shape mask does not match the grid"):
        bmo_prod_norm(grid_function(np.ones((8, 8)), axis, axis), w, pair, family)


@pytest.mark.parametrize("L1, L2", ((1, 1), (3, 2), (2, 4)))
def test_default_family_holds_the_whole_square_once(L1, L2):
    # the whole square is the rectangle of the two level-0 cubes, one of the
    # coefficient-carrying rectangles, and is not added a second time
    pair = (DyadicSystem(build_axis(L1), 1), DyadicSystem(build_axis(L2), 0))
    shapes = default_omega_family(*pair).shapes
    assert len(shapes) == ((1 << L1) - 1) * ((1 << L2) - 1)
    assert sum(mask.all() for mask in shapes) == 1
    assert len(default_omega_family(*pair, lshapes=3).shapes) == len(shapes) + 3


def test_bmo_prod_constant_is_zero():
    axis = build_axis(3)
    pair = (DyadicSystem(axis, 0), DyadicSystem(axis, 5))
    w = ProductWeight(ones_weight(axis), ones_weight(axis))
    b = grid_function(np.full((axis.n_cells, axis.n_cells), 4.0), axis, axis)
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
    for (L1, off1), (L2, off2) in (
        ((3, 2), (3, 5)),
        ((4, 7), (4, 0)),
        ((2, 1), (4, 9)),
        ((4, 3), (3, 6)),
    ):
        ax1, ax2 = build_axis(L1), build_axis(L2)
        pair = (DyadicSystem(ax1, off1), DyadicSystem(ax2, off2))
        b = rand_f(rng, ax1, ax2)
        w = ProductWeight(
            Weight(grid_function(rng.uniform(0.5, 2.0, ax1.n_cells), ax1)),
            Weight(grid_function(rng.uniform(0.5, 2.0, ax2.n_cells), ax2)),
        )
        slow = bmo_prod_norm(b, w, pair, default_omega_family(*pair))
        fast = bmo_prod_rect_norm(b, w, pair)
        assert abs(fast - slow) <= 1e-11 * slow


def test_bmo_prod_validation():
    axis = build_axis(3)
    pair = (DyadicSystem(axis, 0), DyadicSystem(axis, 0))
    w = ProductWeight(ones_weight(axis), ones_weight(axis))
    b = grid_function(np.ones((axis.n_cells, axis.n_cells)), axis, axis)
    with pytest.raises(ParameterError):
        OmegaFamily(())
    with pytest.raises(ParameterError):
        OmegaFamily((np.zeros((8, 8), dtype=bool),))
    with pytest.raises(ShapeError):
        bmo_prod_norm(grid_function(np.ones(axis.n_cells), axis), w, pair)
    with pytest.raises(ParameterError):
        bmo_prod_norm(b, w, pair[0])


def test_bmo_prod_rect_norm_validation():
    from dyadica.analysis import bmo_prod_rect_norm

    ax3, ax4 = build_axis(3), build_axis(4)
    pair = (DyadicSystem(ax3, 0), DyadicSystem(ax3, 0))
    b = grid_function(np.ones((ax3.n_cells, ax3.n_cells)), ax3, ax3)
    for other in ((ax4, ax4), (ax3, ax4), (ax4, ax3)):
        w = ProductWeight(*(ones_weight(ax) for ax in other))
        with pytest.raises(ShapeError):
            bmo_prod_rect_norm(b, w, pair)
    w = ProductWeight(ones_weight(ax3), ones_weight(ax3))
    with pytest.raises(ShapeError):
        bmo_prod_rect_norm(grid_function(np.ones(ax3.n_cells), ax3), w, pair)
    with pytest.raises(SystemMismatchError):
        bmo_prod_rect_norm(b, w, (DyadicSystem(ax4, 0), pair[1]))
    with pytest.raises(ParameterError):
        bmo_prod_rect_norm(b, w, pair[0])


@pytest.mark.parametrize("powers", [False, True])
def test_rect_weight_means_match_brute_rectangle_means(powers):
    # the tensor weight's rectangle means, as products of its factors' cube
    # means, against cube-by-cube means of the full n1 x n2 weight
    rng = np.random.default_rng(21)
    for L1, L2 in ((2, 4), (6, 2), (3, 3)):
        ax1, ax2 = build_axis(L1), build_axis(L2)
        n1, n2 = ax1.n_cells, ax2.n_cells
        if powers:
            w = ProductWeight(power_weight(ax1, -0.4, 0.3), power_weight(ax2, 0.5, 0.8))
        else:
            w = ProductWeight(
                Weight(grid_function(rng.uniform(0.1, 10.0, n1), ax1)),
                Weight(grid_function(rng.uniform(0.1, 10.0, n2), ax2)),
            )
        W = np.outer(w.factor1.values, w.factor2.values)
        for off1, off2 in ((0, 0), (1, n2 - 1), (n1 - 1, 1)):
            pair = (DyadicSystem(ax1, off1), DyadicSystem(ax2, off2))
            means = _rect_weight_means(w, *pair)
            assert abs(means[1, 1] - W.mean()) <= 1e-14 * W.mean()
            assert means.shape == (2 * n1, 2 * n2)
            for k1 in range(L1):
                for k2 in range(L2):
                    got = means[1 << k1 : 2 << k1, 1 << k2 : 2 << k2]
                    assert got.shape == (1 << k1, 1 << k2)
                    for m1 in range(1 << k1):
                        rows = cube_cells(n1, k1, m1, off1)
                        for m2 in range(1 << k2):
                            cols = cube_cells(n2, k2, m2, off2)
                            ref = W[np.ix_(rows, cols)].mean()
                            assert abs(got[m1, m2] - ref) <= 1e-14 * ref


# -- duality --------------------------------------------------------------
# the pairing <b, phi> against the BMO lower bound of b times the weighted L1
# norm of phi's rectangular square function


def _duality(b, phi, w, pair):
    """(pairing, bmo_norm, square_l1) of the duality inequality."""
    square_l1 = inner_product(square_function(phi, pair, "rect"), w.evaluate())
    return inner_product(b, phi), bmo_prod_norm(b, w, pair), square_l1


def test_duality_single_tensor_haar_ratio_one():
    axis = build_axis(3)
    pair = (DyadicSystem(axis, 1), DyadicSystem(axis, 5))
    w = ProductWeight(ones_weight(axis), ones_weight(axis))
    b = tensor_haar(*pair, 1, 1, 1, 0)
    pairing, bmo, square_l1 = _duality(b, b, w, pair)
    assert pairing == pytest.approx(1.0, rel=1e-12)
    # bmo = (|I||J|)**(-1/2) and ||S b||_{L1} = (|I||J|)**(1/2)
    assert bmo * square_l1 == pytest.approx(1.0, rel=1e-10)


def test_duality_zero_pairing_for_mean_type_b():
    axis = build_axis(3)
    pair = (DyadicSystem(axis, 0), DyadicSystem(axis, 2))
    w = ProductWeight(ones_weight(axis), ones_weight(axis))
    rng = np.random.default_rng(16)
    # b depends only on the first variable: all rectangle coefficients vanish
    b = grid_function(np.outer(rng.normal(size=8), np.ones(8)), axis, axis)
    phi = tensor_haar(*pair, 1, 0, 2, 2)
    pairing, bmo, square_l1 = _duality(b, phi, w, pair)
    assert abs(pairing) <= 1e-14
    assert bmo <= 1e-13
    assert square_l1 > 0.0


def test_duality_flags_unseen_mean_component():
    # a constant pairs with itself, but the restricted family sees no
    # rectangle coefficient of it: the bound's two factors vanish
    axis = build_axis(3)
    pair = (DyadicSystem(axis, 0), DyadicSystem(axis, 0))
    w = ProductWeight(ones_weight(axis), ones_weight(axis))
    one = grid_function(np.ones((8, 8)), axis, axis)
    pairing, bmo, square_l1 = _duality(one, one, w, pair)
    assert pairing == 1.0
    assert bmo == 0.0 and square_l1 == 0.0


def test_duality_random_ensemble_finite():
    axis = build_axis(3)
    rng = np.random.default_rng(17)
    pair = (DyadicSystem(axis, 2), DyadicSystem(axis, 6))
    w = ProductWeight(ones_weight(axis), ones_weight(axis))
    ratios = []
    for _ in range(20):
        pairing, bmo, square_l1 = _duality(rand_f(rng, axis, axis), rand_f(rng, axis, axis), w, pair)
        if bmo * square_l1 > 0.0:
            ratios.append(abs(pairing) / (bmo * square_l1))
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
        x = midpoints(axis)
        fs = [grid_function([[p(a, b) for b in x] for a in x], axis, axis) for p in profiles]
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
