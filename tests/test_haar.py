import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dyadica import dyadic, errors, grid, haar

import oracles


def offset0(L):
    return dyadic.DyadicSystem(grid.build_axis(L), 0)


# ---------------------------------------------------------------------------
# Haar functions


def test_haar_unit_interval_values():
    sys = offset0(3)
    hf = haar.haar_function(sys.cube(0, 0))
    assert np.array_equal(hf.values, [1, 1, 1, 1, -1, -1, -1, -1])


def test_haar_zero_mean_unit_norm():
    for off in (0, 11):
        sys = dyadic.DyadicSystem(grid.build_axis(4), off)
        for k in range(4):
            for m in range(1 << k):
                hf = haar.haar_function(sys.cube(k, m))
                assert hf.mean() == 0.0
                assert abs(grid.l2_norm(hf) - 1.0) < 1e-14


def test_haar_pairs_with_identity():
    # cell averages of x are the midpoints, and the pairing is exact
    ax = grid.build_axis(6)
    f = grid.tabulate_midpoint(lambda x: x, ax)
    hf = haar.haar_function(offset0(6).cube(0, 0))
    assert grid.inner_product(f, hf) == -0.25


def test_haar_finest_level_raises():
    sys = offset0(4)
    with pytest.raises(errors.ResolutionError):
        haar.haar_function(sys.cube(4, 3))


def test_haar_matches_oracle(rng):
    for _ in range(25):
        L = int(rng.integers(2, 7))
        n = 1 << L
        off = int(rng.integers(n))
        sys = dyadic.DyadicSystem(grid.build_axis(L), off)
        k = int(rng.integers(L))
        m = int(rng.integers(1 << k))
        got = haar.haar_function(sys.cube(k, m)).values
        want = oracles.haar_vector(n, k, m, off)
        assert np.array_equal(got, want)


def test_haar_matrix_brute_matches_haar_function():
    # the transform tests' oracle, pinned bit for bit to the Haar steps and
    # to the library's dense reference at every level up to L = 10
    for L in range(1, 11):
        n = 1 << L
        for off in sorted({0, 1, n - 1, (n // 3) | 1}):
            sys = dyadic.DyadicSystem(grid.build_axis(L), off)
            H = oracles.haar_matrix_brute(sys)
            assert np.array_equal(H[:, 0], np.ones(n))
            for k in range(L):
                for m in range(1 << k):
                    want = haar.haar_function(sys.cube(k, m)).values
                    assert np.array_equal(H[:, (1 << k) + m], want)
            assert np.array_equal(haar.haar_matrix.__wrapped__(sys), H)


def test_haar_matrix_orthonormal():
    for L, off in [(3, 0), (5, 9), (8, 100)]:
        sys = dyadic.DyadicSystem(grid.build_axis(L), off)
        H = haar.haar_matrix(sys)
        gram = sys.axis.h * H.T @ H
        assert np.max(np.abs(gram - np.eye(1 << L))) < 1e-12


def test_haar_matrix_columns_match_functions():
    for L, off in [(4, 6), (1, 0), (1, 1), (7, 100)]:
        sys = dyadic.DyadicSystem(grid.build_axis(L), off)
        H = haar.haar_matrix(sys)
        assert np.array_equal(H[:, 0], np.ones(1 << L))
        for k in range(L):
            for m in range(1 << k):
                cube = sys.cube(k, m)
                col = haar.basis_column(cube)
                assert np.array_equal(H[:, col], haar.haar_function(cube).values)


def test_column_cubes_inverts_basis_column():
    for L, off in [(4, 6), (1, 0), (1, 1), (7, 100)]:
        sys = dyadic.DyadicSystem(grid.build_axis(L), off)
        level, cell = haar.column_cubes(np.arange(1 << L), sys)
        assert (level[0], cell[0]) == (-1, off)
        for k in range(L):
            for m in range(1 << k):
                cube = sys.cube(k, m)
                col = haar.basis_column(cube)
                assert (level[col], cell[col]) == (k, cube.start_cell)


@settings(deadline=None, max_examples=40)
@given(
    L=st.integers(1, 10),
    off=st.integers(0, (1 << 10) - 1),
    two_axis=st.booleans(),
    pos=st.integers(0, 1),
    seed=st.integers(0, 2**32 - 1),
)
@example(L=10, off=1023, two_axis=True, pos=1, seed=0)
@example(L=1, off=1, two_axis=False, pos=0, seed=1)
def test_transform_pair_matches_dense_haar_matrix(L, off, two_axis, pos, seed):
    n = 1 << L
    sys = dyadic.DyadicSystem(grid.build_axis(L), off % n)
    if not two_axis:
        pos = 0
    shape = ((n, 3) if pos == 0 else (5, n)) if two_axis else (n,)
    x = np.random.default_rng(seed).standard_normal(shape)
    kept = x.copy()
    x.setflags(write=False)
    # the dense reference built cube by cube, not from the transforms
    H = oracles.haar_matrix_brute(sys)
    h = sys.axis.h
    if pos == 0:
        want_a, want_s = h * (H.T @ x), H @ x
    else:
        want_a, want_s = h * (x @ H), x @ H.T

    def close(got, want):
        return np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    coeffs = haar.haar_analyze(x, sys, pos)
    assert close(coeffs, want_a)
    assert close(haar.haar_synthesize(x, sys, pos), want_s)
    assert close(haar.haar_synthesize(coeffs, sys, pos), x)
    assert np.array_equal(x, kept)


def test_transform_rejects_length_mismatch():
    sys = offset0(3)
    with pytest.raises(errors.ShapeError):
        haar.haar_analyze(np.zeros((8, 4)), sys, 1)
    with pytest.raises(errors.ShapeError):
        haar.haar_synthesize(np.zeros(16), sys)


@pytest.mark.parametrize("off", (0, 5))
def test_transform_negative_position_counts_from_the_back(off):
    # a 4 x 8 array along -1 used to reach numpy's reshape ValueError
    sys = dyadic.DyadicSystem(grid.build_axis(3), off)
    short = dyadic.DyadicSystem(grid.build_axis(2), off % 4)
    x = np.random.default_rng(off).normal(size=(4, 8))
    stack = np.random.default_rng(off + 1).normal(size=(2, 8, 8))
    for transform in (haar.haar_analyze, haar.haar_synthesize):
        assert np.array_equal(transform(x, sys, -1), transform(x, sys, 1))
        assert np.array_equal(transform(x.T, sys, -2), transform(x.T, sys, 0))
        assert np.array_equal(transform(x, short, -2), transform(x, short, 0))
        assert np.array_equal(transform(stack, sys, -2), transform(stack, sys, 1))
        for pos in (2, -3):
            with pytest.raises(errors.ShapeError):
                transform(x, sys, pos)


def test_stationary_table_holds_every_lattice_bit_for_bit():
    # U[k, x] is the coefficient of the level-k cube starting at cell x, from
    # the same additions as the transform, so every lattice's coefficients
    # are a strided read of the one table
    rng = np.random.default_rng(27)
    for L in range(1, 11):
        ax = grid.build_axis(L)
        n = ax.n_cells
        x = rng.standard_normal(n)
        U = haar._stationary_analyze(x, ax)
        assert U.shape == (L, n)
        # lines stacked on leading axes are transformed one by one
        assert np.array_equal(haar._stationary_analyze(np.stack((-x, x)), ax)[1], U)
        offsets = range(n) if L <= 8 else [1, n - 1, *rng.choice(n, 12, replace=False)]
        for off in offsets:
            coeffs = haar.haar_analyze(x, dyadic.DyadicSystem(ax, int(off)))
            for k in range(L):
                cells = (off + np.arange(1 << k) * (n >> k)) % n
                assert np.array_equal(coeffs[1 << k : 2 << k], U[k, cells])


# ---------------------------------------------------------------------------
# expansion: one parameter


def test_expand_single_step():
    sys = dyadic.DyadicSystem(grid.build_axis(5), 7)
    K = sys.cube(2, 3)
    cmap = haar.haar_expand(haar.haar_function(K), sys)
    col = haar.basis_column(K)
    assert abs(cmap.coeffs[col] - 1.0) < 1e-14
    assert cmap.mean == 0.0
    others = np.delete(cmap.coeffs, [0, col])
    assert np.max(np.abs(others)) < 1e-14


def test_expand_constant():
    sys = offset0(4)
    cmap = haar.haar_expand(grid.constant_function(1.0, sys.axis), sys)
    assert abs(cmap.mean - 1.0) < 1e-14
    assert all(abs(v) < 1e-14 for v in cmap.coeffs[1:])


def test_expand_plancherel_and_reconstruction(rng):
    ax = grid.build_axis(6)
    for _ in range(20):
        sys = dyadic.sample_system(ax, seed=int(rng.integers(1 << 30)))
        f = grid.grid_function(rng.standard_normal(64), ax)
        cmap = haar.haar_expand(f, sys)
        assert abs(cmap.energy() - grid.l2_norm(f) ** 2) < 1e-12
        assert np.max(np.abs(cmap.reconstruct().values - f.values)) < 1e-12


def test_expand_system_mismatch():
    sys = offset0(4)
    f = grid.constant_function(1.0, grid.build_axis(5))
    with pytest.raises(errors.SystemMismatchError):
        haar.haar_expand(f, sys)


def test_expand_axis_count_mismatch():
    ax = grid.build_axis(3)
    f2 = grid.constant_function(1.0, ax, ax)
    with pytest.raises(errors.ShapeError):
        haar.haar_expand(f2, offset0(3))
    f1 = grid.constant_function(1.0, ax)
    with pytest.raises(errors.ShapeError):
        haar.haar_expand(f1, offset0(3), offset0(3))


@settings(deadline=None, max_examples=40)
@given(
    off=st.integers(0, 15),
    vals=st.lists(
        st.floats(-1e6, 1e6, allow_nan=False), min_size=16, max_size=16
    ),
)
def test_expand_roundtrip_property(off, vals):
    ax = grid.build_axis(4)
    sys = dyadic.DyadicSystem(ax, off)
    f = grid.grid_function(vals, ax)
    back = haar.haar_expand(f, sys).reconstruct()
    scale = max(1.0, float(np.max(np.abs(f.values))))
    assert np.max(np.abs(back.values - f.values)) < 1e-12 * scale


# ---------------------------------------------------------------------------
# expansion: two parameters


def test_bi_expand_tensor_step():
    sys1 = dyadic.DyadicSystem(grid.build_axis(4), 3)
    sys2 = dyadic.DyadicSystem(grid.build_axis(3), 5)
    I = sys1.cube(1, 1)
    J = sys2.cube(2, 0)
    f = grid.grid_function(
        np.outer(haar.haar_function(I).values, haar.haar_function(J).values),
        sys1.axis,
        sys2.axis,
    )
    cmap = haar.haar_expand(f, sys1, sys2)
    row, col = haar.basis_column(I), haar.basis_column(J)
    assert abs(cmap.coeffs[row, col] - 1.0) < 1e-14
    assert cmap.mean == 0.0
    rest = cmap.coeffs[1:, 1:].copy()
    rest[row - 1, col - 1] = 0.0
    assert np.max(np.abs(rest)) < 1e-13
    assert all(abs(v) < 1e-13 for v in cmap.coeffs[0, 1:])
    assert all(abs(v) < 1e-13 for v in cmap.coeffs[1:, 0])


def test_bi_expand_constant_in_first_axis(rng):
    sys1 = offset0(3)
    sys2 = dyadic.DyadicSystem(grid.build_axis(4), 9)
    g = rng.standard_normal(16)
    f = grid.grid_function(np.outer(np.ones(8), g), sys1.axis, sys2.axis)
    cmap = haar.haar_expand(f, sys1, sys2)
    # everything lives in the axis-1 mean entries (+ grand mean)
    assert np.max(np.abs(cmap.coeffs[1:, 1:])) < 1e-13
    assert np.max(np.abs(cmap.coeffs[1:, 0])) < 1e-13
    energy = cmap.mean**2 + sum(v**2 for v in cmap.coeffs[0, 1:])
    assert abs(energy - grid.l2_norm(f) ** 2) < 1e-12


def test_bi_expand_plancherel_and_reconstruction(rng):
    ax1 = grid.build_axis(4)
    ax2 = grid.build_axis(3)
    for _ in range(5):
        sys1 = dyadic.sample_system(ax1, seed=int(rng.integers(1 << 30)))
        sys2 = dyadic.sample_system(ax2, seed=int(rng.integers(1 << 30)))
        f = grid.grid_function(rng.standard_normal((16, 8)), ax1, ax2)
        cmap = haar.haar_expand(f, sys1, sys2)
        assert abs(cmap.energy() - grid.l2_norm(f) ** 2) < 1e-12
        assert np.max(np.abs(cmap.reconstruct().values - f.values)) < 1e-12


# ---------------------------------------------------------------------------
# averaging projections


def test_average_project_constant():
    sys = offset0(4)
    I = sys.cube(2, 1)
    out = haar.average_project(grid.constant_function(1.0, sys.axis), I)
    assert np.array_equal(out.values, I.indicator().values)


def test_average_project_kills_own_haar():
    sys = dyadic.DyadicSystem(grid.build_axis(5), 3)
    I = sys.cube(2, 2)
    out = haar.average_project(haar.haar_function(I), I)
    assert np.max(np.abs(out.values)) == 0.0


def test_average_project_identity_on_half():
    ax = grid.build_axis(6)
    sys = offset0(6)
    f = grid.tabulate_midpoint(lambda x: x, ax)
    out = haar.average_project(f, sys.cube(1, 0))
    assert np.allclose(out.values[:32], 0.25)
    assert np.array_equal(out.values[32:], np.zeros(32))


def test_level_average_endpoints(rng):
    ax = grid.build_axis(4)
    sys = dyadic.DyadicSystem(ax, 13)
    f = grid.grid_function(rng.standard_normal(16), ax)
    assert np.array_equal(haar.level_average(f, sys, 4).values, f.values)
    glob = haar.level_average(f, sys, 0)
    assert np.allclose(glob.values, f.values.mean())


# ---------------------------------------------------------------------------
# martingale blocks


@settings(deadline=None, max_examples=30)
@given(
    st.integers(1, 6),
    st.integers(1, 6),
    st.integers(0, 63),
    st.integers(0, 63),
    st.integers(0, 2**32 - 1),
)
@example(6, 6, 63, 63, 0)
@example(6, 2, 1, 3, 1)
def test_stack_and_table_match_nested_level_average_bitwise(L1, L2, o1, o2, seed):
    a1, a2 = grid.build_axis(L1), grid.build_axis(L2)
    s1 = dyadic.DyadicSystem(a1, o1 % a1.n_cells)
    s2 = dyadic.DyadicSystem(a2, o2 % a2.n_cells)
    vals = np.random.default_rng(seed).normal(size=(a1.n_cells, a2.n_cells))
    f = grid.grid_function(vals, a1, a2)
    for axis_index, s in ((1, s1), (2, s2)):
        stack = haar.expectation_stack(f, s, axis_index)
        assert stack.shape == (s.axis.level + 1,) + vals.shape
        for k in range(s.axis.level + 1):
            ref = haar.level_average(f, s, k, axis_index).values
            assert np.array_equal(stack[k], ref)
    row = grid.grid_function(vals[:, 0], a1)
    stack = haar.expectation_stack(row, s1)
    for k in range(L1 + 1):
        assert np.array_equal(stack[k], haar.level_average(row, s1, k).values)
    table = haar.rectangle_table(f, s1, s2)
    assert table.shape == (L1 + 1, L2 + 1) + vals.shape
    for k1 in range(L1 + 1):
        g = haar.level_average(f, s1, k1, axis_index=1)
        for k2 in range(L2 + 1):
            ref = haar.level_average(g, s2, k2, axis_index=2).values
            assert np.array_equal(table[k1, k2], ref)


def test_rectangle_table_checks_both_systems_before_any_stack(monkeypatch):
    s = offset0(3)
    f = grid.grid_function(np.ones((8, 8)), s.axis, s.axis)

    def no_work(*args):
        raise AssertionError("a stack was built before the second system was checked")

    monkeypatch.setattr(haar, "_spread", no_work)
    with pytest.raises(errors.SystemMismatchError):
        haar.rectangle_table(f, s, offset0(4))


def _offset(kind, n):
    return {"zero": 0, "one": 1 % n, "last": n - 1, "half": n // 2}[kind]


@settings(max_examples=28, deadline=None)
@given(
    st.integers(1, 7),
    st.integers(1, 7),
    st.sampled_from(("zero", "one", "last", "half")),
    st.sampled_from(("zero", "one", "last", "half")),
    st.integers(0, 2**32 - 1),
)
@example(7, 7, "last", "half", 0)
@example(1, 7, "one", "last", 1)
def test_pyramid_matches_rectangle_table_at_start_cells(L1, L2, kind1, kind2, seed):
    # numpy picks its summation order from the layout, so the pyramid's
    # block sums must be taken as the rectangle table takes them
    a1, a2 = grid.build_axis(L1), grid.build_axis(L2)
    s1 = dyadic.DyadicSystem(a1, _offset(kind1, a1.n_cells))
    s2 = dyadic.DyadicSystem(a2, _offset(kind2, a2.n_cells))
    vals = np.random.default_rng(seed).normal(size=(a1.n_cells, a2.n_cells))
    R = haar._pyramid(vals, s1, s2)
    assert R.shape == (2 * a1.n_cells, 2 * a2.n_cells)
    assert not R[0].any() and not R[:, 0].any()
    T = haar.rectangle_table(grid.grid_function(vals, a1, a2), s1, s2)
    # the reference table, nested stacks with the second axis's levels leading
    ref = oracles.expectation_stack_reference(vals, 0, s1.offset_cells, range(L1 + 1))
    ref = oracles.expectation_stack_reference(ref, 2, s2.offset_cells, range(L2 + 1))
    ref = ref.swapaxes(0, 1)
    assert np.array_equal(T, ref)
    level1, start1 = haar.column_cubes(np.arange(1, 2 * a1.n_cells), s1)
    level2, start2 = haar.column_cubes(np.arange(1, 2 * a2.n_cells), s2)
    want = ref[level1[:, None], level2, start1[:, None], start2]
    assert np.array_equal(R[1:, 1:], want)


@pytest.mark.parametrize("pos", (0, 1))
@pytest.mark.parametrize("other", (1, 3, 16))
@pytest.mark.parametrize("n", (16, 64, 256))
def test_stack_matches_rolled_mean_bitwise(n, other, pos):
    # numpy picks its summation order from the layout of the shifted copy,
    # so every offset kind (none, one cell, all but one) is checked
    shape = (n, other) if pos == 0 else (other, n)
    vals = np.random.default_rng(n + other + pos).normal(size=shape)
    L = n.bit_length() - 1
    # a stack of two, as rectangle_table passes the first axis's stack
    cases = ((vals, pos), (np.stack((vals, -vals)), pos + 1))
    for (v, p), offset in itertools.product(cases, (0, 1, n - 1)):
        system = dyadic.DyadicSystem(grid.build_axis(L), offset)
        for levels in (range(L + 1), range(L, L + 1), range(0, 1), range(1, L)):
            got = haar._spread(v, system, p, levels)
            want = oracles.expectation_stack_reference(v, p, offset, levels)
            assert np.array_equal(got, want), (v.ndim, offset, levels)


# heap tables of (L1 = 3 at offset 5, L2 = 5 at offset 17) on both axes of a
# stack, on one axis of a stack, and alone, each as (shape, axes)
_S1 = dyadic.DyadicSystem(grid.build_axis(3), 5)
_S2 = dyadic.DyadicSystem(grid.build_axis(5), 17)
_HEAP_LAYOUTS = {
    "stacked-both": ((3, 16, 64), ((-2, _S1), (-1, _S2))),
    "stacked-one": ((4, 64), ((1, _S2),)),
    "sole": ((16,), ((0, _S1),)),
}


def _same_bits(a, b):
    return a.shape == b.shape and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


@pytest.mark.parametrize("op", (np.add, np.maximum))
@pytest.mark.parametrize("first", (1, 2))
@pytest.mark.parametrize("layout", sorted(_HEAP_LAYOUTS))
def test_chain_sum_matches_repeat_reference_bitwise(layout, first, op):
    # the in-place fold through each level's sibling pairs is the fold of
    # a repeated copy of its parent level, operand for operand
    shape, axes = _HEAP_LAYOUTS[layout]
    P = np.random.default_rng(len(shape) + first).normal(size=shape)
    got = haar._chain_sum(P.copy(), axes, first, op)
    assert _same_bits(got, oracles.chain_sum_reference(P.copy(), axes, first, op))


@pytest.mark.parametrize("layout", sorted(_HEAP_LAYOUTS))
def test_chain_sum_at_offset_zero_overwrites_its_input(layout):
    shape, axes = _HEAP_LAYOUTS[layout]
    axes = tuple((pos, dyadic.DyadicSystem(s.axis, 0)) for pos, s in axes)
    P = np.random.default_rng(0).normal(size=shape)
    want = oracles.chain_sum_reference(P.copy(), axes)
    got = haar._chain_sum(P, axes)
    assert np.shares_memory(got, P)
    assert _same_bits(got, want)


@pytest.mark.parametrize("stack", ((), (2,), (2, 3)))
def test_scale_views_match_fancy_index_reference_bitwise(stack):
    vals = np.random.default_rng(len(stack)).normal(size=stack + (8, 32))
    R = haar._pyramid(vals, _S1, _S2)
    got, want = haar._scale_views(R), oracles.scale_views_reference(R)
    assert got.keys() == want.keys()
    for key in want:
        assert _same_bits(got[key], want[key]), key


def test_block_depth0_matches_oracle(rng):
    ax = grid.build_axis(5)
    for _ in range(10):
        off = int(rng.integers(32))
        sys = dyadic.DyadicSystem(ax, off)
        f = grid.grid_function(rng.standard_normal(32), ax)
        k = int(rng.integers(4))
        m = int(rng.integers(1 << k))
        got = haar.martingale_block(f, sys.cube(k, m), 0)
        want = oracles.martingale_diff_brute(f.values, 32, k, m, off)
        assert np.max(np.abs(got.values - want)) < 1e-13


def test_block_telescoping(rng):
    ax = grid.build_axis(6)
    sys = dyadic.DyadicSystem(ax, 17)
    f = grid.grid_function(rng.standard_normal(64), ax)
    total = np.zeros(64)
    for k in range(6):
        total += haar.level_difference(f, sys, k).values
    assert np.max(np.abs(total + f.values.mean() - f.values)) < 1e-13


def test_block_depth1_child_scale_average_vanishes(rng):
    ax = grid.build_axis(5)
    sys = dyadic.DyadicSystem(ax, 21)
    f = grid.grid_function(rng.standard_normal(32), ax)
    K = sys.cube(1, 0)
    blk = haar.martingale_block(f, K, 1)
    proj = haar.level_average(blk, sys, K.level + 1)
    assert np.max(np.abs(proj.values)) < 1e-13


def test_block_consistency_with_descendant_sum(rng):
    ax = grid.build_axis(6)
    sys = dyadic.DyadicSystem(ax, 5)
    f = grid.grid_function(rng.standard_normal(64), ax)
    for k, i in [(0, 2), (1, 1), (2, 3), (3, 0)]:
        for m in range(1 << k):
            K = sys.cube(k, m)
            got = haar.martingale_block(f, K, i)
            acc = np.zeros(64)
            width = 1 << i
            for d in range(width):
                I = sys.cube(k + i, m * width + d)
                acc += haar.martingale_block(f, I, 0).values
            assert np.max(np.abs(got.values - acc)) < 1e-13


def test_block_depth_overflow():
    sys = offset0(4)
    f = grid.constant_function(1.0, sys.axis)
    with pytest.raises(errors.ResolutionError):
        haar.martingale_block(f, sys.cube(2, 0), 2)


# ---------------------------------------------------------------------------
# rectangle blocks and partial pairing


def _tensor(sys1, sys2, v1, v2):
    return grid.grid_function(np.outer(v1, v2), sys1.axis, sys2.axis)


def test_rect_block_reproduces_tensor_step():
    sys1 = offset0(4)
    sys2 = dyadic.DyadicSystem(grid.build_axis(3), 2)
    I = sys1.cube(2, 1)
    J = sys2.cube(1, 1)
    f = _tensor(sys1, sys2, haar.haar_function(I).values, haar.haar_function(J).values)
    out = haar.rect_block(f, I, J, 0, 0)
    assert np.max(np.abs(out.values - f.values)) < 1e-13


def test_rect_block_kills_constant_factor(rng):
    sys1 = offset0(3)
    sys2 = offset0(3)
    f = _tensor(sys1, sys2, np.ones(8), rng.standard_normal(8))
    out = haar.rect_block(f, sys1.cube(1, 0), sys2.cube(1, 0), 0, 0)
    assert np.max(np.abs(out.values)) < 1e-14


def test_rect_block_full_reconstruction(rng):
    # all rectangle blocks at depth (0, 0) plus the three mixed mean pieces
    ax1 = grid.build_axis(4)
    ax2 = grid.build_axis(4)
    sys1 = dyadic.DyadicSystem(ax1, 11)
    sys2 = dyadic.DyadicSystem(ax2, 6)
    f = grid.grid_function(rng.standard_normal((16, 16)), ax1, ax2)
    total = np.zeros((16, 16))
    for k1 in range(4):
        for m1 in range(1 << k1):
            for k2 in range(4):
                for m2 in range(1 << k2):
                    total += haar.rect_block(
                        f, sys1.cube(k1, m1), sys2.cube(k2, m2), 0, 0
                    ).values
    mean1 = haar.level_average(f, sys1, 0, axis_index=1)
    mean2 = haar.level_average(f, sys2, 0, axis_index=2)
    both = haar.level_average(mean1, sys2, 0, axis_index=2)
    total += mean1.values + mean2.values - both.values
    assert np.max(np.abs(total - f.values)) < 1e-12


def test_partial_pairing_tensor(rng):
    sys1 = dyadic.DyadicSystem(grid.build_axis(4), 9)
    sys2 = offset0(3)
    I = sys1.cube(1, 0)
    g = rng.standard_normal(8)
    f = _tensor(sys1, sys2, haar.haar_function(I).values, g)
    out = haar.partial_pairing(f, I, axis_index=1)
    assert out.axes == (sys2.axis,)
    assert np.max(np.abs(out.values - g)) < 1e-13


def test_partial_pairing_constant_factor(rng):
    sys1 = offset0(3)
    sys2 = offset0(3)
    f = _tensor(sys1, sys2, np.ones(8), rng.standard_normal(8))
    out = haar.partial_pairing(f, sys1.cube(1, 1), axis_index=1)
    assert np.max(np.abs(out.values)) < 1e-14


def test_partial_pairing_fubini(rng):
    sys1 = dyadic.DyadicSystem(grid.build_axis(4), 5)
    sys2 = dyadic.DyadicSystem(grid.build_axis(4), 12)
    f = grid.grid_function(rng.standard_normal((16, 16)), sys1.axis, sys2.axis)
    cmap = haar.haar_expand(f, sys1, sys2)
    I = sys1.cube(2, 3)
    J = sys2.cube(1, 0)
    once = haar.partial_pairing(f, I, axis_index=1)
    twice = grid.inner_product(once, haar.haar_function(J))
    assert abs(twice - cmap.coeffs[haar.basis_column(I), haar.basis_column(J)]) < 1e-13


def test_partial_pairing_needs_two_axes():
    sys = offset0(3)
    f = grid.constant_function(1.0, sys.axis)
    with pytest.raises(errors.ShapeError):
        haar.partial_pairing(f, sys.cube(1, 0), axis_index=1)


def test_axis_index_validation(rng):
    sys = offset0(3)
    f2 = grid.grid_function(rng.standard_normal((8, 8)), sys.axis, sys.axis)
    with pytest.raises(errors.ShapeError):
        haar.martingale_block(f2, sys.cube(0, 0), 0)  # missing axis_index
    f1 = grid.constant_function(1.0, sys.axis)
    with pytest.raises(errors.ShapeError):
        haar.level_average(f1, sys, 1, axis_index=2)
    with pytest.raises(errors.ParameterError):
        haar.level_average(f1, sys, 1, axis_index=3)
