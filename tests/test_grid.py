import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from dyadica import grid
from dyadica.errors import ConfigurationError, ParameterError, ShapeError


# ---------------------------------------------------------------------------
# axes


def test_build_axis_cell_counts():
    ax = grid.build_axis(3)
    assert ax.n_cells == 8
    assert ax.h == 1.0 / 8.0
    assert grid.build_axis(1).n_cells == 2


def test_build_axis_rejects_out_of_range():
    with pytest.raises(ConfigurationError):
        grid.build_axis(15)
    with pytest.raises(ConfigurationError):
        grid.build_axis(0)
    with pytest.raises(ConfigurationError):
        grid.build_axis(2.5)


# ---------------------------------------------------------------------------
# grid functions


def test_grid_function_validates_shape_and_finiteness():
    ax = grid.build_axis(2)
    with pytest.raises(ShapeError):
        grid.grid_function([1.0, 2.0], ax)  # wrong length
    with pytest.raises(ShapeError):
        grid.grid_function([1.0, np.inf, 0.0, 0.0], ax)


def test_grid_function_values_are_immutable():
    ax = grid.build_axis(2)
    f = grid.grid_function(np.ones(ax.n_cells), ax)
    with pytest.raises(ValueError):
        f.values[0] = 7.0


# ---------------------------------------------------------------------------
# inner product


def test_inner_product_of_ones_is_one():
    ax = grid.build_axis(4)
    one = grid.grid_function(np.ones(ax.n_cells), ax)
    assert grid.inner_product(one, one) == pytest.approx(1.0, abs=1e-15)


def test_inner_product_haar_normalization():
    # step function +1 on [0,1/2), -1 on [1/2,1): unit L2 norm
    ax = grid.build_axis(3)
    vals = np.where(np.arange(8) < 4, 1.0, -1.0)
    h = grid.grid_function(vals, ax)
    assert grid.inner_product(h, h) == pytest.approx(1.0, abs=1e-15)


def test_inner_product_identity_function_against_one():
    # cell averages of f(x) = x are the midpoints; sum * h = 1/2 exactly
    ax = grid.build_axis(4)
    f = grid.tabulate_midpoint(lambda x: x, ax)
    one = grid.grid_function(np.ones(ax.n_cells), ax)
    assert grid.inner_product(f, one) == pytest.approx(0.5, abs=1e-15)


def test_inner_product_axis_mismatch():
    f = grid.grid_function(np.ones(4), grid.build_axis(2))
    g = grid.grid_function(np.ones(8), grid.build_axis(3))
    with pytest.raises(ShapeError):
        grid.inner_product(f, g)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_inner_product_bilinear_symmetric_positive(seed):
    r = np.random.default_rng(seed)
    ax = grid.Axis(4)
    f = grid.grid_function(r.normal(size=16), ax)
    g = grid.grid_function(r.normal(size=16), ax)
    w = grid.grid_function(r.normal(size=16), ax)
    a, b = r.normal(), r.normal()
    lhs = grid.inner_product(f.with_values(a * f.values + b * g.values), w)
    rhs = a * grid.inner_product(f, w) + b * grid.inner_product(g, w)
    assert lhs == pytest.approx(rhs, abs=1e-12)
    assert grid.inner_product(f, g) == pytest.approx(grid.inner_product(g, f))
    assert grid.inner_product(f, f) >= 0.0


@pytest.mark.parametrize("scale", (1e155, 1e300, 1e307))
@pytest.mark.parametrize("levels", ((4,), (3, 5)), ids=("16", "8x32"))
def test_l2_norm_of_huge_values_is_finite_and_scaled(scale, levels):
    # the squares overflow above about 1.3e154; a power-of-two rescale keeps
    # the norm finite and warning-free (warnings raise here), at the relative
    # rounding of the unscaled formula on the table over its scale
    axes = [grid.build_axis(L) for L in levels]
    v = np.random.default_rng(len(levels)).normal(size=[ax.n_cells for ax in axes])
    v *= scale / np.max(np.abs(v))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = grid.l2_norm(grid.grid_function(v, *axes))
        unit = grid.l2_norm(grid.grid_function(v / scale, *axes))
    assert np.isfinite(got)
    assert abs(got - unit * scale) <= 1e-14 * got


def test_l2_norm_keeps_its_bits_below_the_rescale_threshold():
    ax = grid.build_axis(5)
    v = np.random.default_rng(3).normal(size=32)
    for scale in (1e-300, 1.0, 1e100, 1e130):
        f = grid.grid_function(v * scale, ax)
        assert grid.l2_norm(f) == float(np.sqrt(max(grid.inner_product(f, f), 0.0)))


def test_inner_product_zero_iff_zero():
    ax = grid.Axis(3)
    z = grid.grid_function(np.zeros(ax.n_cells), ax)
    assert grid.inner_product(z, z) == 0.0
    f = grid.grid_function(np.arange(8, dtype=float), ax)
    assert grid.inner_product(f, f) > 0.0


# ---------------------------------------------------------------------------
# kernel cell integrals: cells a and b read the profile at (a - b) mod n


def _pair(ax, a, b, lam):
    return grid.kernel_profile(ax, lam)[(a - b) % ax.n_cells]


def test_diagonal_cell_scaling():
    # a cell's self-integral of |x-y|**-lam: 2 h**(2-lam) / ((1-lam)(2-lam)),
    # 8/3 h**1.5 at lam = 0.5
    for L in (1, 6, 14):
        ax = grid.build_axis(L)
        for lam in (0.05, 0.3, 0.5, 0.95):
            val = _pair(ax, 1, 1, lam)
            exact = 2.0 * ax.h ** (2.0 - lam) / ((1.0 - lam) * (2.0 - lam))
            assert val == pytest.approx(exact, rel=1e-13), (L, lam)


def test_kernel_positive():
    for L in (1, 4, 14):
        assert np.all(grid.kernel_profile(grid.build_axis(L), 0.7) > 0.0)


def test_kernel_wrapping_values_frozen():
    # pinned against the overlap-hat quadrature oracle
    ax = grid.build_axis(3)
    assert _pair(ax, 0, 7, 0.5) == pytest.approx(0.04881553646890876, rel=1e-10)
    assert _pair(ax, 0, 4, 0.5) == pytest.approx(0.02311678470700492, rel=1e-10)


def test_kernel_against_quadrature():
    # quadrature consistency, including wrapping pairs and both branches
    for L in (2, 4):
        ax = grid.build_axis(L)
        n = ax.n_cells
        for lam in (0.3, 0.7):
            for a, b in [(0, 0), (0, 1), (0, n // 2), (1, n - 1), (2, n - 2)]:
                mine = _pair(ax, a, b, lam)
                ref = oracles.pair_integral_quad(ax.h, ((a - b) % n) * ax.h, lam)
                assert mine == pytest.approx(ref, rel=1e-8)


def test_kernel_refinement_consistency():
    # parent-pair integral equals the sum over the four child pairs
    coarse, fine = grid.build_axis(3), grid.build_axis(4)
    for lam in (0.3, 0.5, 0.7):
        for a in range(8):
            for b in range(8):
                parent = _pair(coarse, a, b, lam)
                kids = sum(
                    _pair(fine, 2 * a + i, 2 * b + j, lam) for i in (0, 1) for j in (0, 1)
                )
                assert parent == pytest.approx(kids, abs=1e-12)


def test_kernel_rejects_bad_lambda():
    ax = grid.build_axis(3)
    for lam in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ParameterError):
            grid.kernel_profile(ax, lam)


def test_kernel_matrix_is_circulant_and_symmetric():
    ax = grid.build_axis(4)
    G = grid.kernel_matrix(ax, 0.5)
    assert np.allclose(G, G.T, atol=0.0)
    g = grid.kernel_profile(ax, 0.5)
    assert G[5, 2] == g[3]
    assert G[2, 5] == g[(2 - 5) % 16]


def test_kernel_matrix_entries_read_the_profile():
    for level in (1, 2, 3, 6, 9):
        ax = grid.build_axis(level)
        n = ax.n_cells
        a, b = np.indices((n, n))
        for lam in (0.3, 0.5, 0.95):
            G = grid.kernel_matrix(ax, lam)
            assert G.shape == (n, n) and not G.flags.writeable
            assert np.array_equal(G, grid.kernel_profile(ax, lam)[(a - b) % n])


@pytest.mark.parametrize("lam", (0.05, 0.3, 0.5, 0.95))
def test_kernel_profile_is_even_bit_for_bit(lam):
    # g[m] and g[n - m] are one evaluation, at the wrapped cell distance
    for level in range(1, 13):
        g = grid.kernel_profile(grid.build_axis(level), lam)
        assert np.array_equal(g[1:], g[1:][::-1])


def test_kernel_matrix_equals_its_transpose_bit_for_bit():
    for level in range(1, 10):
        ax = grid.build_axis(level)
        for lam in (0.05, 0.5, 0.95):
            G = grid.kernel_matrix(ax, lam)
            assert np.array_equal(G, G.T)
