import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dyadica import analysis, dyadic, errors, fracops, grid, haar, paracomm

import oracles


def offset0(L):
    return dyadic.DyadicSystem(grid.build_axis(L), 0)


def mean_zero(rng, n, axis):
    v = rng.standard_normal(n)
    return grid.grid_function(v - v.mean(), axis)


# ---------------------------------------------------------------------------
# the smoothing operator


def test_frac_integral_constant_is_constant():
    ax = grid.build_axis(6)
    out = fracops.frac_integral(grid.grid_function(np.ones(ax.n_cells), ax), 0.5)
    assert np.max(np.abs(out.values - out.values[0])) < 1e-12
    # value equals the full kernel mass through any cell, by translation
    # invariance; cross-check against the cell-pair integral row sum
    row = grid.kernel_profile(ax, 0.5).sum()
    assert abs(out.values[0] - row / ax.h) < 1e-12


def test_frac_integral_quarter_plateau_refines_to_analytic():
    # smoothing of the indicator of [0, 1/4): at points x inside, the exact
    # value is 2 sqrt(x) + 2 sqrt(1/4 - x); compare at cell midpoints
    errs = []
    for L in (8, 10, 12):
        ax = grid.build_axis(L)
        n = 1 << L
        f = grid.grid_function((np.arange(n) < n // 4).astype(float), ax)
        out = fracops.frac_integral(f, 0.5)
        cell = n // 8  # cell just right of x = 1/8
        x = (cell + 0.5) * ax.h
        exact = 2.0 * np.sqrt(x) + 2.0 * np.sqrt(0.25 - x)
        errs.append(abs(out.values[cell] - exact))
    assert errs[0] < 5e-3
    assert errs[2] < errs[0]
    assert abs(2.0 * np.sqrt(0.125) + 2.0 * np.sqrt(0.125) - np.sqrt(2.0)) < 1e-15


def test_frac_integral_linear(rng):
    ax = grid.build_axis(5)
    f = grid.grid_function(rng.standard_normal(32), ax)
    g = grid.grid_function(rng.standard_normal(32), ax)
    lhs = fracops.frac_integral(f.with_values(2.0 * f.values + (-3.0) * g.values), 0.3)
    rhs = 2.0 * fracops.frac_integral(f, 0.3).values + (-3.0) * fracops.frac_integral(g, 0.3).values
    assert np.max(np.abs(lhs.values - rhs)) < 1e-12


def test_frac_integral_positivity(rng):
    ax = grid.build_axis(5)
    f = grid.grid_function(rng.random(32), ax)
    assert np.all(fracops.frac_integral(f, 0.7).values > 0.0)


def test_frac_integral_shape_and_lambda_errors():
    ax = grid.build_axis(3)
    with pytest.raises(errors.ShapeError):
        fracops.frac_integral(grid.grid_function(np.ones((ax.n_cells, ax.n_cells)), ax, ax), 0.5)
    with pytest.raises(errors.ParameterError):
        fracops.frac_integral(grid.grid_function(np.ones(ax.n_cells), ax), 1.0)


# the bloom suite smooths two-axis tables along one array axis with _smooth


def test_partial_tensor_factorization(rng):
    ax1 = grid.build_axis(4)
    ax2 = grid.build_axis(3)
    u = rng.standard_normal(16)
    v = rng.standard_normal(8)
    out = fracops._smooth(np.outer(u, v), ax1, 0.5, 0)
    want = np.outer(
        fracops.frac_integral(grid.grid_function(u, ax1), 0.5).values, v
    )
    assert np.max(np.abs(out - want)) < 1e-12


def test_partial_operators_commute(rng):
    ax = grid.build_axis(4)
    f = rng.standard_normal((16, 16))
    ab = fracops._smooth(fracops._smooth(f, ax, 0.3, 0), ax, 0.7, 1)
    ba = fracops._smooth(fracops._smooth(f, ax, 0.7, 1), ax, 0.3, 0)
    assert np.max(np.abs(ab - ba)) < 1e-12


@pytest.mark.parametrize("L", (1, 2, 5, 8))
@pytest.mark.parametrize("lam", (0.3, 0.5, 0.95))
def test_smoothing_is_one_operator_bit_for_bit(rng, L, lam):
    ax = grid.build_axis(L)
    n = ax.n_cells
    f = grid.grid_function(rng.standard_normal((n, n)), ax, ax)
    along2 = fracops._smooth(f.values, ax, lam, 1)
    transposed = fracops._smooth(f.values.T, ax, lam, 0)
    assert np.array_equal(along2, transposed.T)
    along1 = fracops._smooth(f.values, ax, lam, 0)
    columns = [
        fracops.frac_integral(grid.grid_function(f.values[:, c], ax), lam).values
        for c in range(n)
    ]
    assert np.array_equal(along1, np.stack(columns, axis=1))


def test_no_operator_path_forms_the_kernel_matrix(rng, monkeypatch):
    def dense(*args):
        raise AssertionError("an operator path formed the dense kernel matrix")

    assert not hasattr(fracops, "kernel_matrix")
    monkeypatch.setattr(grid, "kernel_matrix", dense)
    ax = grid.build_axis(4)
    sys = offset0(4)
    one = grid.grid_function(rng.standard_normal(16), ax)
    b, f = (grid.grid_function(rng.standard_normal((16, 16)), ax, ax) for _ in range(2))
    fracops.frac_integral(one, 0.5)
    t1, t2 = paracomm._smoothing(ax, 0.3, -2), paracomm._smoothing(ax, 0.6, -1)
    paracomm._iterated_commutator(b.values, f.values, t1, t2)
    fracops.concentric_indicator_pairing(sys.cube(2, 1), 1, 0.5)
    analysis.frac_maximal_domination(one, sys, 0.5)
    fracops.domination_ratio(one, 0.5, sys)
    mean_free = one.with_values(one.values - one.mean())
    fracops.verify_representation(mean_free, mean_free, 0.5, dyadic.GoodParams(), [sys])


@pytest.mark.parametrize("L", (1, 4, 9, 12))
@pytest.mark.parametrize("lam", (0.05, 0.5, 0.95))
def test_smoothing_reads_a_cached_read_only_spectrum(rng, L, lam):
    ax = grid.build_axis(L)
    v = rng.standard_normal((ax.n_cells, 3))
    spectrum = np.fft.rfft(grid.kernel_profile(ax, lam))
    want = np.fft.irfft(np.fft.rfft(v, axis=0) * spectrum[:, None], n=ax.n_cells, axis=0)
    assert np.array_equal(fracops._smooth(v, ax, lam), want / ax.h)
    assert fracops._kernel_spectrum(ax, lam) is fracops._kernel_spectrum(ax, lam)
    assert not fracops._kernel_spectrum(ax, lam).flags.writeable


@pytest.mark.parametrize("lam", (0.05, 0.5, 0.95))
def test_smoothed_steps_shift_to_every_cube(lam):
    # the kernel is circulant: the table's level-k column, rolled to a cube's
    # start, is that cube's smoothed Haar step on any lattice
    for L in range(1, 7):
        ax = grid.build_axis(L)
        n = ax.n_cells
        S = fracops._smoothed_steps(ax, lam)
        assert S is fracops._smoothed_steps(ax, lam)
        assert not S.flags.writeable and S.shape == (n, L)
        assert np.array_equal(fracops._kernel_columns(ax, lam), haar.haar_analyze(S, offset0(L)))
        for offset in {0, 1, 17 % n, n - 1}:
            system = dyadic.DyadicSystem(ax, offset)
            for k in range(L):
                for m in range(1 << k):
                    cube = system.cube(k, m)
                    want = fracops._smooth(haar.haar_function(cube).values, ax, lam)
                    got = np.roll(S[:, k], cube.start_cell)
                    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("lam", (0.05, 0.5, 0.95))
def test_frac_integral_matches_the_dense_kernel_matrix(rng, lam):
    for L in range(1, 13):
        ax = grid.build_axis(L)
        v = rng.standard_normal(ax.n_cells)
        got = fracops.frac_integral(grid.grid_function(v, ax), lam).values
        want = grid.kernel_matrix(ax, lam) @ v / ax.h
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


# ---------------------------------------------------------------------------
# coefficients


def test_haar_kernel_diagonal_is_positive():
    # the kernel is positive definite, so every Haar step pairs positively
    # with its own smoothing; the diagonal entries by the census's rule
    for L in (1, 5, 9):
        ax = grid.build_axis(L)
        for lam in (0.05, 0.5, 0.95):
            C = fracops._kernel_columns(ax, lam)
            for k in range(L):
                m = np.arange(1 << k)
                assert np.all(fracops._entries(C, k, m, k, m) > 0.0), (L, lam, k)


def test_concentric_pairing_vanishes():
    # even kernel + odd step + symmetric arc => exact cancellation
    for L, off in [(6, 0), (6, 17)]:
        sys = dyadic.DyadicSystem(grid.build_axis(L), off)
        n = 1 << L
        for lam in (0.3, 0.5, 0.7):
            for k in range(1, L):
                w = n >> k
                for m in (0, (1 << k) - 1):
                    I = sys.cube(k, m)
                    for extra in {1, 2, (n - w) // 2}:
                        if w + 2 * extra <= n:
                            val = fracops.concentric_indicator_pairing(I, extra, lam)
                            assert abs(val) < 1e-10


def test_concentric_pairing_argument_errors():
    sys = offset0(4)
    I = sys.cube(2, 1)
    with pytest.raises(errors.ParameterError):
        fracops.concentric_indicator_pairing(I, -1, 0.5)
    with pytest.raises(errors.ParameterError):
        fracops.concentric_indicator_pairing(I, 16, 0.5)
    fine = sys.cube(4, 3)
    with pytest.raises(errors.ResolutionError):
        fracops.concentric_indicator_pairing(fine, 1, 0.5)
    with pytest.raises(errors.ParameterError):
        fracops.concentric_indicator_pairing(fine, 1, 1.5)
    with pytest.raises(errors.ParameterError):
        fracops.concentric_indicator_pairing(fine, 8, 0.5)


# ---------------------------------------------------------------------------
# classification


def test_classify_identical_is_shallow():
    sys = offset0(5)
    I = sys.cube(3, 2)
    assert oracles.classify_pair(I, I, dyadic.GoodParams()) == "shallow_in"


def test_classify_deep_descendant():
    sys = offset0(8)
    params = dyadic.GoodParams(r=3, gamma=0.25)
    J = sys.cube(1, 0)
    I = sys.cube(1 + params.r + 1, 0)
    assert oracles.classify_pair(I, J, params) == "deep_in"


def test_classify_far_small_cube_is_out():
    sys = offset0(8)
    params = dyadic.GoodParams(r=3, gamma=0.25)
    J = sys.cube(3, 0)   # [0, 1/8)
    I = sys.cube(7, 64)  # [1/2, ...), across the torus
    assert oracles.classify_pair(I, J, params) == "out"


def test_classify_order_contract():
    sys = offset0(4)
    with pytest.raises(errors.ContractError):
        oracles.classify_pair(sys.cube(1, 0), sys.cube(2, 0), dyadic.GoodParams())


def test_classify_pair_needs_one_system():
    ax = grid.build_axis(4)
    a, b = (dyadic.DyadicSystem(ax, off).cube(1, 0) for off in (0, 3))
    with pytest.raises(errors.SystemMismatchError, match="requires cubes of one system"):
        oracles.classify_pair(a, b, dyadic.GoodParams())


def test_classify_partition_exhaustive():
    # every size-ordered pair gets exactly one tag, and the tag agrees with
    # a from-scratch evaluation of the defining conditions
    from fractions import Fraction

    L = 6
    sys = dyadic.DyadicSystem(grid.build_axis(L), 21)
    params = dyadic.GoodParams(r=2, gamma=0.25)
    for kJ in range(L):
        for kI in range(kJ, L):
            for mJ in range(1 << kJ):
                J = sys.cube(kJ, mJ)
                jcells = set(J.cells().tolist())
                for mI in range(1 << kI):
                    I = sys.cube(kI, mI)
                    tag = oracles.classify_pair(I, J, params)
                    inside = set(I.cells().tolist()) <= jcells
                    if inside:
                        want = "shallow_in" if kI - kJ <= params.r else "deep_in"
                    else:
                        # gamma = 1/4: dist <= 2**(-kJ) * 2**(-(kI-kJ)/4),
                        # tested exactly via fourth powers
                        d = Fraction(dyadic.cube_distance_cells(I, J), 1 << L)
                        want = (
                            "near"
                            if d**4 <= Fraction(1, 1 << (4 * kJ + (kI - kJ)))
                            else "out"
                        )
                    assert tag == want, (I, J, tag, want)


# ---------------------------------------------------------------------------
# shift operators


def _apply_shift(f, system, table):
    """The shift operator of a table on a one-axis function: analyze, route
    each I coefficient into its J direction, synthesize."""
    table.validate(system)
    routed = fracops._route(table, haar.haar_analyze(f.values, system))
    return f.with_values(haar.haar_synthesize(routed, system))


def test_shift_zero_table_is_zero():
    sys = offset0(4)
    table = fracops.ShiftCoefficientTable(0, 0, 0.5, np.zeros((16, 1, 1)))
    f = grid.grid_function(np.arange(16.0), sys.axis)
    out = _apply_shift(f, sys, table)
    assert np.max(np.abs(out.values)) == 0.0


def test_diagonal_shift_scales_each_haar_coefficient(rng):
    sys = dyadic.DyadicSystem(grid.build_axis(4), 5)
    f = grid.grid_function(rng.standard_normal(16), sys.axis)
    coeffs = np.zeros((16, 1, 1))
    for k in range(4):
        for m in range(1 << k):
            K = sys.cube(k, m)
            coeffs[haar.basis_column(K)] = 0.5 * 2.0 ** (-k * (1 - 0.5))
    table = fracops.ShiftCoefficientTable(0, 0, 0.5, coeffs)
    out = _apply_shift(f, sys, table)
    cin = haar.haar_expand(f, sys)
    cout = haar.haar_expand(out, sys)
    for col in range(1, 16):
        a = table.coeffs[col, 0, 0]
        assert cout.coeffs[col] == pytest.approx(a * cin.coeffs[col], abs=1e-13)
    assert cout.coeffs[0] == pytest.approx(0.0, abs=1e-13)


def test_shift_table_bound_violation():
    sys = offset0(4)
    K = sys.cube(2, 1)
    coeffs = np.zeros((16, 1, 1))
    coeffs[haar.basis_column(K)] = 10.0
    table = fracops.ShiftCoefficientTable(0, 0, 0.5, coeffs)
    with pytest.raises(errors.InvariantError, match="exceeds the size bound"):
        table.validate(sys)


@pytest.mark.parametrize(
    "build, message",
    [
        (
            lambda s: fracops.ShiftCoefficientTable(-1, 0, 0.5, np.zeros((8, 1, 1))),
            "shift depths must be non-negative",
        ),
        (
            lambda s: fracops.maximal_table(s, 4, 0, 0.5),
            r"shift depths \(4, 0\) must lie in \[0, 3\]",
        ),
        (lambda s: fracops.maximal_table(s, 0, -1, 0.5), r"shift depths \(0, -1\) must lie in"),
    ],
    ids=("table", "maximal-i", "maximal-j"),
)
def test_shift_depths_out_of_range_are_rejected(build, message):
    with pytest.raises(errors.ParameterError, match=message):
        build(offset0(3))


def test_maximal_table_is_admissible_and_dominated(rng):
    sys = dyadic.DyadicSystem(grid.build_axis(6), 40)
    f = grid.grid_function(rng.standard_normal(64), sys.axis)
    absf = grid.grid_function(np.abs(f.values), sys.axis)
    dom = fracops.frac_integral(absf, 0.5).values
    for (i, j) in [(0, 0), (1, 1), (2, 1), (0, 2)]:
        table = fracops.maximal_table(sys, i, j, 0.5)
        out = paracomm._shift_matrix(sys, table) @ f.values  # validates the table
        ratio = np.max(np.abs(out) / dom)
        assert np.isfinite(ratio)
        assert ratio < 16.0


# ---------------------------------------------------------------------------
# pointwise domination


def test_domination_ratio_constant_closed_form():
    L = 6
    sys = offset0(L)
    f = grid.grid_function(np.ones(sys.axis.n_cells), sys.axis)
    lam = 0.5
    got = fracops.domination_ratio(f, lam, sys)
    scale_sum = sum(2.0 ** (k * (lam - 1.0)) for k in range(L + 1))
    smoothed = fracops.frac_integral(f, lam).values[0]
    assert got == pytest.approx(scale_sum / smoothed, rel=1e-12)


def test_domination_ratio_homogeneous(rng):
    sys = dyadic.DyadicSystem(grid.build_axis(5), 3)
    f = grid.grid_function(rng.standard_normal(32), sys.axis)
    r1 = fracops.domination_ratio(f, 0.3, sys)
    r2 = fracops.domination_ratio(f.with_values(2.0 * f.values), 0.3, sys)
    assert r1 == pytest.approx(r2, rel=1e-12)


def test_domination_ratio_zero_input():
    sys = offset0(4)
    with pytest.raises(errors.DegenerateInputError):
        fracops.domination_ratio(grid.grid_function(np.zeros(sys.axis.n_cells), sys.axis), 0.5, sys)


def test_domination_ratios_reject_an_underflowing_smoothing():
    # one subnormal cell is a nonzero input whose smoothing is 0 at every
    # cell: both ratios name the underflow, where a 0/0 gave NaN; at 1e-300
    # the smoothing is normal and both keep their values, with no warning
    sys = offset0(4)
    v = np.zeros(16)
    v[5] = 1.5e-323
    tiny = grid.grid_function(v, sys.axis)
    for ratio in (lambda f: analysis.frac_maximal_domination(f, sys, 0.5),
                  lambda f: fracops.domination_ratio(f, 0.5, sys)):
        with pytest.raises(errors.DegenerateInputError, match="underflow"):
            ratio(tiny)
    v[5] = 1e-300
    small = grid.grid_function(v, sys.axis)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert analysis.frac_maximal_domination(small, sys, 0.5) == 0.7885745629033443
        assert fracops.domination_ratio(small, 0.5, sys) == 1.639245128834865


# ---------------------------------------------------------------------------
# representation verification


def test_representation_single_haar_pair():
    sys = offset0(6)
    f = haar.haar_function(sys.cube(0, 0))
    rep = fracops.verify_representation(f, f, 0.5, dyadic.GoodParams(), [sys])
    assert rep.n_systems == 1
    assert rep.residuals[0] < 1e-10


def test_representation_exact_many_systems(rng):
    ax = grid.build_axis(6)
    f = mean_zero(rng, 64, ax)
    g = mean_zero(rng, 64, ax)
    systems = [dyadic.DyadicSystem(ax, off) for off in (0, 7, 32, 63)]
    for lam in (0.3, 0.5, 0.7):
        rep = fracops.verify_representation(
            f, g, lam, dyadic.GoodParams(), systems
        )
        assert rep.n_systems == 4
        assert max(rep.relative_residuals) < 1e-12


def test_representation_empty_systems(rng):
    ax = grid.build_axis(4)
    f = mean_zero(rng, 16, ax)
    rep = fracops.verify_representation(f, f, 0.5, dyadic.GoodParams(), [])
    assert rep.n_systems == 0
    assert rep.residuals == ()


def test_representation_validates_every_system_before_any_work(rng, monkeypatch):
    ax = grid.build_axis(4)
    f = mean_zero(rng, 16, ax)
    systems = [dyadic.DyadicSystem(ax, off) for off in (0, 3, 9)] + [offset0(5)]

    def no_work(*args):
        raise AssertionError("matrix work started before the systems were validated")

    monkeypatch.setattr(fracops, "_smooth", no_work)
    monkeypatch.setattr(fracops, "haar_analyze", no_work)
    monkeypatch.setattr(fracops, "_stationary_analyze", no_work)
    monkeypatch.setattr(fracops, "_pairings", no_work)
    with pytest.raises(errors.SystemMismatchError):
        fracops.verify_representation(f, f, 0.5, dyadic.GoodParams(), systems)


@pytest.mark.parametrize("lam", (0.3, 0.7))
def test_haar_basis_kernel_and_goodness_are_offset_invariant(lam):
    # a lattice offset permutes cells cyclically and the kernel is
    # circulant, so H.T G H and the goodness flags do not see the offset
    ax = grid.build_axis(8)
    G = grid.kernel_matrix(ax, lam)
    base = offset0(8)
    H0 = haar.haar_matrix(base)
    M0 = H0.T @ G @ H0
    for off in (1, 5, 77, 200):
        sys = dyadic.DyadicSystem(ax, off)
        H = haar.haar_matrix(sys)
        assert np.max(np.abs(H.T @ G @ H - M0)) <= 1e-14 * np.max(np.abs(M0))
        for params in (dyadic.GoodParams(3, dyadic.default_gamma(lam)),
                       dyadic.GoodParams(4, 7 / 16)):
            for level in range(ax.level + 1):
                assert np.array_equal(
                    dyadic.bad_mask(sys, level, params),
                    dyadic.bad_mask(base, level, params),
                )


@pytest.mark.parametrize("lam", (0.05, 0.5, 0.95))
def test_haar_kernel_entries_match_the_dense_haar_basis_kernel(lam):
    # every size-ordered block read from the L columns by _entries over all
    # rows, and its transpose, equals H.T G H, so all L**2 level-pair blocks
    # are checked, and each join level is dyadic.join's; blocks that
    # vanish in exact arithmetic hold rounding noise on both sides, so the
    # bound is relative to the kernel's largest entry
    for L in (1, 2, 3, 6, 9):
        ax = grid.build_axis(L)
        lattice = offset0(L)
        H = haar.haar_matrix(lattice)
        M = H.T @ grid.kernel_matrix(ax, lam) @ H
        assert fracops._kernel_columns(ax, lam).shape == (ax.n_cells, L)
        bound = 1e-13 * np.max(np.abs(M))
        C = fracops._kernel_columns(ax, lam)
        for kI in range(L):
            a = np.arange(1 << kI)[:, None]
            for kJ in range(kI + 1):
                b = np.arange(1 << kJ)
                block = fracops._entries(C, kI, a, kJ, b)
                kK = dyadic._join_level(kI, a, kJ, b)
                rows, cols = slice(1 << kI, 2 << kI), slice(1 << kJ, 2 << kJ)
                assert block.shape == kK.shape == (1 << kI, 1 << kJ)
                assert np.max(np.abs(block - M[rows, cols])) <= bound
                assert np.max(np.abs(block.T - M[cols, rows])) <= bound
                if L <= 6:
                    for i, j in np.ndindex(kK.shape):
                        join = dyadic.join(lattice.cube(kI, i), lattice.cube(kJ, j))
                        assert kK[i, j] == join.level
@pytest.mark.parametrize("lam", (0.05, 0.5, 0.95))
def test_pairings_match_the_dense_haar_basis_kernel_per_offset(lam):
    # the pairing of each lattice, from the stationary coefficients and the
    # kernel column spectra, is cg . (H.T G H) cf with H built cube by cube;
    # FFT rounding scales with the sizes of the terms, not with their sum,
    # so each difference is bounded by 1e-13 of |cg| . |M| |cf|
    rng = np.random.default_rng(27)
    for L in range(1, 11):
        ax = grid.build_axis(L)
        n = ax.n_cells
        f, g = mean_zero(rng, n, ax).values, mean_zero(rng, n, ax).values
        H = oracles.haar_matrix_brute(offset0(L))
        M = H.T @ grid.kernel_matrix(ax, lam) @ H
        UV = haar._stationary_analyze(np.stack((f, g)), ax)
        subset = rng.choice(n, size=min(n, 6), replace=False)
        # the lattice at offset o has H_o[(c + o) mod n] = H[c]
        for o in subset[:2]:
            assert np.array_equal(
                oracles.haar_matrix_brute(dyadic.DyadicSystem(ax, int(o))),
                np.roll(H, o, axis=0),
            )
        for offsets in (
            np.arange(n),
            subset,
            np.concatenate([subset, subset[:3], subset[:1]]),
        ):
            got = fracops._pairings(ax, lam, UV, offsets)
            assert got.shape == (len(offsets),)
            cells = (np.arange(n)[:, None] + offsets) % n
            cf, cg = ((ax.h * (H.T @ v[cells]))[1:] for v in (f, g))
            want = (cg * (M[1:, 1:] @ cf)).sum(axis=0)
            scale = (np.abs(cg) * (np.abs(M[1:, 1:]) @ np.abs(cf))).sum(axis=0)
            assert np.all(np.abs(got - want) <= 1e-13 * scale)


@pytest.mark.parametrize("lam", (0.3, 0.5, 0.7))
def test_class_profiles_drop_rounding_noise_keys(rng, lam):
    # at L=3 the depth-(1, 0) contained pairs are the whole circle and its
    # halves, whose coefficients cancel by symmetry: no profile key
    ax = grid.build_axis(3)
    f = mean_zero(rng, 8, ax)
    params = dyadic.GoodParams(2, 7 / 16)
    rep = fracops.verify_representation(f, f, lam, params, [offset0(3)])
    assert (0, 0) in rep.class_profiles["shallow_in"]
    assert (1, 0) not in rep.class_profiles["shallow_in"]


def _assert_close_maps(got, want, rel):
    # an entry that vanishes in exact arithmetic is rounding noise of the
    # map's largest entry, so it is compared at 1e-14 of that entry; at L=3
    # the depth-(1, 0) contained profile can hold only halves of the whole
    # circle, whose coefficients cancel by symmetry
    assert set(got) == set(want)
    floor = 1e-14 * max(want.values(), default=0.0)
    for key, value in want.items():
        assert abs(got[key] - value) <= max(rel * abs(value), floor)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(3, 7),
    st.sampled_from((0.3, 0.5, 0.7)),
    st.sampled_from((7 / 16, dyadic.default_gamma(0.3), 1 / 3)),
    st.integers(1, 4),
    st.sampled_from(("subset", "duplicates", "lone", "generator", "empty", "every", "every-plus")),
    st.integers(0, 2**32 - 1),
)
@example(7, 0.5, 7 / 16, 3, "duplicates", 11)
@example(7, 0.3, dyadic.default_gamma(0.3), 1, "generator", 12)
@example(7, 0.7, 1 / 3, 2, "every", 13)
@example(7, 0.5, dyadic.default_gamma(0.5), 3, "every-plus", 14)
def test_representation_matches_per_system_reference(L, lam, gamma, r, kind, seed):
    # the offset-0 scan with batched coefficients reports what the
    # system-by-system loop reports; "every" takes each offset once, and
    # "every-plus" every offset twice plus the subset
    ax = grid.build_axis(L)
    n = ax.n_cells
    rng = np.random.default_rng(seed)
    f, g = mean_zero(rng, n, ax), mean_zero(rng, n, ax)
    params = dyadic.GoodParams(r, gamma)
    subset = rng.choice(n, size=int(rng.integers(1, min(n, 12) + 1)), replace=False)
    offsets = {
        "subset": subset,
        "duplicates": np.concatenate([subset, subset[:3], [subset[0]]]),
        "lone": [int(rng.integers(1, n))],
        "generator": subset,
        "empty": [],
        "every": np.arange(n),
        "every-plus": np.concatenate([np.arange(n), subset, np.arange(n)]),
    }[kind]

    def make():
        return (dyadic.DyadicSystem(ax, int(off)) for off in offsets)

    got = fracops.verify_representation(
        f, g, lam, params, make() if kind == "generator" else list(make())
    )
    want = oracles.verify_representation_brute(f, g, lam, params, make())
    assert got.class_counts == want.class_counts
    assert set(got.class_profiles) == set(want.class_profiles)
    for tag, prof in want.class_profiles.items():
        _assert_close_maps(got.class_profiles[tag], prof, 1e-12)
    _assert_close_maps(got.class_constants, want.class_constants, 1e-12)
    assert got.n_systems == want.n_systems == len(offsets)
    assert len(got.residuals) == len(got.relative_residuals) == len(want.residuals)
    assert all(rel <= 1e-12 for rel in got.relative_residuals)


def test_representation_rejects_nonzero_mean():
    ax = grid.build_axis(4)
    f = grid.grid_function(np.ones(ax.n_cells), ax)
    with pytest.raises(errors.ContractError, match="mean"):
        fracops.verify_representation(f, f, 0.5, dyadic.GoodParams(), [offset0(4)])


@pytest.mark.parametrize("L", (5, 6))
def test_representation_classes_cover_every_good_size_ordered_pair(rng, L):
    # the four class counts partition the size-ordered pairs (I, J) whose
    # smaller cube I is good, the 2**(kI + 1) - 1 cubes J of levels 0 .. kI
    # for each good I at level kI, once per system; profile keys are depth
    # pairs below the join, i >= j since the smaller cube lies deeper
    ax = grid.build_axis(L)
    lattice = dyadic.DyadicSystem(ax, 0)
    params = dyadic.GoodParams(3, 7 / 16)
    f, g = mean_zero(rng, ax.n_cells, ax), mean_zero(rng, ax.n_cells, ax)
    systems = [lattice, dyadic.DyadicSystem(ax, 3)]
    rep = fracops.verify_representation(f, g, 0.5, params, systems)
    pairs = sum(
        int((~dyadic.bad_mask(lattice, kI, params)).sum()) * ((2 << kI) - 1) for kI in range(L)
    )
    assert pairs > 0
    assert sum(rep.class_counts.values()) == len(systems) * pairs
    for prof in rep.class_profiles.values():
        assert all(L > i >= j >= 0 for i, j in prof)


@pytest.mark.parametrize("L", (5, 6))
def test_representation_of_inputs_with_exact_zero_coefficients(L):
    # inputs whose Haar tables hold exact zeros: over every offset the
    # stationary-table pairings keep the identity at rounding level, as the
    # per-system dense reference does, and the census is the reference's
    ax = grid.build_axis(L)
    n = ax.n_cells
    spike = np.full(n, -1.0 / n)
    spike[5] += 1.0
    comb = np.zeros(n)
    comb[:: n // 4] = 1.0
    comb[n // 8 :: n // 4] = -1.0
    step = haar.haar_function(dyadic.DyadicSystem(ax, 3).cube(2, 1))
    params = dyadic.GoodParams(3, 7 / 16)
    every = list(dyadic.enumerate_systems(ax))
    for f, g in ((step, grid.grid_function(spike, ax)), (grid.grid_function(comb, ax), step)):
        got = fracops.verify_representation(f, g, 0.5, params, every)
        want = oracles.verify_representation_brute(f, g, 0.5, params, every)
        assert len(got.relative_residuals) == len(want.relative_residuals) == n
        assert max(got.relative_residuals) <= 1e-12
        assert max(want.relative_residuals) <= 1e-12
        assert got.class_counts == want.class_counts
        for tag, prof in want.class_profiles.items():
            _assert_close_maps(got.class_profiles[tag], prof, 1e-12)


def test_representation_class_profiles_sane(rng):
    ax = grid.build_axis(6)
    f = mean_zero(rng, 64, ax)
    params = dyadic.GoodParams(r=4, gamma=31 / 64)
    rep = fracops.verify_representation(f, f, 0.5, params, [offset0(6)])
    # all four classes are populated at these parameters
    assert all(rep.class_counts[t] > 0 for t in ("out", "near", "shallow_in", "deep_in"))
    # shallow_in contains the diagonal (i=j=0); its profile keys use j=0
    assert all(j == 0 for _, j in rep.class_profiles["shallow_in"])
    assert all(j == 0 for _, j in rep.class_profiles["deep_in"])
    # out/near pairs lie strictly below their join on both sides
    for tag in ("out", "near"):
        assert all(i >= 1 and j >= 1 for i, j in rep.class_profiles[tag])
    assert set(rep.class_constants) == {"out", "near", "shallow_in", "deep_in"}
    assert all(v > 0 for v in rep.class_constants.values())


@pytest.mark.parametrize("gamma", (7 / 16, dyadic.default_gamma(0.3), 1 / 3, 5 / 17))
def test_scan_system_classes_agree_with_classify_pair(gamma):
    # the vectorized class census counts exactly the pairs classify_pair tags
    # r = 5 leaves both near and out pairs with a good smaller cube
    params = dyadic.GoodParams(r=5, gamma=gamma)
    for L in (7, 8):
        n = 1 << L
        sys = dyadic.DyadicSystem(grid.build_axis(L), 21 % n)
        _, counts = fracops._lattice_classes(sys.axis, 0.5, params)
        want = dict.fromkeys(counts, 0)
        for kI in range(L):
            for mI in range(1 << kI):
                I = sys.cube(kI, mI)
                if not dyadic.is_good(I, params):
                    continue
                for kJ in range(kI + 1):
                    for mJ in range(1 << kJ):
                        J = sys.cube(kJ, mJ)
                        want[oracles.classify_pair(I, J, params)] += 1
        assert counts == want


def test_representation_walks_the_census_on_every_call(monkeypatch):
    # every call runs the class census once, whether or not an earlier call
    # used the same key, and walks no other block: the kI + 1 blocks of each
    # level kI that holds a good cube, for 3 offsets as for every offset;
    # every report equals the first one of its inputs, and its class
    # mappings are its own
    L, lam, params = 6, 0.4, dyadic.GoodParams(r=4, gamma=31 / 64)
    ax = grid.build_axis(L)
    lattice = dyadic.DyadicSystem(ax, 0)
    census = sum(k + 1 for k in range(L) if not dyadic.bad_mask(lattice, k, params).all())
    systems = [dyadic.DyadicSystem(ax, off) for off in (0, 5, 32)]
    rng = np.random.default_rng(8)
    inputs = [(mean_zero(rng, 64, ax), mean_zero(rng, 64, ax)) for _ in range(3)]
    first = [fracops.verify_representation(f, g, lam, params, systems) for f, g in inputs]
    assert all(first[0].class_profiles.values()) and all(first[0].class_counts.values())
    first = [dataclasses.asdict(rep) for rep in first]  # deep copies

    walks, classed = [], []  # _entries blocks per _lattice_classes call; _pair_class calls
    census_of, entries, pair_class = (
        fracops._lattice_classes, fracops._entries, fracops._pair_class
    )

    def counted_census(*a):
        walks.append(0)
        return census_of(*a)

    def counted_entries(C, kI, a, kJ, b):
        walks[-1] += 1
        return entries(C, kI, a, kJ, b)

    monkeypatch.setattr(fracops, "_lattice_classes", counted_census)
    monkeypatch.setattr(fracops, "_entries", counted_entries)
    monkeypatch.setattr(fracops, "_pair_class", lambda *a: classed.append(a) or pair_class(*a))
    blocks = []
    for (f, g), want in zip(inputs, first):
        walks.clear(), classed.clear()
        rep = fracops.verify_representation(f, g, lam, params, systems)
        blocks.append((list(walks), len(classed)))
        assert dataclasses.asdict(rep) == want
        rep.class_profiles["near"].clear()  # must not reach the next report
        del rep.class_profiles["out"]
        rep.class_counts["deep_in"] = -1
    half = L * (L + 1) // 2
    assert census == half  # every level of this key holds a good cube
    assert blocks == [([census], census)] * 3

    # every offset once: each call walks the census's blocks alone, the
    # second of one key as the first
    every = list(dyadic.enumerate_systems(ax))
    f, g = inputs[0]
    for _ in range(2):
        walks.clear(), classed.clear()
        rep = fracops.verify_representation(f, g, lam, params, every)
        assert (walks, len(classed)) == ([census], census)
        assert rep.class_profiles == first[0]["class_profiles"]


@pytest.mark.parametrize("lam", (0.3, 0.5, 0.7))
def test_census_walks_only_the_levels_that_hold_a_good_cube(lam, monkeypatch):
    # at L=8 and r=3 good cubes lie at levels 0-2 only (1, 2 and 4 of them),
    # so an every-offset call walks the census's 1 + 2 + 3 blocks of those
    # levels, classes each once and walks no block of levels 3-7; its
    # profiles and counts are the per-entry census's, bit for bit.  Levels
    # without a good cube form a suffix here; no key with L <= 10, r <= L and
    # gamma = 0.01, 0.02, .., 0.49 has one below a populated level
    L, params = 8, dyadic.GoodParams(3, dyadic.default_gamma(lam))
    ax = grid.build_axis(L)
    lattice = dyadic.DyadicSystem(ax, 0)
    good = [int((~dyadic.bad_mask(lattice, k, params)).sum()) for k in range(L)]
    assert good == [1, 2, 4, 0, 0, 0, 0, 0]

    rng = np.random.default_rng(33)
    f, g = mean_zero(rng, ax.n_cells, ax), mean_zero(rng, ax.n_cells, ax)
    walks, classed = [], []  # (kI, kJ) of the _entries blocks per census call
    census_of, entries, pair_class = (
        fracops._lattice_classes, fracops._entries, fracops._pair_class
    )

    def counted_census(*a):
        walks.append([])
        return census_of(*a)

    def counted_entries(C, kI, a, kJ, b):
        walks[-1].append((kI, kJ))
        return entries(C, kI, a, kJ, b)

    monkeypatch.setattr(fracops, "_lattice_classes", counted_census)
    monkeypatch.setattr(fracops, "_entries", counted_entries)
    monkeypatch.setattr(fracops, "_pair_class", lambda *a: classed.append(a) or pair_class(*a))
    rep = fracops.verify_representation(f, g, lam, params, dyadic.enumerate_systems(ax))
    assert walks == [[(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2)]]
    assert len(classed) == 6
    monkeypatch.undo()

    profiles, counts = oracles.lattice_classes_reference(ax, lam, params)
    assert rep.class_profiles == profiles
    assert rep.class_counts == {tag: c * ax.n_cells for tag, c in counts.items()}
    assert fracops._lattice_classes(ax, lam, params) == (profiles, counts)


@pytest.mark.parametrize("lam", (0.05, 0.5, 0.95))
def test_residuals_are_the_reports_bit_for_bit(lam):
    # the residual path the represent suite reads is verify_representation's:
    # the suite's offsets, every offset, and a multiset with duplicates
    rng = np.random.default_rng(30)
    params = dyadic.GoodParams(3, dyadic.default_gamma(lam))
    for L in range(1, 11):
        ax = grid.build_axis(L)
        n = ax.n_cells
        f, g = mean_zero(rng, n, ax), mean_zero(rng, n, ax)
        for offsets in (sorted({0, 1, n // 2}), range(n), [1, n - 1, 1, 0, n - 1, 1]):
            offsets = np.array(offsets)
            systems = [dyadic.DyadicSystem(ax, int(o)) for o in offsets]
            rep = fracops.verify_representation(f, g, lam, params, systems)
            residuals, relative = fracops._residuals(f, g, lam, offsets)
            assert np.array_equal(residuals, rep.residuals)
            assert np.array_equal(relative, rep.relative_residuals)


def test_representation_at_level_14_stays_under_64_mib(monkeypatch):
    # residuals and the class census only: 3 systems at L=14 peak near
    # 23 MiB under tracemalloc, where a walk over every coefficient pair of
    # the kernel's blocks held over 1 GiB.  Levels 0, 1 and 2 hold 1, 2 and
    # 4 good cubes and no deeper level holds one, so no block of the census
    # reads more than 16 entries; a block of 2**12 fails before it is read,
    # where a census over every row would allocate blocks of 2**26
    import tracemalloc

    entries = fracops._entries

    def bounded(C, kI, a, kJ, b):
        assert np.size(a) << kJ < 2**12, (kI, kJ, np.size(a))
        return entries(C, kI, a, kJ, b)

    monkeypatch.setattr(fracops, "_entries", bounded)
    ax = grid.build_axis(14)
    n = ax.n_cells
    rng = np.random.default_rng(41)
    f, g = mean_zero(rng, n, ax), mean_zero(rng, n, ax)
    systems = [dyadic.DyadicSystem(ax, o) for o in (0, 1, n // 2)]
    params = dyadic.GoodParams(3, dyadic.default_gamma(0.5))
    tracemalloc.start()
    try:
        rep = fracops.verify_representation(f, g, 0.5, params, systems)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert max(rep.relative_residuals) <= 1e-12
    assert peak < 64 * 2**20, peak / 2**20


@pytest.mark.parametrize("lam", (0.05, 1 / 3, 0.5, 0.95))
def test_lattice_classes_match_the_per_block_reference(lam):
    # the census with per-level join tables and decay powers counts and
    # profiles bit for bit what the per-entry census does; gamma = 1/pi has
    # no small rational form, so _within_threshold takes its float branch;
    # at r >= 4 good cubes lie below the coarse levels, and at L=9 the last
    # two keys populate all four classes
    for L in range(1, 10):
        ax = grid.build_axis(L)
        assert not fracops._kernel_columns(ax, lam).flags.writeable
        for params in (dyadic.GoodParams(4, dyadic.default_gamma(lam)),
                       dyadic.GoodParams(5, 7 / 16),
                       dyadic.GoodParams(5, 1 / np.pi)):
            profiles, counts = fracops._lattice_classes(ax, lam, params)
            want_profiles, want_counts = oracles.lattice_classes_reference(ax, lam, params)
            assert counts == want_counts
            assert profiles == want_profiles
            if L == 9 and params.r == 5:
                assert all(counts.values()) and all(profiles.values())


def test_representation_coefficients_match_the_dense_kernel(rng):
    # the census's near-class profile against a per-pair loop over the dense
    # Haar-basis kernel H.T G H, normalized by |K|**lam / (|I| |J|)**(1/2)
    sys = dyadic.DyadicSystem(grid.build_axis(4), 11)
    params = dyadic.GoodParams(r=1, gamma=0.45)
    f = mean_zero(rng, 16, sys.axis)
    rep = fracops.verify_representation(f, f, 0.5, params, [sys])
    prof = rep.class_profiles["near"]
    H = haar.haar_matrix(sys)
    M = H.T @ grid.kernel_matrix(sys.axis, 0.5) @ H
    best = {}
    for kJ in range(4):
        for kI in range(kJ, 4):
            for mJ in range(1 << kJ):
                for mI in range(1 << kI):
                    I, J = sys.cube(kI, mI), sys.cube(kJ, mJ)
                    if not dyadic.is_good(I, params):
                        continue
                    if oracles.classify_pair(I, J, params) != "near":
                        continue
                    K = dyadic.join(I, J)
                    raw = M[haar.basis_column(J), haar.basis_column(I)]
                    normalized = raw * 2.0 ** (0.5 * kI + 0.5 * kJ - 0.5 * K.level)
                    key = (kI - K.level, kJ - K.level)
                    best[key] = max(best.get(key, 0.0), abs(normalized))
    assert set(prof) == set(best)
    for key in best:
        assert prof[key] == pytest.approx(best[key], rel=1e-12)
