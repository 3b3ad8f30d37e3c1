from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from dyadica import dyadic, grid, haar
from dyadica.errors import (
    ContractError,
    LevelUnderflowError,
    ParameterError,
    SystemMismatchError,
)


def offset0(level):
    return dyadic.DyadicSystem(grid.build_axis(level), 0)


# ---------------------------------------------------------------------------
# systems


def test_sample_system_deterministic():
    ax = grid.build_axis(3)
    s1 = dyadic.sample_system(ax, 42)
    s2 = dyadic.sample_system(ax, 42)
    assert s1 == s2


def test_enumerate_systems_distinct():
    ax = grid.build_axis(3)
    systems = dyadic.enumerate_systems(ax)
    assert len(systems) == 8
    assert len({s.offset_cells for s in systems}) == 8


def test_offset_distribution_uniform():
    # chi-square against uniform over 2**L offsets; 3-sigma multinomial bound
    ax = grid.build_axis(3)
    counts = np.zeros(8)
    for seed in range(10_000):
        counts[dyadic.sample_system(ax, seed).offset_cells] += 1
    expected = 10_000 / 8
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    # 99.9% quantile of chi-square with 7 dof (deterministic seeds, so this
    # is a fixed value; observed ~18.4)
    assert chi2 < 24.32


@pytest.mark.parametrize("offset", (1.5, 2.0, True, "1"))
def test_system_rejects_non_integer_offsets(offset):
    with pytest.raises(ParameterError, match="offset_cells must be an integer"):
        dyadic.DyadicSystem(grid.build_axis(3), offset)


def test_system_accepts_numpy_integer_offsets():
    ax = grid.build_axis(3)
    sys, plain = dyadic.DyadicSystem(ax, np.int64(3)), dyadic.DyadicSystem(ax, 3)
    assert sys == plain
    assert [c.cells()[0] for c in sys.cubes_at_level(1)] == [3, 7]
    v = np.arange(8.0)
    assert np.array_equal(haar.haar_analyze(v, sys), haar.haar_analyze(v, plain))


def test_cube_rejects_non_integer_level_and_index():
    sys = dyadic.DyadicSystem(grid.build_axis(3), 0)
    for level, index in ((True, 0), (1, 1.0), (1.5, 0), (1, "0"), (1, False)):
        with pytest.raises(ParameterError, match="must be an integer"):
            sys.cube(level, index)
    assert sys.cube(np.int64(1), np.int32(1)) == sys.cube(1, 1)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda s: dyadic.DyadicSystem(s.axis, 8), r"offset_cells must lie in \[0, 8\), got 8"),
        (lambda s: s.cube(4, 0), r"cube level must lie in \[0, 3\], got 4"),
        (lambda s: s.cube(2, 4), r"cube index must lie in \[0, 2\*\*2\), got 4"),
        (lambda s: dyadic.ancestor(s.cube(2, 1), -1), "ancestor depth must be >= 0, got -1"),
    ],
    ids=("offset", "level", "index", "ancestor-depth"),
)
def test_out_of_range_integers_are_rejected(build, message):
    with pytest.raises(ParameterError, match=message):
        build(offset0(3))


def test_cube_cells_wrap():
    sys = dyadic.DyadicSystem(grid.build_axis(3), 5)
    c = sys.cube(1, 1)  # starts at cell (5 + 4) % 8 = 1 ... wait: w=4
    assert list(c.cells()) == [(5 + 4 + j) % 8 for j in range(4)]


def test_partition_at_every_level():
    for off in (0, 3):
        sys = dyadic.DyadicSystem(grid.build_axis(4), off)
        for k in range(5):
            seen = np.zeros(16, dtype=int)
            for c in sys.cubes_at_level(k):
                seen[c.cells()] += 1
            assert np.all(seen == 1)


# ---------------------------------------------------------------------------
# navigation


def test_ancestor_examples():
    sys = offset0(3)
    c = sys.cube(2, 0)  # [0, 1/4)
    up = dyadic.ancestor(c, 1)
    assert (up.level, up.index) == (1, 0)  # [0, 1/2)
    assert dyadic.ancestor(c, 0) == c
    c2 = sys.cube(3, 3)  # [3/8, 1/2)
    up2 = dyadic.ancestor(c2, 2)
    assert (up2.level, up2.index) == (1, 0)  # [0, 1/2)


def test_ancestor_underflow():
    sys = offset0(3)
    with pytest.raises(LevelUnderflowError):
        dyadic.ancestor(sys.cube(1, 0), 2)


def test_ancestor_containment_scan():
    sys = dyadic.DyadicSystem(grid.build_axis(4), 7)
    for m in range(16):
        c = sys.cube(4, m)
        for i in range(5):
            up = dyadic.ancestor(c, i)
            assert set(c.cells()) <= set(up.cells())


def test_join_examples():
    sys = offset0(3)
    halves = dyadic.join(sys.cube(1, 0), sys.cube(1, 1))
    assert halves.level == 0
    c = sys.cube(2, 1)
    assert dyadic.join(c, c) == c
    # [0,1/8) v [1/4,3/8) -> [0,1/2)
    k = dyadic.join(sys.cube(3, 0), sys.cube(3, 2))
    assert (k.level, k.index) == (1, 0)


def test_join_against_brute_force():
    sys = dyadic.DyadicSystem(grid.build_axis(3), 5)
    n = 8
    for kI in range(4):
        for mI in range(1 << kI):
            for kJ in range(4):
                for mJ in range(1 << kJ):
                    K = dyadic.join(sys.cube(kI, mI), sys.cube(kJ, mJ))
                    ref = oracles.join_brute(n, kI, mI, kJ, mJ, 5)
                    assert (K.level, K.index) == ref


def test_join_system_mismatch():
    ax = grid.build_axis(3)
    a = dyadic.DyadicSystem(ax, 0).cube(1, 0)
    b = dyadic.DyadicSystem(ax, 1).cube(1, 0)
    with pytest.raises(SystemMismatchError):
        dyadic.join(a, b)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_nesting_property(data):
    # two cubes of one system are disjoint or nested
    off = data.draw(st.integers(0, 15))
    sys = dyadic.DyadicSystem(grid.build_axis(4), off)
    k1 = data.draw(st.integers(0, 4))
    k2 = data.draw(st.integers(0, 4))
    c1 = sys.cube(k1, data.draw(st.integers(0, (1 << k1) - 1)))
    c2 = sys.cube(k2, data.draw(st.integers(0, (1 << k2) - 1)))
    s1, s2 = set(c1.cells()), set(c2.cells())
    assert s1.isdisjoint(s2) or s1 <= s2 or s2 <= s1


# ---------------------------------------------------------------------------
# goodness


def test_good_params_r_must_be_a_positive_integer():
    # a float r would fail later inside the scan, and True would act as r = 1
    for r in (1.5, True, 0, "3"):
        with pytest.raises(ParameterError, match="r must be a positive integer"):
            dyadic.GoodParams(r)
    assert dyadic.GoodParams(np.int64(2)).r == 2


def test_good_params_gamma_must_be_real():
    for gamma in ("0.3", None, True, 0.3j):
        with pytest.raises(ParameterError, match="gamma must be a real number"):
            dyadic.GoodParams(3, gamma)
    assert dyadic.GoodParams(3, np.float64(0.3)) == dyadic.GoodParams(3, 0.3)


def test_coarse_cubes_are_good():
    params = dyadic.GoodParams(r=3, gamma=0.25)
    sys = offset0(5)
    for k in range(3):
        for c in sys.cubes_at_level(k):
            assert dyadic.is_good(c, params)


def test_cube_at_ancestor_boundary_is_bad():
    params = dyadic.GoodParams(r=3, gamma=0.25)
    sys = offset0(6)
    # first cube at level r: touches the level-0 seam, distance 0
    assert not dyadic.is_good(sys.cube(3, 0), params)


def test_goodness_census_matches_rational_oracle():
    params = dyadic.GoodParams(r=3, gamma=0.25)
    gamma = Fraction(1, 4)
    for off in (0, 11):
        sys = dyadic.DyadicSystem(grid.build_axis(8), off)
        n = 256
        for k in (3, 5, 8):
            mine = ~dyadic.bad_mask(sys, k, params)
            for m in range(1 << k):
                ref = oracles.is_good_brute(n, k, m, off, 3, gamma)
                assert mine[m] == ref
                assert dyadic.is_good(sys.cube(k, m), params) == ref


def test_goodness_census_third_gamma():
    # gamma = 1/3 exercises the rational comparator with b = 3
    params = dyadic.GoodParams(r=2, gamma=1.0 / 3.0)
    sys = offset0(6)
    for k in (2, 4, 6):
        mine = ~dyadic.bad_mask(sys, k, params)
        for m in range(1 << k):
            ref = oracles.is_good_brute(64, k, m, 0, 2, Fraction(1, 3))
            assert mine[m] == ref


@pytest.mark.parametrize(
    "gamma", (7 / 16, dyadic.default_gamma(0.3), 1 / 3, 5 / 17, dyadic.default_gamma(0.37))
)
def test_bad_mask_agrees_with_is_good_every_cube(gamma):
    # 7/16 and 5/13 compare powers past 2**62 from L = 4 and L = 5 on;
    # default_gamma(0.37) = 50/137 needs the largest denominator cap
    for r in (2, 5):
        params = dyadic.GoodParams(r=r, gamma=gamma)
        for L in range(1, 11):
            sys = dyadic.DyadicSystem(grid.build_axis(L), 0)
            for k in range(L + 1):
                good = [dyadic.is_good(sys.cube(k, m), params) for m in range(1 << k)]
                assert (~dyadic.bad_mask(sys, k, params)).tolist() == good


def test_default_gamma_takes_the_exact_threshold():
    for lam, ratio in ((0.3, (5, 13)), (0.37, (50, 137)), (0.5, (1, 3))):
        assert dyadic._gamma_ratio(dyadic.default_gamma(lam)) == ratio


def test_goodness_monotone_in_r():
    sys = offset0(7)
    for m in range(128):
        c = sys.cube(7, m)
        good3 = dyadic.is_good(c, dyadic.GoodParams(r=3, gamma=0.25))
        good4 = dyadic.is_good(c, dyadic.GoodParams(r=4, gamma=0.25))
        if good3:
            assert good4


# ---------------------------------------------------------------------------
# good fractions: the share of systems in which the cube holding a point is
# good, per system and cube (oracles.pgood_brute), against one level census


def _census_good_fraction(axis, params, level_k):
    return 1.0 - dyadic.bad_mask(dyadic.DyadicSystem(axis, 0), level_k, params).mean()


def test_pgood_translation_invariance_exhaustive():
    ax = grid.build_axis(6)
    params = dyadic.GoodParams(r=3, gamma=0.25)
    offsets = np.arange(ax.n_cells)
    a = oracles.pgood_brute(ax, params, 5, offsets, 0)
    b = oracles.pgood_brute(ax, params, 5, offsets, int(0.37 * ax.n_cells))
    assert a == b


def test_pgood_positive():
    # r=4 with gamma=31/64 keeps a positive fraction of good cubes at every
    # level (the separation threshold stays below the largest achievable
    # boundary distance at each depth >= r).
    ax = grid.build_axis(10)
    params = dyadic.GoodParams(r=4, gamma=31 / 64)
    assert _census_good_fraction(ax, params, 8) == 0.1875


def test_pgood_matches_census():
    # every offset with a fixed reference point visits every relative cube
    # position equally often, so the share of good cubes holding the point
    # must equal the good fraction of any single system's level census
    ax = grid.build_axis(9)
    params = dyadic.GoodParams(r=4, gamma=31 / 64)
    hits = oracles.pgood_brute(ax, params, 7, np.arange(ax.n_cells), 3)
    assert hits / ax.n_cells == _census_good_fraction(ax, params, 7)


def test_pgood_degenerate_combo_is_zero():
    # With r=3, gamma=1/4 the threshold at depth exactly r is
    # 2**(-3/4) ~ 0.59 of the coarse side, which exceeds the largest distance
    # any descendant can keep from its depth-3 ancestor's boundary (< 0.5 of
    # the side).  Every cube at level >= r is therefore bad and the good
    # fraction is exactly zero; positivity needs r*gamma substantially larger
    # (compare test_pgood_positive).
    ax = grid.build_axis(10)
    params = dyadic.GoodParams(r=3, gamma=0.25)
    assert _census_good_fraction(ax, params, 8) == 0.0


@settings(max_examples=30, deadline=None)
@given(
    st.integers(4, 9),
    st.integers(1, 3),
    st.sampled_from([0.25, 31 / 64, dyadic.default_gamma(0.37), 0.1 * np.pi]),
    st.floats(0.0, 1.0, exclude_max=True),
    st.integers(1, 600),
    st.integers(0, 2**32 - 1),
    st.data(),
)
def test_pgood_matches_per_offset_is_good_loop(L, r, gamma, ref_point, trials, seed, data):
    # goodness is offset-relative: the offset-0 census, read at the index of
    # the cube holding the reference cell in each system, is is_good there
    ax = grid.build_axis(L)
    params = dyadic.GoodParams(r=r, gamma=gamma)
    level_k = data.draw(st.integers(r, L))
    n = ax.n_cells
    offsets = np.random.default_rng(seed).integers(0, n, size=min(trials, n))
    ref_cell = int((ref_point % 1.0) * n) % n
    bad = dyadic.bad_mask(dyadic.DyadicSystem(ax, 0), level_k, params)
    index = ((ref_cell - offsets) % n) >> (L - level_k)
    hits = oracles.pgood_brute(ax, params, level_k, offsets, ref_cell)
    assert int(np.count_nonzero(~bad[index])) == hits


# ---------------------------------------------------------------------------
# majorant check


def _qualifying_pairs(sys, params, max_level):
    # good I, J disjoint from I, len(I) <= len(J)
    for kI in range(max_level + 1):
        for mI in range(1 << kI):
            I = sys.cube(kI, mI)
            if not dyadic.is_good(I, params):
                continue
            icells = set(I.cells())
            for kJ in range(kI + 1):
                for mJ in range(1 << kJ):
                    J = sys.cube(kJ, mJ)
                    if icells.isdisjoint(J.cells()):
                        yield I, J


def test_majorant_adjacent_siblings_near_case():
    sys = offset0(6)
    params = dyadic.GoodParams(r=3, gamma=0.25)
    # two children of one parent: distance 0, join = parent
    I = sys.cube(4, 6)
    J = sys.cube(4, 7)
    if dyadic.is_good(I, params):
        rep = dyadic.majorant_check(I, J, params, lam=0.5)
        assert rep.case == "near"
        assert rep.K.level == 3
        assert rep.holds


def test_majorant_contract_errors():
    sys = offset0(6)
    params = dyadic.GoodParams(r=3, gamma=0.25)
    bad = sys.cube(3, 0)  # touches the seam: bad
    assert not dyadic.is_good(bad, params)
    with pytest.raises(ContractError):
        dyadic.majorant_check(bad, sys.cube(2, 1), params, 0.5)
    # overlapping pair
    I = sys.cube(4, 5)
    with pytest.raises(ContractError):
        dyadic.majorant_check(I, dyadic.ancestor(I, 2), params, 0.5)
    # wrong size order
    with pytest.raises(ContractError):
        dyadic.majorant_check(sys.cube(2, 1), sys.cube(4, 12), params, 0.5)


def test_majorant_exhaustive_small():
    # Every qualifying pair satisfies its case bound when the goodness
    # exponent matches the lambda-derived one, 1/(2*(lambda+1)) = 1/3 at
    # lambda = 1/2, and r is large enough for good cubes to survive at every
    # level (r=5 here).
    sys = offset0(6)
    params = dyadic.GoodParams(r=5, gamma=dyadic.default_gamma(0.5))
    checked = 0
    cases = {"near": 0, "far": 0}
    for I, J in _qualifying_pairs(sys, params, max_level=6):
        rep = dyadic.majorant_check(I, J, params, lam=0.5)
        assert rep.holds, (I, J, rep)
        cases[rep.case] += 1
        checked += 1
    assert checked == 2052
    assert cases["near"] == 388 and cases["far"] == 1664


def test_majorant_needs_matched_exponent():
    # With a goodness exponent larger than 1/(2*(lambda+1)) goodness is a
    # weaker property and the near-case conclusion can fail: this good cube
    # sits five levels below the join forced by a nearby coarse neighbour.
    sys = dyadic.DyadicSystem(grid.build_axis(6), 13)
    params = dyadic.GoodParams(r=4, gamma=31 / 64)
    I = sys.cube(5, 6)
    J = sys.cube(1, 1)
    assert dyadic.is_good(I, params)
    rep = dyadic.majorant_check(I, J, params, lam=0.5)
    assert rep.case == "near"
    assert not rep.holds
    assert rep.lhs == 1.0 and rep.rhs == 0.5


def test_majorant_rejects_an_overlapping_pair_with_a_good_smaller_cube():
    sys = offset0(6)
    params = dyadic.GoodParams(r=3, gamma=0.25)
    I = sys.cube(2, 1)
    assert dyadic.is_good(I, params)
    with pytest.raises(ContractError, match="requires disjoint cubes"):
        dyadic.majorant_check(I, dyadic.ancestor(I, 1), params, 0.5)


@pytest.mark.parametrize(
    "check, message",
    [
        (dyadic.contains, "containment requires a shared system"),
        (
            lambda a, b: dyadic.majorant_check(a, b, dyadic.GoodParams(r=3, gamma=0.25), 0.5),
            "majorant check requires one system",
        ),
    ],
    ids=("contains", "majorant"),
)
def test_pairs_from_two_systems_are_rejected(check, message):
    ax = grid.build_axis(3)
    a, b = dyadic.DyadicSystem(ax, 0).cube(1, 0), dyadic.DyadicSystem(ax, 1).cube(1, 0)
    with pytest.raises(SystemMismatchError, match=message):
        check(a, b)


def test_majorant_far_case_compares_floats_when_gamma_is_not_a_small_fraction():
    # gamma = 1/(2 (lam + 1)) has no denominator <= 256 for this lam, so the
    # far-case bound falls back to comparing its two sides as floats
    lam = 0.123456789
    assert dyadic._gamma_ratio(dyadic.default_gamma(lam)) is None
    sys = offset0(4)
    params = dyadic.GoodParams(r=5, gamma=dyadic.default_gamma(lam))
    cases = {"near": 0, "far": 0}
    for I, J in _qualifying_pairs(sys, params, max_level=4):
        rep = dyadic.majorant_check(I, J, params, lam)
        assert rep.holds
        assert rep.case == "near" or rep.lhs <= rep.rhs
        cases[rep.case] += 1
    assert cases == {"near": 210, "far": 312}


# ---------------------------------------------------------------------------
# distances


@pytest.mark.parametrize("n", [1, 2, 3, 8, 16])
def test_arc_gap_matches_the_oracle_for_every_pair_of_arcs(n):
    arcs = [(s, w) for w in range(1, n + 1) for s in range(n)]
    want = np.array([[oracles.arc_gap_cells(n, *I, *J) for J in arcs] for I in arcs])
    ints = [[dyadic._arc_gap_cells(n, *I, *J) for J in arcs] for I in arcs]
    assert np.array_equal(ints, want)
    s, w = np.array(arcs).T
    assert np.array_equal(dyadic._arc_gap_cells(n, s[:, None], w[:, None], s, w), want)


def test_cube_distance_needs_one_axis():
    a, b = offset0(3).cube(1, 0), offset0(4).cube(1, 0)
    with pytest.raises(SystemMismatchError, match="distance requires cubes on one axis"):
        dyadic.cube_distance_cells(a, b)


def test_cube_distance_wraps():
    sys = offset0(4)
    a = sys.cube(4, 0)
    b = sys.cube(4, 15)
    assert dyadic.cube_distance_cells(a, b) == 0  # adjacent across the seam
    c = sys.cube(4, 8)
    assert dyadic.cube_distance_cells(a, c) == 7
    assert type(dyadic.cube_distance_cells(a, c)) is int

