"""Independent brute-force oracles used to pin expected test values.

Everything here is deliberately written against plain arrays and integers,
by a different route than the package takes:

* kernel integrals reduce the double integral to a single weighted 1-D
  integral (overlap-hat reduction) evaluated by adaptive quadrature, instead
  of the closed-form second antiderivative;
* weight characteristics and maximal functions use naive double/quadruple
  loops over explicit index sets instead of prefix sums or factorizations;
* goodness uses exact rational arithmetic over all (I, J) pairs;
* the representation scan builds every lattice's own Haar matrix and
  Haar-basis kernel matrix and scans its cube pairs system by system,
  instead of once on the offset-0 lattice;
* shift tables are walked entry by entry as ``DyadicCube`` triples, with
  the geometry of ``start_cell`` and ``basis_column``, instead of routed
  along an array axis.

Keep it slow and obvious.
"""

from __future__ import annotations

import functools
from fractions import Fraction

import numpy as np
from scipy import integrate

# The library names the oracles build on, and the test that pins each on its own:
#   _within_threshold  test_dyadic::test_goodness_census_matches_rational_oracle, via bad_mask
#   bad_mask, is_good  test_dyadic::test_goodness_census_matches_rational_oracle
#   RepresentationReport  none: a frozen record, it computes nothing
#   kernel_matrix  test_grid::test_kernel_matrix_entries_read_the_profile
#   basis_column  test_haar::test_haar_matrix_columns_match_functions
#   haar_synthesize  test_haar::test_transform_pair_matches_dense_haar_matrix
#   _join_level  test_dyadic::test_join_against_brute_force, via join
#   _kernel_columns  test_fracops::test_haar_kernel_blocks_match_the_dense_haar_basis_kernel
#   _pair_class  test_fracops::test_classify_partition_exhaustive, via classify_pair
from dyadica.dyadic import DyadicCube, DyadicSystem, _join_level, _within_threshold, bad_mask, is_good
from dyadica.fracops import RepresentationReport, _kernel_columns, _pair_class
from dyadica.grid import kernel_matrix
from dyadica.haar import basis_column, haar_synthesize


# ---------------------------------------------------------------------------
# kernel integrals


def torus_dist(t: float) -> float:
    """Distance from t to the nearest integer."""
    t = t % 1.0
    return min(t, 1.0 - t)


def pair_integral_quad(width, delta, lam, tol=1e-11):
    """iint K(x - y) dx dy over two width-`width` intervals, centers `delta`
    apart, for the torus kernel K(t) = d(t)**(-lam), via the overlap-hat
    reduction:

        iint_{A x B} K(x - y) = int K(t) * hat(t - delta) dt,

    hat(u) = max(width - |u|, 0).
    """
    w = float(width)

    def integrand(t):
        return torus_dist(t) ** (-lam) * max(w - abs(t - delta), 0.0)

    lo, hi = delta - w, delta + w
    # breakpoints: kernel singularities/kinks and the hat kink
    pts = [delta]
    for k in range(-3, 4):
        for s in (0.0, 0.5, -0.5):
            t = k + s
            if lo < t < hi:
                pts.append(t)
    val, _ = integrate.quad(
        integrand, lo, hi, points=sorted(set(pts)), limit=400,
        epsabs=tol, epsrel=tol,
    )
    return val


def power_cell_average_quad(level, cell, alpha, center, tol=1e-11):
    """Cell average of d(x, center)**alpha by adaptive quadrature.

    The cell is cut at the singular points center + k and at the kinks
    center + 1/2 + k.  A piece that ends at a singular point s is the
    integral of |x - s|**alpha, which QUADPACK's algebraic endpoint weight
    (``weight="alg"``) takes exactly; plain adaptive quadrature does not
    converge there for negative alpha.
    """
    n = 1 << level
    h = 1.0 / n
    a, b = cell * h, (cell + 1) * h
    singular = [center + k for k in (-1, 0, 1)]
    kinks = [center + 0.5 + k for k in (-1, 0, 1)]
    edges = sorted({a, b} | {t for t in singular + kinks if a < t < b})

    def f(x):
        return torus_dist(x - center) ** alpha

    total = 0.0
    for lo, hi in zip(edges, edges[1:]):
        if lo in singular or hi in singular:
            wvar = (alpha if lo in singular else 0.0, alpha if hi in singular else 0.0)
            val, _ = integrate.quad(lambda x: 1.0, lo, hi, weight="alg", wvar=wvar,
                                    epsabs=tol, epsrel=tol)
        else:
            val, _ = integrate.quad(f, lo, hi, limit=200, epsabs=tol, epsrel=tol)
        total += val
    return total / h


# ---------------------------------------------------------------------------
# arcs (grid-aligned circular intervals, in integer cell units)


def all_arcs(n):
    """All (start, width) grid arcs on Z_n: widths 1..n-1 with every start,
    plus the full circle once."""
    arcs = [(s, w) for w in range(1, n) for s in range(n)]
    arcs.append((0, n))
    return arcs


def arc_cells(n, start, width):
    return [(start + j) % n for j in range(width)]


def arc_mean(values, start, width):
    n = len(values)
    return sum(values[c] for c in arc_cells(n, start, width)) / width


# ---------------------------------------------------------------------------
# weight characteristics


def ap_brute(values, p, arcs=None):
    """[w]_{A_p} over grid arcs by direct double loop."""
    values = np.asarray(values, dtype=float)
    n = len(values)
    dual = values ** (1.0 - p / (p - 1.0))
    best = 0.0
    for start, width in arcs if arcs is not None else all_arcs(n):
        m1 = arc_mean(values, start, width)
        m2 = arc_mean(dual, start, width)
        best = max(best, m1 * m2 ** (p - 1.0))
    return best


def apq_brute(values, p, q, arcs=None):
    """[w]_{A_{p,q}} over grid arcs by direct double loop."""
    values = np.asarray(values, dtype=float)
    n = len(values)
    pprime = p / (p - 1.0)
    wq = values ** q
    wmp = values ** (-pprime)
    best = 0.0
    for start, width in arcs if arcs is not None else all_arcs(n):
        m1 = arc_mean(wq, start, width)
        m2 = arc_mean(wmp, start, width)
        best = max(best, m1 * m2 ** (q / pprime))
    return best


def arc_mean_batch(v, starts, width):
    """One width's arc means, each re-summed from scratch cell by cell in
    order, vectorized over the starts (the per-width batch)."""
    n = v.size
    acc = np.zeros(starts.shape, dtype=float)
    for k in range(width):
        acc = acc + v[(starts + k) % n]
    return acc / width


def char_over_family_batches(num, den, den_exp, offsets=None):
    """Max of mean(num) * mean(den)**den_exp over every arc (``offsets``
    None) or over the cubes of the lattices with these offsets, one
    per-width batch of arcs at a time."""
    n = len(num)
    if offsets is None:
        batches = [(np.arange(n), width) for width in range(1, n + 1)]
    else:
        batches = [
            ((o + np.arange(1 << k) * (n >> k)) % n, n >> k)
            for o in offsets
            for k in range(n.bit_length())
        ]
    best = -np.inf
    for starts, width in batches:
        mn = arc_mean_batch(num, starts, width)
        md = arc_mean_batch(den, starts, width)
        best = max(best, float(np.max(mn * md**den_exp)))
    return best


def product_ap_brute(values1, values2, p, arcs1=None, arcs2=None):
    """A_p characteristic of the tensor weight over all arc rectangles."""
    v1 = np.asarray(values1, dtype=float)
    v2 = np.asarray(values2, dtype=float)
    n1, n2 = len(v1), len(v2)
    w = np.outer(v1, v2)
    dual = w ** (1.0 - p / (p - 1.0))
    best = 0.0
    for s1, w1 in arcs1 if arcs1 is not None else all_arcs(n1):
        rows = arc_cells(n1, s1, w1)
        for s2, w2 in arcs2 if arcs2 is not None else all_arcs(n2):
            cols = arc_cells(n2, s2, w2)
            block = w[np.ix_(rows, cols)]
            dblock = dual[np.ix_(rows, cols)]
            best = max(best, block.mean() * dblock.mean() ** (p - 1.0))
    return best


# ---------------------------------------------------------------------------
# maximal functions


def strong_maximal_brute(values):
    """Exact strong maximal function over all arc rectangles (slow loops)."""
    f = np.abs(np.asarray(values, dtype=float))
    n1, n2 = f.shape
    out = np.zeros_like(f)
    for s1, w1 in all_arcs(n1):
        rows = arc_cells(n1, s1, w1)
        for s2, w2 in all_arcs(n2):
            cells = np.ix_(rows, arc_cells(n2, s2, w2))
            out[cells] = np.maximum(out[cells], f[cells].mean())
    return out


def gathered_means(values):
    """Per (w1, w2), the means ``[s1, s2]`` of the w1 x w2 arc rectangles at
    every counted start (the full circle once), each gathered C-ordered and
    reduced by ``mean()``: the bits of :func:`strong_maximal_brute`'s
    rectangle means, one block copy per shape."""
    a = np.abs(np.asarray(values, dtype=float))
    n1, n2 = a.shape
    wrapped = np.concatenate((a, a[: n1 - 1]), 0)
    wrapped = np.concatenate((wrapped, wrapped[:, : n2 - 1]), 1)
    # windows[s1, s2, i, j] = a[(s1 + i) % n1, (s2 + j) % n2]
    windows = np.lib.stride_tricks.sliding_window_view(wrapped, (n1, n2))
    means = {}
    for w1 in range(1, n1 + 1):
        for w2 in range(1, n2 + 1):
            c1, c2 = (n1 if w1 < n1 else 1), (n2 if w2 < n2 else 1)
            block = windows[:c1, :c2, :w1, :w2].copy()
            means[w1, w2] = block.mean(axis=(2, 3))
    return means


def carried_means_reference(values):
    """Per (w1, w2), the means ``[s1, s2]`` of the w1 x w2 arc rectangles at
    every counted start (the full circle once), each summed as a carried
    sum is: the cells of each column in order, then the column sums in
    order, and the total divided by w1 w2."""
    a = np.abs(np.asarray(values, dtype=float))
    n1, n2 = a.shape
    means = {}
    column = a  # column[s1, s2]: cells s1 .. s1 + w1 - 1 of column s2
    for w1 in range(1, n1 + 1):
        if w1 > 1:
            column = column + np.roll(a, 1 - w1, 0)
        total = column  # total[s1, s2]: those sums of columns s2 .. s2 + w2 - 1
        for w2 in range(1, n2 + 1):
            if w2 > 1:
                total = total + np.roll(column, 1 - w2, 1)
            c1, c2 = (n1 if w1 < n1 else 1), (n2 if w2 < n2 else 1)
            means[w1, w2] = total[:c1, :c2] / (w1 * w2)
    return means


def trailing_max_brute(m, w, axis):
    """``out[x] = max m[x - w + 1 .. x]`` along ``axis`` with wrap-around,
    as the max of every shifted copy."""
    return np.max([np.roll(m, t, axis) for t in range(w)], axis=0)


def dyadic_rect_maximal_brute(values, offset1, offset2):
    """Bi-parameter dyadic maximal function by looping over all rectangles
    of the (offset1, offset2) system pair."""
    f = np.abs(np.asarray(values, dtype=float))
    n1, n2 = f.shape
    L1, L2 = n1.bit_length() - 1, n2.bit_length() - 1
    out = np.zeros_like(f)
    for k1 in range(L1 + 1):
        w1 = n1 >> k1
        for m1 in range(1 << k1):
            rows = [(offset1 + m1 * w1 + j) % n1 for j in range(w1)]
            for k2 in range(L2 + 1):
                w2 = n2 >> k2
                for m2 in range(1 << k2):
                    cols = [(offset2 + m2 * w2 + j) % n2 for j in range(w2)]
                    m = f[np.ix_(rows, cols)].mean()
                    sub = out[np.ix_(rows, cols)]
                    out[np.ix_(rows, cols)] = np.maximum(sub, m)
    return out


# ---------------------------------------------------------------------------
# dyadic-system geometry (integer cell units, exact)


def cube_cells(n, level, index, offset_cells):
    w = n >> level
    return [(offset_cells + index * w + j) % n for j in range(w)]


def join_brute(n, level_i, idx_i, level_j, idx_j, offset_cells):
    """Smallest common ancestor by scanning every cube of the system."""
    ci = set(cube_cells(n, level_i, idx_i, offset_cells))
    cj = set(cube_cells(n, level_j, idx_j, offset_cells))
    L = n.bit_length() - 1
    best = None
    for k in range(L, -1, -1):
        for m in range(1 << k):
            cells = set(cube_cells(n, k, m, offset_cells))
            if ci <= cells and cj <= cells:
                best = (k, m)
        if best is not None:
            return best
    return best


def point_to_arc_dist_cells(n, p, start, width):
    """Torus distance (in cells) from lattice point p to closed arc."""
    if (p - start) % n <= width:
        return 0
    end = (start + width) % n
    return min((p - end) % n, (start - p) % n)


def boundary_dist_cells(n, i_start, i_width, j_start, j_width):
    """dist(closure(I), boundary points of J) in cells."""
    dists = []
    for p in (j_start % n, (j_start + j_width) % n):
        dists.append(point_to_arc_dist_cells(n, p, i_start % n, i_width))
    return min(dists)


def is_good_brute(n, level, index, offset_cells, r, gamma_frac: Fraction):
    """Exact goodness via Fraction arithmetic over every larger cube."""
    L = n.bit_length() - 1
    wI = n >> level
    sI = (offset_cells + index * wI) % n
    for kJ in range(0, level - r + 1):
        wJ = n >> kJ
        depth = level - kJ
        for mJ in range(1 << kJ):
            sJ = (offset_cells + mJ * wJ) % n
            d = boundary_dist_cells(n, sI, wI, sJ, wJ)
            # d/n <= 2**-kJ * (2**-depth)**gamma, compared exactly:
            # (d/n)**b <= 2**(-kJ*b - depth*a)  with gamma = a/b
            a, b = gamma_frac.numerator, gamma_frac.denominator
            lhs = Fraction(d, n) ** b
            rhs = Fraction(1, 2 ** (kJ * b + depth * a))
            if lhs <= rhs:
                return False
    return True


def arc_gap_cells(n, s1, w1, s2, w2):
    """Torus distance (cells) between two arcs; 0 if they intersect."""
    if (s2 - s1) % n < w1 or (s1 - s2) % n < w2:
        return 0
    return min((s2 - (s1 + w1)) % n, (s1 - (s2 + w2)) % n)


# ---------------------------------------------------------------------------
# product BMO


def haar_vector(n, level, index, offset_cells):
    """Plain Haar vector (cell values) for a cube of the system."""
    w = n >> level
    half = w // 2
    v = np.zeros(n)
    scale = 2.0 ** (level / 2.0)  # |I|**-0.5
    for j in range(w):
        c = (offset_cells + index * w + j) % n
        v[c] = scale if j < half else -scale
    return v


def haar_matrix_brute(system):
    """Cell-value matrix of the constant and every Haar step of ``system``,
    built cube by cube from the definition: column ``2**k + m`` holds
    ``+2**(k/2)`` on the first half of the cells of cube (k, m) and
    ``-2**(k/2)`` on the second half."""
    n = system.axis.n_cells
    H = np.zeros((n, n))
    H[:, 0] = 1.0
    for k in range(system.axis.level):
        scale = 2.0 ** (k / 2.0)
        for m in range(1 << k):
            cells = DyadicCube(system, k, m).cells()
            H[cells[: cells.size // 2], (1 << k) + m] = scale
            H[cells[cells.size // 2 :], (1 << k) + m] = -scale
    return H


def bmo_prod_brute(b_values, w_values, offset1, offset2, shapes):
    """Restricted-family product BMO norm by direct summation.

    `shapes` is a list of boolean masks on the cell grid.  For each shape the
    sum runs over all rectangles I x J (I, J cubes of the respective systems
    with children on the mesh) whose cell set is contained in the mask.
    """
    B = np.asarray(b_values, dtype=float)
    W = np.asarray(w_values, dtype=float)
    n1, n2 = B.shape
    L1, L2 = n1.bit_length() - 1, n2.bit_length() - 1
    h1, h2 = 1.0 / n1, 1.0 / n2

    rects = []
    for k1 in range(L1):
        for m1 in range(1 << k1):
            rows = cube_cells(n1, k1, m1, offset1)
            hv1 = haar_vector(n1, k1, m1, offset1)
            for k2 in range(L2):
                for m2 in range(1 << k2):
                    cols = cube_cells(n2, k2, m2, offset2)
                    hv2 = haar_vector(n2, k2, m2, offset2)
                    coef = h1 * h2 * hv1 @ B @ hv2
                    wmean = W[np.ix_(rows, cols)].mean()
                    rects.append((set(rows), set(cols), coef, wmean))

    best = 0.0
    for mask in shapes:
        mask = np.asarray(mask, dtype=bool)
        w_omega = h1 * h2 * W[mask].sum()
        if w_omega <= 0.0:
            continue
        total = 0.0
        cells = {(i, j) for i, j in zip(*np.nonzero(mask))}
        for rows, cols, coef, wmean in rects:
            if all((i, j) in cells for i in rows for j in cols):
                total += coef * coef / wmean
        best = max(best, np.sqrt(total / w_omega))
    return best


def martingale_diff_brute(values, n, level, index, offset_cells):
    """Naive one-cube martingale difference: children averages minus the
    cube average, carried on the cube."""
    cells = cube_cells(n, level, index, offset_cells)
    out = np.zeros(n)
    cube_mean = np.mean([values[c] for c in cells])
    w = len(cells)
    for part in (cells[: w // 2], cells[w // 2 :]):
        pm = np.mean([values[c] for c in part])
        for c in part:
            out[c] = pm - cube_mean
    return out


# ---------------------------------------------------------------------------
# paraproducts (the nested loop over scales, one average per level)


def level_average_brute(values, axis, level, offset_cells):
    """Level-`level` conditional expectation along array `axis`, one cube of
    the shifted lattice at a time."""
    v = np.moveaxis(np.asarray(values, dtype=float), axis, 0)
    n = v.shape[0]
    out = np.empty_like(v)
    for m in range(1 << level):
        cells = cube_cells(n, level, m, offset_cells)
        out[cells] = v[cells].mean(axis=0)
    return np.moveaxis(out, 0, axis)


def expectation_stack_reference(vals, pos, offset, levels):
    """``E_k`` along array axis ``pos`` for ``k`` in ``levels``, stacked on a
    new leading axis, by ``np.roll`` and a reshape-``mean`` per level: the
    layout whose bits the library's stack keeps."""
    v = np.roll(np.moveaxis(vals, pos, 0), -offset, axis=0)
    n = v.shape[0]
    out = np.empty((len(levels),) + v.shape)
    for i, level in enumerate(levels):
        shape = (1 << level, n >> level) + v.shape[1:]
        out[i].reshape(shape)[...] = v.reshape(shape).mean(axis=1, keepdims=True)
    return np.moveaxis(np.roll(out, offset, axis=1), 1, pos + 1)


def square_function_reference(vals, axes):
    """Square function of ``vals`` along one or two ``(array axis, offset)``
    pairs by the stack formulas: the reference stack along each pair in
    turn (for two, the rectangle table with the second pair's levels
    leading), consecutive differences along every level axis, then the
    squares summed over the first pair's levels and then the second's,
    each coarse to fine."""
    table = vals
    for pos, offset in axes:
        L = vals.shape[pos].bit_length() - 1
        at = table.ndim - vals.ndim + pos
        table = expectation_stack_reference(table, at, offset, range(L + 1))
    for j in reversed(range(len(axes))):
        table = np.diff(table, axis=j)
    squares = table**2
    for j in reversed(range(len(axes))):
        squares = functools.reduce(np.add, np.moveaxis(squares, j, 0))
    return np.sqrt(squares)


def level_scale_reference(vals, pos, offset, scales, op):
    """``op`` (``np.add`` or ``np.maximum``) folded coarse to fine over the
    levels k of ``scales[k]`` (or a scalar) times E_k along array axis
    ``pos``: the dyadic and fractional maximal functions and the scale-sum
    majorant by the stack formulas."""
    L = vals.shape[pos].bit_length() - 1
    stack = expectation_stack_reference(vals, pos, offset, range(L + 1))
    return functools.reduce(op, np.reshape(scales, (-1,) + (1,) * vals.ndim) * stack)


def chain_sum_reference(P, axes, first=2, op=np.add):
    """``haar._chain_sum`` by its earlier form: per (array axis, system) in
    ``axes``, each parent level copied twice over by ``np.repeat``, then
    folded with ``op`` into its children in place; the cells rolled back by
    the system's offset."""
    for pos, system in axes:
        v = np.moveaxis(P, pos, 0)
        for k in range(first.bit_length(), system.axis.level + 1):
            fine = v[1 << k : 2 << k]
            op(fine, np.repeat(v[1 << (k - 1) : 1 << k], 2, axis=0), out=fine)
        P = np.moveaxis(np.roll(v[system.axis.n_cells :], system.offset_cells, 0), 0, pos)
    return P


def scale_views_reference(R):
    """``haar._scale_views`` by its earlier form: each parent read gathered
    by fancy indexing with ``arange >> 1`` on both of the last two axes."""
    up1, up2 = (np.arange(size) >> 1 for size in R.shape[-2:])
    A1 = R[..., up1, :]
    D1 = R - A1
    return {
        ("A", "A"): A1[..., up2],
        ("A", "D"): A1 - A1[..., up2],
        ("D", "A"): D1[..., up2],
        ("D", "D"): D1 - D1[..., up2],
    }


def level_difference_brute(values, axis, level, offset_cells):
    return level_average_brute(values, axis, level + 1, offset_cells) - (
        level_average_brute(values, axis, level, offset_cells)
    )


# per tag: (left factor, right factor) scale kinds per axis, D = difference,
# A = average at the summation level
PARAPRODUCT_KINDS = {
    "A1": (("D", "D"), ("D", "D")),
    "A2": (("D", "D"), ("A", "D")),
    "A3": (("D", "D"), ("D", "A")),
    "A4": (("D", "D"), ("A", "A")),
    "A5": (("A", "D"), ("D", "D")),
    "A6": (("A", "D"), ("D", "A")),
    "A7": (("D", "A"), ("D", "D")),
    "A8": (("D", "A"), ("A", "D")),
    "W": (("A", "A"), ("D", "D")),
}


def _scale_op(values, axis, kind, level, offset_cells):
    if kind == "D":
        return level_difference_brute(values, axis, level, offset_cells)
    return level_average_brute(values, axis, level, offset_cells)


def paraproduct_brute(tag, b, f, offset1, offset2):
    """Tagged paraproduct of two cell tables: the sum over both scales of
    the product of the tagged scale components, accumulated level pair by
    level pair."""
    b, f = np.asarray(b, dtype=float), np.asarray(f, dtype=float)
    L1, L2 = b.shape[0].bit_length() - 1, b.shape[1].bit_length() - 1
    (b1, b2), (f1, f2) = PARAPRODUCT_KINDS[tag]
    acc = np.zeros_like(b)
    for k1 in range(L1):
        b_k1 = _scale_op(b, 0, b1, k1, offset1)
        f_k1 = _scale_op(f, 0, f1, k1, offset1)
        for k2 in range(L2):
            acc += _scale_op(b_k1, 1, b2, k2, offset2) * _scale_op(
                f_k1, 1, f2, k2, offset2
            )
    return acc


def mean_corrections_brute(b, f, offset1, offset2):
    """Mean bucket of the product split: the cross products with a
    whole-torus average in some axis, plus the product of the grand means."""
    b, f = np.asarray(b, dtype=float), np.asarray(f, dtype=float)
    L1, L2 = b.shape[0].bit_length() - 1, b.shape[1].bit_length() - 1
    acc = np.zeros_like(b)
    for axis, (offset, other), levels in (
        (0, (offset1, offset2), L1),
        (1, (offset2, offset1), L2),
    ):
        bm = level_average_brute(b, 1 - axis, 0, other)
        fm = level_average_brute(f, 1 - axis, 0, other)
        for k in range(levels):
            db = level_difference_brute(bm, axis, k, offset)
            df = level_difference_brute(fm, axis, k, offset)
            ab = level_average_brute(bm, axis, k, offset)
            af = level_average_brute(fm, axis, k, offset)
            acc += db * df + db * af + ab * df
    acc += b.mean() * f.mean()
    return acc


# ---------------------------------------------------------------------------
# representation identity


def _scan_system_brute(system, lam, params, profiles, counts, energies, cf, cg, M):
    """Accumulate class profiles, counts and energies from every ordered
    cube pair of one system (vectorized per level pair)."""
    L = system.axis.level
    n = system.axis.n_cells
    good = [~bad_mask(system, k, params) for k in range(L)]

    for kI in range(L):
        wI = n >> kI
        mI = np.arange(1 << kI)
        for kJ in range(L):
            wJ = n >> kJ
            mJ = np.arange(1 << kJ)
            A, B = np.meshgrid(mI, mJ, indexing="ij")
            A = A.ravel()
            B = B.ravel()
            lo = min(kI, kJ)
            x = (A >> (kI - lo)) ^ (B >> (kJ - lo))
            kK = lo - np.frexp(x.astype(float))[1]
            i = kI - kK
            j = kJ - kK

            colI = (1 << kI) + A
            colJ = (1 << kJ) + B
            raw = M[colJ, colI]
            contrib = np.abs(cg[colJ] * raw * cf[colI])
            flat = i * (L + 1) + j
            sums = np.bincount(flat, weights=contrib, minlength=(L + 1) ** 2)
            for idx in np.nonzero(sums)[0]:
                key = (int(idx) // (L + 1), int(idx) % (L + 1))
                energies[key] = energies.get(key, 0.0) + float(sums[idx])

            if kI < kJ:
                continue  # classes are measured on size-ordered pairs only

            good_I = good[kI][A]
            contained = x == 0
            depth = kI - kJ
            normalized = np.abs(raw) * 2.0 ** (0.5 * (kI + kJ)) * 2.0 ** (-lam * kK)

            sI = (system.offset_cells + A * wI) % n
            sJ = (system.offset_cells + B * wJ) % n
            d1 = (sJ - sI - wI) % n
            d2 = (sI - sJ - wJ) % n
            gap = np.minimum(d1, d2)
            within = _within_threshold(gap, L, kJ, depth, params.gamma)

            masks = {
                "shallow_in": contained & (depth <= params.r),
                "deep_in": contained & (depth > params.r),
                "near": ~contained & within,
                "out": ~contained & ~within,
            }
            for tag, mask in masks.items():
                sel = mask & good_I
                if not np.any(sel):
                    continue
                counts[tag] += int(sel.sum())
                prof = profiles[tag]
                for key in {(int(a), int(b)) for a, b in zip(i[sel], j[sel])}:
                    block = sel & (i == key[0]) & (j == key[1])
                    val = float(normalized[block].max())
                    if val > prof.get(key, 0.0):
                        prof[key] = val


def lattice_classes_reference(axis, lam, params):
    """The class census of the offset-0 lattice, ``(profiles, counts)``,
    block by block and per entry, where ``fracops._lattice_classes`` reads
    per-level tables: each size-ordered block gathered entry by entry from
    the kernel columns, ``C[2**kI + (a - b s) mod 2**kI, kJ]``, its join
    levels from ``_join_level`` and its decay ``2**(-lam kK)`` per entry."""
    tags = ("out", "near", "shallow_in", "deep_in")  # _pair_class's order
    L = axis.level
    lattice = DyadicSystem(axis, 0)
    C = _kernel_columns(axis, lam)
    peaks = {tag: {} for tag in tags}
    counts = dict.fromkeys(tags, 0)
    for kI in range(L):
        good = ~bad_mask(lattice, kI, params)
        a = np.arange(1 << kI)[good, None]
        for kJ in range(kI + 1):
            b = np.arange(1 << kJ)
            block = C[(1 << kI) + (a - b * (1 << (kI - kJ))) % (1 << kI), kJ]
            kK = _join_level(kI, a, kJ, b)
            normalized = np.abs(block) * 2.0 ** (0.5 * (kI + kJ)) * 2.0 ** (-lam * kK)
            tag = _pair_class(axis, kI, a, kJ, b, kK, params)
            for t, label in enumerate(tags):
                sel = tag == t
                counts[label] += int(sel.sum())
                for key in {(kI - int(k), kJ - int(k)) for k in kK[sel]}:
                    top = float(normalized[sel & (kK == kI - key[0])].max())
                    peaks[label][key] = max(peaks[label].get(key, 0.0), top)
    profiles = {}
    for label, prof in peaks.items():
        top = max(prof.values(), default=0.0)
        profiles[label] = {key: v for key, v in prof.items() if v > 1e-12 * top}
    return profiles, counts


def verify_representation_brute(f, g, lam, params, systems):
    """The representation report system by system: each lattice gets its own
    Haar matrix H, its own ``M = H.T G H``, its own coefficients and its own
    class scan, and the per-system results are accumulated."""
    axis = f.axes[0]
    scale = max(axis.h * np.sqrt(np.sum(f.values**2) * np.sum(g.values**2)), 1e-300)
    G = kernel_matrix(axis, lam)
    lhs = g.values @ G @ f.values  # <g, I_lam f>: h sum g (G f / h)

    residuals = []
    relatives = []
    profiles = {"out": {}, "near": {}, "shallow_in": {}, "deep_in": {}}
    counts = {tag: 0 for tag in profiles}
    energies = {}

    n_systems = 0
    for system in systems:
        n_systems += 1
        H = haar_matrix_brute(system)
        M = H.T @ G @ H
        cf = axis.h * (H.T @ f.values)
        cg = axis.h * (H.T @ g.values)
        total = float(cg[1:] @ M[1:, 1:] @ cf[1:])
        res = abs(lhs - total)
        residuals.append(res)
        relatives.append(res / scale)
        _scan_system_brute(system, lam, params, profiles, counts, energies, cf, cg, M)

    # an entry at most 1e-12 of its class's largest is rounding noise of a
    # coefficient that vanishes in exact arithmetic
    for tag, prof in profiles.items():
        top = max(prof.values(), default=0.0)
        profiles[tag] = {key: v for key, v in prof.items() if v > 1e-12 * top}

    constants = {}
    for tag, prof in profiles.items():
        if not prof:
            continue
        if tag in ("out", "deep_in"):
            constants[tag] = max(
                v * 2.0 ** (0.5 * max(i, j)) for (i, j), v in prof.items()
            )
        else:
            constants[tag] = max(prof.values())

    return RepresentationReport(
        lam=lam,
        params=params,
        n_systems=n_systems,
        residuals=tuple(residuals),
        relative_residuals=tuple(relatives),
        pair_energies=energies,
        class_profiles=profiles,
        class_constants=constants,
        class_counts=counts,
    )


# ---------------------------------------------------------------------------
# shift tables, one cube triple at a time


def shift_entries(table, system):
    """The ``(I, J, K, a)`` entries of a heap-ordered shift table: row c is
    the cube K at Haar column c, and ``coeffs[c, dJ, dI]`` the coefficient
    of the I ``dI``-th and the J ``dJ``-th below K."""
    for c in range(1, table.coeffs.shape[0]):
        kK = c.bit_length() - 1
        K = system.cube(kK, c - (1 << kK))
        for dI in range(1 << table.i):
            I = system.cube(kK + table.i, (K.index << table.i) + dI)
            for dJ in range(1 << table.j):
                J = system.cube(kK + table.j, (K.index << table.j) + dJ)
                yield I, J, K, float(table.coeffs[c, dJ, dI])


def maximal_entries_brute(system, i, j, lam):
    """The maximal table as a mapping of cube triples to their size bound."""
    L = system.axis.level
    entries = {}
    for kK in range(L - max(i, j)):
        a = 2.0 ** (-0.5 * (kK + i) - 0.5 * (kK + j) + lam * kK)
        for mK in range(1 << kK):
            K = system.cube(kK, mK)
            for dI in range(1 << i):
                I = system.cube(kK + i, (mK << i) + dI)
                for dJ in range(1 << j):
                    J = system.cube(kK + j, (mK << j) + dJ)
                    entries[(I, J, K)] = a
    return entries


def route_brute(table, system, cf):
    """Each entry adds its coefficient times the I Haar coefficient into
    the J direction."""
    out = np.zeros_like(cf)
    for I, J, _K, a in shift_entries(table, system):
        out[basis_column(J)] += a * cf[basis_column(I)]
    return out


def apply_shift_brute(values, system, table):
    """The shift of a table applied to cell values through the dense Haar
    matrix: ``H route(h H.T v)``."""
    H = haar_matrix_brute(system)
    return H @ route_brute(table, system, system.axis.h * H.T @ values)


def shift_matrix_brute(system, table):
    """Dense matrix of the shift, one entry per table coefficient placed
    at its (J, I) Haar columns, then synthesized along both axes."""
    n = system.axis.n_cells
    C = np.zeros((n, n))
    for I, J, _K, a in shift_entries(table, system):
        C[basis_column(J), basis_column(I)] += a
    return system.axis.h * haar_synthesize(haar_synthesize(C, system, 0), system, 1)


def leftover_term_brute(Tb, f_values, table1, table2, sys1, sys2):
    """Leftover term of the shift commutator expansion, one pair of table
    entries at a time, the symbol read from its rectangle table ``Tb`` at
    each rectangle's start cells."""
    H1, H2 = haar_matrix_brute(sys1), haar_matrix_brute(sys2)
    Fc = sys1.axis.h * sys2.axis.h * (H1.T @ f_values @ H2)
    Ecoef = np.zeros_like(Fc)
    entries2 = list(shift_entries(table2, sys2))
    for I, J, _K, a1 in shift_entries(table1, sys1):
        cI, cJ = I.start_cell, J.start_cell
        for S, T, _V, a2 in entries2:
            cS, cT = S.start_cell, T.start_cell
            b_is = Tb[I.level, S.level, cI, cS]
            b_it = Tb[I.level, T.level, cI, cT]
            b_js = Tb[J.level, S.level, cJ, cS]
            b_jt = Tb[J.level, T.level, cJ, cT]
            Ecoef[basis_column(J), basis_column(T)] += (
                a1 * a2 * (-b_is + b_it + b_js - b_jt) * Fc[basis_column(I), basis_column(S)]
            )
    return H1 @ Ecoef @ H2.T


# ---------------------------------------------------------------------------
# goodness census


def pgood_brute(axis, params, level_k, offsets, ref_cell):
    """Number of offsets whose level-``level_k`` cube holding ``ref_cell``
    is good, one system and one cube at a time."""
    n = axis.n_cells
    hits = 0
    for off in offsets:
        system = DyadicSystem(axis, int(off))
        m = ((ref_cell - int(off)) % n) >> (axis.level - level_k)
        hits += is_good(DyadicCube(system, level_k, m), params)
    return hits
