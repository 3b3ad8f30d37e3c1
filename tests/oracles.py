"""Independent brute-force oracles used to pin expected test values.

Everything here is deliberately written against plain arrays and integers,
by a different route than the package takes:

* kernel integrals reduce the double integral to a single weighted 1-D
  integral (overlap-hat reduction) evaluated by adaptive quadrature, instead
  of the closed-form second antiderivative;
* weight characteristics and maximal functions use naive double/quadruple
  loops over explicit index sets instead of prefix sums or factorizations;
* goodness uses exact rational arithmetic over all (I, J) pairs.

Keep it slow and obvious.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
from scipy import integrate


# ---------------------------------------------------------------------------
# kernel integrals


def torus_dist(t: float) -> float:
    """Distance from t to the nearest integer."""
    t = t % 1.0
    return min(t, 1.0 - t)


def pair_integral_quad(width, delta, lam, wrap=True, tol=1e-11):
    """iint K(x - y) dx dy over two width-`width` intervals, centers `delta`
    apart, via the overlap-hat reduction:

        iint_{A x B} K(x - y) = int K(t) * hat(t - delta) dt,

    hat(u) = max(width - |u|, 0).  `wrap=True` uses the torus kernel
    d(t)**(-lam); `wrap=False` the line kernel |t|**(-lam).
    """
    w = float(width)

    if wrap:
        kern = lambda t: torus_dist(t) ** (-lam)
    else:
        kern = lambda t: abs(t) ** (-lam)

    def integrand(t):
        return kern(t) * max(w - abs(t - delta), 0.0)

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
            cols = arc_cells(n2, s2, w2)
            m = f[np.ix_(rows, cols)].mean()
            sub = out[np.ix_(rows, cols)]
            out[np.ix_(rows, cols)] = np.maximum(sub, m)
    return out


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
