"""Maximal functions, square functions, mixed norms, and the restricted
product-BMO norm.

The strong maximal function scans every grid-aligned (wrap-aware) arc
rectangle: the mean of every window, then per cell the largest mean of a
window containing it.  One engine serves every size: ``_window_folds``
carries window sums of |f| across widths, a group of row widths per array,
rows and columns alike through the weights' arc sum (``grid._arc_folds``), and
``_spread_folds`` spreads each group's window values to the cells.  Every
term is >= 0, so each carried mean is within ``_carry_gap`` of the naive
block mean, and a one-cell window is exact; arcs count by ``grid._arc_count``.
Every call spreads the carried means once, in the grid's own frame, and
above 256 cells that is the answer.  Up to 256 cells each mean is the
block mean a loop over rectangles gives (the window's cells gathered
C-ordered, reduced by ``mean()``), bit for bit: only the windows whose
carried means can still reach a cell's maximum are gathered, about one per
cell on most grids and every window where the means tie, by one rule, the
kept starts of each shape in chunks of bounded size.  The fractional
maximal function folds heap-ordered cube means to the cells with
``haar._chain_sum`` (``haar._level_fold``).

The product-BMO norm is a maximum over a finite family of shapes, each a
union of cells; on the discrete mesh every such union is admissible
because single cells are themselves dyadic rectangles.  The value is a
lower bound for the full supremum and is monotone in the family.  On the
torus the whole square is itself a dyadic rectangle, the product of the
two level-0 cubes, so the default family counts it once, among the rest.

Every function here that takes dyadic systems checks them with
:func:`dyadica.dyadic._placed`, and the modes of :func:`square_function`
are one table, ``_MODES``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .dyadic import DyadicSystem, _placed
from .errors import ParameterError, ShapeError
from .fracops import _frac_scales, _scale_fold_ratio
from .grid import GridFunction, _arc_count, _arc_folds, _check_integers, _check_lambda, _shifted
from .haar import _axis_position, _chain_sum, _cube_means, _level_fold, _parents, _pyramid
from .haar import column_cubes, haar_analyze, haar_function
from .weights import ProductWeight, Weight

__all__ = [
    "OmegaFamily",
    "bmo_prod_norm",
    "bmo_prod_rect_norm",
    "default_omega_family",
    "frac_maximal",
    "frac_maximal_domination",
    "mixed_norm",
    "square_function",
    "strong_maximal",
]

# up to this many cells, each window's mean is its gathered C-ordered mean(),
# the bits of a loop over rectangles; only the windows that can set a cell's
# bits are gathered (about one per cell on most grids, all where means tie).
# Above it, the carried means are the answer
_GATHER_CELLS = 256
# window-mean arrays spread together along an axis; a fold array holds at most
# _SPREAD_CHUNK * _GATHER_CELLS windows
_SPREAD_CHUNK = 16


# -- strong maximal function ----------------------------------------------


def _counted(V: np.ndarray, lo: int, w2: int) -> np.ndarray:
    """``V[w1 - 1 - lo, s1, s2]`` per w1 x w2 window, set to 0 (False) in place
    past :func:`_arc_count`'s starts; only a group's widest w1 can be full."""
    n1, n2 = V.shape[1:]
    c1, c2 = _arc_count(n1, lo + len(V)), _arc_count(n2, w2)
    if c1 < n1:
        V[-1, c1:] = 0
    if c2 < n2:
        V[..., c2:] = 0
    return V


def _carry_gap(a: np.ndarray) -> float:
    """A bound on |carried - gathered| for the mean of each window of
    ``a >= 0``, while no window sum nears overflow.

    A window of w1 x w2 cells has N = w1 w2 of them, exact sum S and mean
    mu = S / N; u = eps / 2 and gamma_k = k u / (1 - k u).  With gradual
    underflow a sum of floats rounds with relative error at most u and never
    underflows; a quotient may also lose 2**-1075 to underflow.  Every term
    is >= 0, so (Higham, *Accuracy and Stability of Numerical Algorithms*,
    2002, sec. 4.2 and Lemma 3.3):

    - the carried sum of :func:`_window_folds` adds the w1 cells of each
      column, then the w2 column sums, one at a time: relative error
      gamma_(w1 + w2 - 2), and with the division the mean's is
      gamma_(w1 + w2 - 1), plus 2**-1075;
    - ``mean()`` adds the N cells along a tree of N - 1 additions, each cell
      through at most N - 1 of them, and divides: gamma_N, plus 2**-1075.

    So |carried - gathered| <= (gamma_(w1 + w2 - 1) + gamma_N) mu + 2**-1074
    <= gamma_(n1 n2 + n1 + n2) max(a) + 2**-1074, and gamma_k <= (k eps / 2)
    (1 + k eps).  The bound returned, (n1 n2 + n1 + n2 + 2) (eps max(a) +
    2**-1074), is about twice that: room for the rounding of the tests that
    use it."""
    n1, n2 = a.shape
    return (a.size + n1 + n2 + 2) * (np.finfo(float).eps * a.max() + 2.0**-1074)


def _window_folds(a: np.ndarray, op):
    """``op`` folded over every window of ``a``: the cells of each column of
    the window in order, then the columns in order, both carried by
    :func:`dyadica.grid._arc_folds`.  Row widths go in groups from the
    narrowest, each small enough that a fold array holds at most
    ``_SPREAD_CHUNK * _GATHER_CELLS`` windows (``_SPREAD_CHUNK`` row widths
    up to that many cells).  Per group, ``(lo, folds)``: ``folds``, the column
    carry of the group's row folds, yields per column width w2 from 1 the
    running array ``F[w1 - 1 - lo, s1, s2]`` of the w1 x w2 windows at lower
    corner (s1, s2).  Read each before the next.  The full circle appears at
    every start."""
    group = max(1, min(_SPREAD_CHUNK, _SPREAD_CHUNK * _GATHER_CELLS // a.size))
    rows = _arc_folds(a.T.copy(), op)  # per w1, [s2, s1]: rows s1 .. s1 + w1 - 1
    for lo in range(0, len(a), group):
        F = np.empty((min(group, len(a) - lo),) + a.shape)
        for out, R in zip(F, rows):  # copied once, before _arc_folds overwrites it
            out[...] = R.T
        yield lo, _arc_folds(F, op)


def _fold_means(a: np.ndarray):
    """The carried window means of ``a >= 0``, in :func:`_window_folds`' order:
    per group ``(lo, means)``, and ``means`` yields a new array per column
    width, :func:`_counted`.  Each mean is within :func:`_carry_gap` of its
    window's ``mean()``, and a one-cell window's is exact."""
    n1, n2 = a.shape
    # cells[w2 - 1, w1 - 1]: the cells of a w1 x w2 window
    cells = np.multiply.outer(np.arange(1.0, n2 + 1), np.arange(1.0, n1 + 1))[..., None, None]

    def means(lo, folds):
        for w2, F in enumerate(folds, 1):
            yield _counted(F / cells[w2 - 1, lo : lo + len(F)], lo, w2)

    for lo, folds in _window_folds(a, np.add):
        yield lo, means(lo, folds)


def _spread_folds(groups) -> np.ndarray:
    """Per cell, the largest value of a window containing it, from window
    arrays grouped as :func:`_window_folds` yields them: along the second
    axis, then along the first within the group."""
    out = None
    for lo, folds in groups:
        rows = _widest_containing(folds, 2)  # rows[w1 - 1 - lo, s1, x2]
        out = _widest_containing(rows, 0, lo + 1, out)
    return out


def _gathered(windows, lo: int, w2: int, keep: np.ndarray) -> np.ndarray:
    """The C-ordered ``mean()`` of each w1 x w2 window that
    ``keep[w1 - 1 - lo, s1, s2]`` marks, 0 for the others.  ``windows[s1,
    s2, i, j] = a[s1 + i, s2 + j]`` views the grid.  The kept starts of each
    row width go in chunks, each copy at most four fold arrays (128 KiB)."""
    out = np.zeros(keep.shape)
    for k in np.flatnonzero(keep.any(axis=(1, 2))):
        w1 = lo + k + 1
        s1, s2 = np.nonzero(keep[k])
        chunk = 4 * _SPREAD_CHUNK * _GATHER_CELLS // (w1 * w2)
        for c in range(0, len(s1), chunk):
            part = s1[c : c + chunk], s2[c : c + chunk]
            # each window copied C-ordered, as a gather of it is, and freed once reduced
            index = part + (slice(w1), slice(w2))
            out[(k,) + part] = np.ascontiguousarray(windows[index]).mean(axis=(-2, -1))
    return out


def _gathered_maximal(a: np.ndarray, approx: np.ndarray) -> np.ndarray:
    """The strong maximal function of ``a >= 0``, each window mean the
    C-ordered ``mean()`` of its gathered cells, gathering only the windows
    that can set a cell's bits.

    ``approx``, the spread of the carried means, is within delta =
    :func:`_carry_gap` of the exact maximum M at every cell.  Let W attain
    M(x) at a cell x in it.  Then carried(W) >= M(x) - delta >= approx(x) -
    2 delta >= min over W of approx - 2 delta, so W passes the test that
    picks the windows to gather.  No other window exceeds M at its cells and
    every mean is >= 0, so the 0 of a window left out changes no cell's
    maximum.  If a carried mean reaches max_float / (4 n1 n2), some window
    sum might overflow (to the inf that ``with_values`` refuses) in one
    order and not the other, so every window is gathered; below it, every
    exact sum is under about max_float / 4 and neither order overflows.
    """
    n1, n2 = a.shape
    wrapped = np.concatenate((a, a[: n1 - 1]), 0)
    wrapped = np.concatenate((wrapped, wrapped[:, : n2 - 1]), 1)
    # windows[s1, s2, i, j] = a[(s1 + i) % n1, (s2 + j) % n2], read-only, without
    # sliding_window_view's checks (a tenth of a 2 x 2 call)
    windows = as_strided(wrapped, (n1, n2) * 2, wrapped.strides * 2, writeable=False)
    margin = 2 * _carry_gap(a)
    gather_all = approx.max() >= np.finfo(float).max / (4 * a.size)

    def exact(lo, means, lows):
        for w2, (m, low) in enumerate(zip(means, lows), 1):
            keep = _counted(gather_all | (m >= low - margin), lo, w2)
            yield _gathered(windows, lo, w2, keep)

    groups = zip(_fold_means(a), _window_folds(approx, np.minimum))
    return _spread_folds((lo, exact(lo, m, low)) for (lo, m), (_, low) in groups)


def _trailing_max(m: np.ndarray, w: int, axis: int) -> np.ndarray:
    """``out[x] = max m[x - w + 1 .. x]`` along ``axis`` with wrap-around: the
    span doubles per shift, and overlapping spans change no bits."""
    span = 1
    while span < w:
        m = np.maximum(m, _shifted(m, min(span, w - span), axis))
        span = min(2 * span, w)
    return m


def _widest_containing(means, axis: int, lo: int = 1, out=None) -> np.ndarray:
    """Per cell, the largest ``means[w - lo][s]`` over the windows ``s .. s +
    w - 1`` along ``axis`` that contain it, wrap-around, and ``out``'s value
    if given (updated in place); ``means`` may be a generator of same-shape
    arrays in width order from ``lo``.  Per chunk of widths, from its widest
    width down, the running max over widths above ``t`` is shifted by ``t``;
    the shifts below the chunk's narrowest width take the chunk's max at
    once.  Max is exact, so the order changes no bits."""
    means = iter(means)
    while chunk := list(itertools.islice(means, _SPREAD_CHUNK)):
        wider = chunk[-1].copy()
        if out is None:
            out = np.zeros(wider.shape)
        for t in range(lo + len(chunk) - 2, lo - 1, -1):
            np.maximum(out, _shifted(wider, t, axis), out=out)
            np.maximum(wider, chunk[t - lo], out=wider)
        np.maximum(out, _trailing_max(wider, lo, axis), out=out)
        lo += len(chunk)  # the next chunk's narrowest width
    return out


def strong_maximal(f: GridFunction) -> GridFunction:
    """Max over all grid-aligned rectangles of the rectangle average of |f|
    at every cell the rectangle covers: exact up to ``_GATHER_CELLS`` = 256
    cells, and above them within :func:`_carry_gap` of exact.

    The carried means are spread once.  Above 256 cells that is the answer:
    each window's mean is within :func:`_carry_gap` of its block ``mean()``,
    and a one-cell window's is exact.  Up to 256 cells
    :func:`_gathered_maximal` refines it to the block ``mean()``, the bits
    of a loop over rectangles."""
    if f.ndim != 2:
        raise ShapeError("strong maximal needs a two-axis function")
    a = np.abs(f.values)
    approx = _spread_folds(_fold_means(a))
    if a.size > _GATHER_CELLS:
        return f.with_values(approx)
    return f.with_values(_gathered_maximal(a, approx))


# -- fractional maximal function ------------------------------------------


def frac_maximal(
    f: GridFunction, system: DyadicSystem, lam: float, axis_index=None
) -> GridFunction:
    """Max over dyadic cubes of |I|**(-lam) * integral of |f| over I.

    Acts along one axis; pointwise dominated by the smoothing operator of
    the same order applied to |f| (see :func:`frac_maximal_domination`).
    """
    pos = _axis_position(f, system, axis_index)
    scales = _frac_scales(_check_lambda(lam), system.axis.level)
    return f.with_values(_level_fold(np.abs(f.values), system, pos, scales, np.maximum))


def frac_maximal_domination(f: GridFunction, system: DyadicSystem, lam: float) -> float:
    """Grid max of the ratio (fractional maximal of f) / (smoothing of |f|).

    The finiteness and resolution-stability of this constant is the
    discrete form of the pointwise domination of the maximal function by
    the positive smoothing operator.
    """
    return _scale_fold_ratio(f, system, lam, np.maximum)


# -- square functions -----------------------------------------------------


# the modes of square_function: the function's axes and the (array axis, index
# into the systems) of each system that acts, for dyadica.dyadic._placed;
# index -1 is the second of a pair, or the one system
_MODES = {
    "sole": (1, ((0, 0),)),
    "axis1": (2, ((0, 0),)),
    "axis2": (2, ((1, -1),)),
    "rect": (2, ((0, 0), (1, 1))),
}


def square_function(f: GridFunction, systems, mode: str) -> GridFunction:
    """Pointwise l2 aggregate of martingale differences.

    Modes: ``"sole"`` (one-axis), ``"axis1"``/``"axis2"`` (one parameter of
    a two-axis function), ``"rect"`` (both parameters jointly).  Each takes
    the cube means along its axes (the pyramid for ``"rect"``), one parent
    step per axis, and the chain sum of the squares from column 2.
    """
    if mode not in ("sole", "axis1", "axis2", "rect"):
        raise ParameterError(f"unknown mode {mode!r}")
    axes = _placed(f, systems, *_MODES[mode])
    (pos, system), *_ = axes
    if mode == "rect":
        diffs = _pyramid(f.values, system, axes[1][1])
    else:
        diffs = _cube_means(f.values, system, pos)
    for pos, _ in axes:
        diffs = diffs - _parents(diffs, pos)
    return f.with_values(np.sqrt(_chain_sum(diffs**2, axes)))


# -- mixed norms ----------------------------------------------------------


def mixed_norm(
    f: GridFunction,
    p1: float,
    p2: float,
    w1: Optional[Weight] = None,
    w2: Optional[Weight] = None,
) -> float:
    """Inner L^p1(w1) norm in the first variable, then outer L^p2(w2) norm.

    The weights are measures: callers pass already-exponentiated densities.
    Omitted weights default to Lebesgue measure.
    """
    if f.ndim != 2:
        raise ShapeError("mixed norm needs a two-axis function")
    for name, p in (("p1", p1), ("p2", p2)):
        if not 1.0 <= p < np.inf:
            raise ParameterError(f"{name} must be finite and at least 1, got {p}")
    ax1, ax2 = f.axes
    for w, ax, name in ((w1, ax1, "w1"), (w2, ax2, "w2")):
        if w is not None and w.axis != ax:
            raise ShapeError(f"{name} lives on the wrong axis")
    return float(_mixed_norms(f.values, f.axes, p1, p2, w1, w2))


def _mixed_norms(V: np.ndarray, axes, p1, p2, w1, w2) -> np.ndarray:
    """:func:`mixed_norm` of each value table on the last two axes of ``V``,
    one norm per table (a 0-d array for one table); the caller has checked
    the exponents and the weights' axes."""
    ax1, ax2 = axes
    d1 = np.ones(ax1.n_cells) if w1 is None else w1.values
    d2 = np.ones(ax2.n_cells) if w2 is None else w2.values
    inner = ((np.abs(V) ** p1 * d1[:, None]).sum(axis=-2) * ax1.h) ** (1.0 / p1)
    outer = (inner**p2 * d2).sum(axis=-1) * ax2.h
    # the last root per table, as a scalar: numpy's power over a vector may
    # round the last bit differently from its power of one scalar
    return np.reshape([t ** (1.0 / p2) for t in np.ravel(outer)], np.shape(outer))


# -- restricted product BMO -----------------------------------------------


@dataclass(frozen=True)
class OmegaFamily:
    """Finite family of shapes (boolean cell masks) for the product-BMO sup.

    Each shape must contain at least one cell; any union of cells is
    admissible on the mesh since single cells are dyadic rectangles.
    """

    shapes: Tuple[np.ndarray, ...]

    def __post_init__(self):
        if not self.shapes:
            raise ParameterError("shape family is empty")
        for mask in self.shapes:
            if mask.dtype != bool or mask.ndim != 2:
                raise ParameterError("shapes must be two-axis boolean masks")
            if not mask.any():
                raise ParameterError("every shape needs positive measure")


def _carrying_cubes(system: DyadicSystem):
    """The cubes of ``system`` that carry a Haar step, coarse to fine."""
    return [c for k in range(system.axis.level) for c in system.cubes_at_level(k)]


def _rect_mask(n1, n2, rows, cols):
    mask = np.zeros((n1, n2), dtype=bool)
    mask[np.ix_(rows, cols)] = True
    return mask


def default_omega_family(
    system1: DyadicSystem,
    system2: DyadicSystem,
    lshapes: int = 0,
    seed: int = 0,
) -> OmegaFamily:
    """Every coefficient-carrying rectangle of the pair, the whole square
    (the level-(0, 0) rectangle) among them, and optionally some
    two-rectangle unions (random, reproducible)."""
    _check_integers(lshapes=lshapes, seed=seed)
    n1, n2 = system1.axis.n_cells, system2.axis.n_cells
    cols = [J.cells() for J in _carrying_cubes(system2)]
    rects = [(I.cells(), c) for I in _carrying_cubes(system1) for c in cols]
    shapes = [_rect_mask(n1, n2, rows, cols) for rows, cols in rects]
    rng = np.random.default_rng(seed)
    for _ in range(lshapes):
        i, j = rng.integers(0, len(rects), size=2)
        shapes.append(
            _rect_mask(n1, n2, *rects[i]) | _rect_mask(n1, n2, *rects[j])
        )
    return OmegaFamily(tuple(shapes))


def _haar_rectangles(b: GridFunction, weight_vals, system1, system2):
    """(rows, cols, coefficient, weight mean) for each rectangle pair."""
    B = b.values
    h1, h2 = system1.axis.h, system2.axis.h
    out = []
    columns = [
        (J.cells().tolist(), haar_function(J).values) for J in _carrying_cubes(system2)
    ]
    for I in _carrying_cubes(system1):
        rows, hv1 = I.cells().tolist(), haar_function(I).values
        for cols, hv2 in columns:
            coef = h1 * h2 * (hv1 @ B @ hv2)
            wmean = weight_vals[np.ix_(rows, cols)].mean()
            out.append((rows, cols, coef, wmean))
    return out


def bmo_prod_norm(b: GridFunction, w: ProductWeight, systems, family: OmegaFamily) -> float:
    """Restricted-family lower bound for the weighted product-BMO norm.

    Max over the family of sqrt of (1/weight(shape)) times the sum, over
    rectangles inside the shape, of coefficient**2 / rectangle weight mean.
    Monotone nondecreasing under family enlargement.
    """
    weight_axes = (w.factor1.axis, w.factor2.axis)
    (_, system1), (_, system2) = _placed(b, systems, 2, grids=(weight_axes,))
    wv = w.evaluate().values
    vol = system1.axis.h * system2.axis.h
    rects = _haar_rectangles(b, wv, system1, system2)
    best = 0.0
    for mask in family.shapes:
        if mask.shape != wv.shape:
            raise ShapeError("shape mask does not match the grid")
        w_omega = vol * wv[mask].sum()
        total = 0.0
        for rows, cols, coef, wmean in rects:
            if np.all(mask[np.ix_(rows, cols)]):
                total += coef * coef / wmean
        best = max(best, np.sqrt(total / w_omega))
    return float(best)


def bmo_prod_rect_norm(b: GridFunction, w: ProductWeight, systems) -> float:
    """Product-BMO lower bound over single-rectangle shapes (the whole
    square is the level-(0, 0) one), with the weight's rectangle means
    taken from its factors.

    Fast equivalent of :func:`bmo_prod_norm` over :func:`default_omega_family`:
    the energy inside each rectangle is the sum over its descendants,
    carried from fine levels to coarse ones by one heap sweep per axis.
    """
    weight_axes = (w.factor1.axis, w.factor2.axis)
    (_, system1), (_, system2) = _placed(b, systems, 2, grids=(weight_axes,))
    W = _rect_weight_means(w, system1, system2)
    return float(_bmo_prod_rect(b.values, W, system1, system2))


def _rect_weight_means(w: ProductWeight, system1: DyadicSystem, system2: DyadicSystem):
    """The weight's means over every dyadic rectangle, ``W[c1, c2]`` at
    heap columns (row and column 0 zero, ``W[1, 1]`` the whole square):
    everything :func:`_bmo_prod_rect` reads of the weight.  The weight is a
    tensor product, so each is a product of cube means."""
    return np.outer(
        _cube_means(w.factor1.values, system1, 0), _cube_means(w.factor2.values, system2, 0)
    )


def _bmo_prod_rect(B: np.ndarray, W: np.ndarray, system1, system2) -> np.ndarray:
    """:func:`bmo_prod_rect_norm` of each value table on the last two axes of
    ``B`` against a weight's :func:`_rect_weight_means` ``W``, one norm per
    table (a 0-d array for one table); the caller has checked the axes."""
    Fc = haar_analyze(haar_analyze(B, system1, -2), system2, -1)
    W = W[1 : Fc.shape[-2], 1 : Fc.shape[-1]]
    # coefficient**2 / weight mean per rectangle (heap column c at row c - 1),
    # carried to every ancestor: along the second axis, then the first, from
    # fine to coarse.  Cube c has children 2c and 2c + 1; every term is >= 0.
    S = Fc[..., 1:, 1:] ** 2 / W
    for pos, system in ((-1, system2), (-2, system1)):
        v = np.moveaxis(S, pos, 0)
        for k in range(system.axis.level - 2, -1, -1):
            c = 1 << k
            v[c - 1 : 2 * c - 1] += v[2 * c - 1 : 4 * c - 1 : 2] + v[2 * c : 4 * c - 1 : 2]
    levels = (column_cubes(np.arange(1, s.axis.n_cells), s)[0] for s in (system1, system2))
    w_omega = np.outer(*(2.0**-k for k in levels)) * W  # exact scaling
    return np.sqrt(np.max(S / w_omega, axis=(-2, -1)))
