"""Maximal functions, square functions, mixed norms, and the restricted
product-BMO norm.

The strong maximal function scans every grid-aligned (wrap-aware) arc
rectangle one window shape at a time: the mean of every window, then per
cell the largest mean of a window containing it.  Up to 256 cells the
means come from one gather per shape, reduced like a naive block mean and
so bit-reproducible against a loop over rectangles; larger grids take
them from prefix sums, which agree to rounding.  The bi-parameter dyadic
maximal function gathers its rectangles the same way at every size.

The product-BMO norm is a maximum over a finite family of shapes, each a
union of cells; on the discrete mesh every such union is admissible
because single cells are themselves dyadic rectangles.  The value is a
lower bound for the full supremum and is monotone in the family.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from scipy.ndimage import maximum_filter

from .dyadic import DyadicCube, DyadicSystem
from .errors import DegenerateInputError, ParameterError, ShapeError
from .fracops import frac_integral
from .grid import GridFunction, inner_product
from .haar import haar_function, haar_matrix, level_average, level_difference
from .weights import ProductWeight, Weight

__all__ = [
    "DualityReport",
    "OmegaFamily",
    "bmo_prod_norm",
    "bmo_prod_rect_norm",
    "default_omega_family",
    "duality_check",
    "dyadic_maximal",
    "frac_maximal",
    "frac_maximal_domination",
    "mixed_norm",
    "square_function",
    "strong_maximal",
]

# up to this many cells, gather every window (bit-exact; work ~ cells**3)
_GATHER_CELLS = 256


# -- strong maximal function ----------------------------------------------


def _arc_count(n: int, width: int) -> int:
    """Starts 0 .. count-1 of the width-``width`` arcs on Z_n: every start,
    except that the full circle counts once."""
    return n if width < n else 1


def _gathered_means(a: np.ndarray):
    """Window means by one gather per shape, reduced like a naive block
    ``mean()`` so that the bits match a loop over rectangles."""
    n1, n2 = a.shape

    def means(w1, w2):
        r = (np.arange(_arc_count(n1, w1))[:, None] + np.arange(w1)) % n1
        c = (np.arange(_arc_count(n2, w2))[:, None] + np.arange(w2)) % n2
        return a[r[:, None, :, None], c[None, :, None, :]].mean(axis=(2, 3))

    return means


def _prefix_sum_means(a: np.ndarray):
    """Window means from doubled 2-D prefix sums (agree to rounding)."""
    n1, n2 = a.shape
    S = np.zeros((2 * n1 + 1, 2 * n2 + 1))
    S[1:, 1:] = np.tile(a, (2, 2)).cumsum(axis=0).cumsum(axis=1)

    def means(w1, w2):
        k1, k2 = _arc_count(n1, w1), _arc_count(n2, w2)
        sums = (
            S[w1 : w1 + k1, w2 : w2 + k2]
            - S[:k1, w2 : w2 + k2]
            - S[w1 : w1 + k1, :k2]
            + S[:k1, :k2]
        )
        return sums / (w1 * w2)

    return means


def _window_max_containing(scores: np.ndarray, w1: int, w2: int) -> np.ndarray:
    """Per cell, the max score over windows of shape (w1, w2) containing it.

    ``scores[s1, s2]`` belongs to the window with lower corner (s1, s2); the
    windows containing cell x start in ``[x - w + 1, x]`` along each axis.
    """
    centered = maximum_filter(scores, size=(w1, w2), mode="wrap")
    d1 = (w1 - 1) - w1 // 2
    d2 = (w2 - 1) - w2 // 2
    return np.roll(centered, (d1, d2), axis=(0, 1))


def strong_maximal(f: GridFunction) -> GridFunction:
    """Exact max over all grid-aligned rectangles of the rectangle average
    of |f|, evaluated at every cell the rectangle covers."""
    if f.ndim != 2:
        raise ShapeError("strong maximal needs a two-axis function")
    a = np.abs(f.values)
    n1, n2 = a.shape
    means = _gathered_means(a) if a.size <= _GATHER_CELLS else _prefix_sum_means(a)
    out = np.zeros_like(a)
    for w1 in range(1, n1 + 1):
        for w2 in range(1, n2 + 1):
            # a full-circle side has one start, whose window holds every cell
            scores = np.broadcast_to(means(w1, w2), a.shape)
            np.maximum(out, _window_max_containing(scores, w1, w2), out=out)
    return f.with_values(out)


# -- dyadic maximal functions ---------------------------------------------


def _system_pair(systems) -> Tuple[DyadicSystem, Optional[DyadicSystem]]:
    if isinstance(systems, DyadicSystem):
        return systems, None
    pair = tuple(systems)
    if len(pair) == 2 and all(isinstance(s, DyadicSystem) for s in pair):
        return pair
    raise ParameterError("systems must be a DyadicSystem or a pair of them")


def _level_max(f: GridFunction, system: DyadicSystem, axis_index, scale):
    """Max over levels k of ``scale(k)`` times the level-k average of |f|."""
    a = f.with_values(np.abs(f.values))
    out = None
    for k in range(system.axis.level + 1):
        vals = scale(k) * level_average(a, system, k, axis_index).values
        out = vals if out is None else np.maximum(out, vals)
    return out


def _cubes(system: DyadicSystem, k: int):
    """Cells of the level-k cubes (row m is cube m) and each cell's cube."""
    n = system.axis.n_cells
    cells = (system.offset_cells + np.arange(n).reshape(1 << k, n >> k)) % n
    owner = ((np.arange(n) - system.offset_cells) % n) // (n >> k)
    return cells, owner


def _dyadic_rect_maximal(a: np.ndarray, sys1: DyadicSystem, sys2: DyadicSystem):
    """Each cell takes the max mean of its own rectangle per level pair; the
    block means are reduced like a naive ``mean()`` over each rectangle."""
    out = np.zeros_like(a)
    for k1 in range(sys1.axis.level + 1):
        rows, owner1 = _cubes(sys1, k1)
        for k2 in range(sys2.axis.level + 1):
            cols, owner2 = _cubes(sys2, k2)
            means = a[rows[:, None, :, None], cols[None, :, None, :]].mean(axis=(2, 3))
            np.maximum(out, means[owner1[:, None], owner2[None, :]], out=out)
    return out


def dyadic_maximal(f: GridFunction, systems, mode: str) -> GridFunction:
    """Max of |f| averages over dyadic cubes (one axis) or rectangles.

    ``mode`` is ``"axis1"``, ``"axis2"`` (cubes of one lattice, acting on
    the named axis), or ``"biparameter"`` (rectangles of a lattice pair).
    Always pointwise between |f| and the strong maximal function.
    """
    if f.ndim != 2:
        raise ShapeError("dyadic maximal needs a two-axis function")
    first, second = _system_pair(systems)
    if mode in ("axis1", "axis2"):
        axis_index = 1 if mode == "axis1" else 2
        system = first if mode == "axis1" or second is None else second
        return f.with_values(_level_max(f, system, axis_index, lambda k: 1.0))
    if mode == "biparameter":
        if second is None:
            raise ParameterError("biparameter mode needs a pair of systems")
        if first.axis != f.axes[0] or second.axis != f.axes[1]:
            raise ShapeError("system axes do not match the function axes")
        return f.with_values(_dyadic_rect_maximal(np.abs(f.values), first, second))
    raise ParameterError(f"unknown mode {mode!r}")


def frac_maximal(
    f: GridFunction, system: DyadicSystem, lam: float, axis_index=None
) -> GridFunction:
    """Max over dyadic cubes of |I|**(-lam) * integral of |f| over I.

    Acts along one axis; pointwise dominated by the smoothing operator of
    the same order applied to |f| (see :func:`frac_maximal_domination`).
    """
    lam = float(lam)
    if not 0.0 < lam < 1.0:
        raise ParameterError(f"lam must lie in (0, 1), got {lam}")
    # |I|**(1-lam) * average = 2**(k*(lam-1)) * level-k average
    return f.with_values(
        _level_max(f, system, axis_index, lambda k: 2.0 ** (k * (lam - 1.0)))
    )


def frac_maximal_domination(f: GridFunction, system: DyadicSystem, lam: float) -> float:
    """Grid max of the ratio (fractional maximal of f) / (smoothing of |f|).

    The finiteness and resolution-stability of this constant is the
    discrete form of the pointwise domination of the maximal function by
    the positive smoothing operator.
    """
    if f.ndim != 1:
        raise ShapeError("domination ratio is a one-axis diagnostic")
    if not np.any(f.values):
        raise DegenerateInputError("f vanishes identically")
    m = frac_maximal(f, system, lam).values
    smooth = frac_integral(f.with_values(np.abs(f.values)), lam).values
    return float(np.max(m / smooth))


# -- square functions -----------------------------------------------------


def square_function(f: GridFunction, systems, mode: str) -> GridFunction:
    """Pointwise l2 aggregate of martingale differences.

    Modes: ``"sole"`` (one-axis), ``"axis1"``/``"axis2"`` (one parameter of
    a two-axis function), ``"rect"`` (both parameters jointly).
    """
    if mode == "sole":
        if f.ndim != 1:
            raise ShapeError("sole mode needs a one-axis function")
        system = systems if isinstance(systems, DyadicSystem) else _system_pair(systems)[0]
        acc = np.zeros_like(f.values)
        for k in range(system.axis.level):
            acc += level_difference(f, system, k).values ** 2
        return f.with_values(np.sqrt(acc))
    if f.ndim != 2:
        raise ShapeError(f"mode {mode!r} needs a two-axis function")
    first, second = _system_pair(systems)
    if mode in ("axis1", "axis2"):
        axis_index = 1 if mode == "axis1" else 2
        system = first if mode == "axis1" or second is None else second
        acc = np.zeros_like(f.values)
        for k in range(system.axis.level):
            acc += level_difference(f, system, k, axis_index).values ** 2
        return f.with_values(np.sqrt(acc))
    if mode == "rect":
        if second is None:
            raise ParameterError("rect mode needs a pair of systems")
        acc = np.zeros_like(f.values)
        for k1 in range(first.axis.level):
            d1 = level_difference(f, first, k1, axis_index=1)
            for k2 in range(second.axis.level):
                acc += level_difference(d1, second, k2, axis_index=2).values ** 2
        return f.with_values(np.sqrt(acc))
    raise ParameterError(f"unknown mode {mode!r}")


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
    if p1 < 1.0 or p2 < 1.0:
        raise ParameterError(f"exponents must be >= 1, got p1={p1}, p2={p2}")
    ax1, ax2 = f.axes
    for w, ax, name in ((w1, ax1, "w1"), (w2, ax2, "w2")):
        if w is not None and w.axis != ax:
            raise ShapeError(f"{name} lives on the wrong axis")
    d1 = np.ones(ax1.n_cells) if w1 is None else w1.values
    d2 = np.ones(ax2.n_cells) if w2 is None else w2.values
    inner = ((np.abs(f.values) ** p1 * d1[:, None]).sum(axis=0) * ax1.h) ** (1.0 / p1)
    return float(((inner**p2 * d2).sum() * ax2.h) ** (1.0 / p2))


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

    def extended(self, *extra: np.ndarray) -> "OmegaFamily":
        return OmegaFamily(self.shapes + tuple(extra))


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
    """Every coefficient-carrying rectangle of the pair, the full square,
    and optionally some two-rectangle unions (random, reproducible)."""
    n1, n2 = system1.axis.n_cells, system2.axis.n_cells
    rects = []
    for k1 in range(system1.axis.level):
        for m1 in range(1 << k1):
            rows = DyadicCube(system1, k1, m1).cells()
            for k2 in range(system2.axis.level):
                for m2 in range(1 << k2):
                    cols = DyadicCube(system2, k2, m2).cells()
                    rects.append((rows, cols))
    shapes = [_rect_mask(n1, n2, rows, cols) for rows, cols in rects]
    shapes.append(np.ones((n1, n2), dtype=bool))
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
    for k1 in range(system1.axis.level):
        for m1 in range(1 << k1):
            I = DyadicCube(system1, k1, m1)
            rows = I.cells().tolist()
            hv1 = haar_function(I).values
            for k2 in range(system2.axis.level):
                for m2 in range(1 << k2):
                    J = DyadicCube(system2, k2, m2)
                    cols = J.cells().tolist()
                    hv2 = haar_function(J).values
                    coef = h1 * h2 * (hv1 @ B @ hv2)
                    wmean = weight_vals[np.ix_(rows, cols)].mean()
                    out.append((rows, cols, coef, wmean))
    return out


def bmo_prod_norm(
    b: GridFunction,
    w: ProductWeight,
    systems,
    family: Optional[OmegaFamily] = None,
) -> float:
    """Restricted-family lower bound for the weighted product-BMO norm.

    Max over the family of sqrt of (1/weight(shape)) times the sum, over
    rectangles inside the shape, of coefficient**2 / rectangle weight mean.
    Monotone nondecreasing under family enlargement.
    """
    if b.ndim != 2:
        raise ShapeError("product BMO needs a two-axis function")
    system1, system2 = _system_pair(systems)
    if system2 is None:
        raise ParameterError("product BMO needs a pair of systems")
    if system1.axis != b.axes[0] or system2.axis != b.axes[1]:
        raise ShapeError("system axes do not match the function axes")
    if family is None:
        family = default_omega_family(system1, system2)
    W = w.evaluate()
    if W.axes != b.axes:
        raise ShapeError("weight axes do not match the function axes")
    wv = W.values
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
    """Product-BMO lower bound over single-rectangle shapes plus the full
    square, computed with prefix sums.

    Fast equivalent of :func:`bmo_prod_norm` with the default shape family;
    containment reduces to index arithmetic because descendants of a cube
    occupy a contiguous index range at every finer level.
    """
    if b.ndim != 2:
        raise ShapeError("product BMO needs a two-axis function")
    system1, system2 = _system_pair(systems)
    if system2 is None:
        raise ParameterError("product BMO needs a pair of systems")
    if system1.axis != b.axes[0] or system2.axis != b.axes[1]:
        raise ShapeError("system axes do not match the function axes")
    W = w.evaluate()
    if W.axes != b.axes:
        raise ShapeError("weight axes do not match the function axes")
    n1, n2 = system1.axis.n_cells, system2.axis.n_cells
    L1, L2 = system1.axis.level, system2.axis.level
    h1, h2 = system1.axis.h, system2.axis.h
    wv = W.values
    Fc = h1 * h2 * (haar_matrix(system1).T @ b.values @ haar_matrix(system2))

    # doubled 2-D prefix sums of the weight for wrap-aware block sums
    SW = np.zeros((2 * n1 + 1, 2 * n2 + 1))
    SW[1:, 1:] = np.tile(wv, (2, 2)).cumsum(axis=0).cumsum(axis=1)

    def block_sums(starts1, w1, starts2, w2):
        a = starts1[:, None]
        c = starts2[None, :]
        return (
            SW[a + w1, c + w2] - SW[a, c + w2] - SW[a + w1, c] + SW[a, c]
        )

    def starts(system, k):
        n = system.axis.n_cells
        return (system.offset_cells + np.arange(1 << k) * (n >> k)) % n

    # per level pair: coefficient**2 / rectangle weight mean, then 2-D
    # prefix sums over cube indices for contiguous-range queries
    prefix = {}
    for k1 in range(L1):
        w1 = n1 >> k1
        cols1 = (1 << k1) + np.arange(1 << k1)
        for k2 in range(L2):
            w2 = n2 >> k2
            cols2 = (1 << k2) + np.arange(1 << k2)
            coef = Fc[np.ix_(cols1, cols2)]
            wmean = block_sums(starts(system1, k1), w1, starts(system2, k2), w2) / (
                w1 * w2
            )
            T = coef * coef / wmean
            P = np.zeros((T.shape[0] + 1, T.shape[1] + 1))
            P[1:, 1:] = T.cumsum(axis=0).cumsum(axis=1)
            prefix[(k1, k2)] = P

    vol = h1 * h2

    def range_total(a1, m01, a2, m02):
        total = 0.0
        for k1 in range(a1, L1):
            lo1, hi1 = m01 << (k1 - a1), (m01 + 1) << (k1 - a1)
            for k2 in range(a2, L2):
                lo2, hi2 = m02 << (k2 - a2), (m02 + 1) << (k2 - a2)
                P = prefix[(k1, k2)]
                total += P[hi1, hi2] - P[lo1, hi2] - P[hi1, lo2] + P[lo1, lo2]
        return total

    best = 0.0
    for a1 in range(L1):
        s1 = starts(system1, a1)
        for a2 in range(L2):
            s2 = starts(system2, a2)
            w_omega = vol * block_sums(s1, n1 >> a1, s2, n2 >> a2)
            for m01 in range(1 << a1):
                for m02 in range(1 << a2):
                    total = range_total(a1, m01, a2, m02)
                    if total > 0.0:
                        best = max(best, np.sqrt(total / w_omega[m01, m02]))
    full_total = sum(float(P[-1, -1]) for P in prefix.values())
    if full_total > 0.0:
        best = max(best, np.sqrt(full_total / (vol * wv.sum())))
    return float(best)


@dataclass(frozen=True)
class DualityReport:
    """Pairing versus the product of the BMO lower bound and the weighted
    L1 norm of the rectangular square function."""

    pairing: float
    bmo_norm: float
    square_l1: float
    ratio: float
    family_too_small: bool


def duality_check(
    b: GridFunction,
    phi: GridFunction,
    w: ProductWeight,
    systems,
    family: Optional[OmegaFamily] = None,
) -> DualityReport:
    """Compare |<b, phi>| against bmo_norm(b) * ||S phi||_{L1(w)}.

    A zero denominator with a nonzero pairing means b or phi lives in the
    mean-type components the restricted family cannot see; that is flagged
    rather than raised.
    """
    system1, system2 = _system_pair(systems)
    if system2 is None:
        raise ParameterError("duality check needs a pair of systems")
    s = square_function(phi, (system1, system2), "rect")
    square_l1 = inner_product(s, w.evaluate())
    pairing = inner_product(b, phi)
    bmo = bmo_prod_norm(b, w, (system1, system2), family)
    denom = bmo * square_l1
    if denom > 0.0:
        ratio = abs(pairing) / denom
        flagged = False
    else:
        flagged = abs(pairing) > 1e-14
        ratio = np.inf if flagged else 0.0
    return DualityReport(
        pairing=pairing,
        bmo_norm=bmo,
        square_l1=square_l1,
        ratio=ratio,
        family_too_small=flagged,
    )
