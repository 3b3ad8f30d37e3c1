"""Positive weights and their Muckenhoupt-type bookkeeping.

Weights are strictly positive one-axis cell tables.  Characteristics are
exact maxima over every grid-aligned arc of the axis (the full circle once,
``grid._arc_count``), a lower bound for the continuum supremum over cubes.
They read the one carried arc sum, ``grid._arc_folds``, and take their
means, powers and maximum a block of consecutive widths at a time, at every
level, for several weights at once where a caller has them.  Powers are
numpy's, of arrays, taken entrywise on the cell averages
(:meth:`Weight.power`), a discrete surrogate.
The module also solves the smoothing-exponent relation and builds the
two-weight ratio used by the commutator experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InfeasibleExponentError, ParameterError, ShapeError
from .grid import Axis, GridFunction, _arc_count, _arc_folds, _check_lambda, grid_function

__all__ = [
    "ExponentTriple",
    "ProductWeight",
    "Weight",
    "ap_characteristic",
    "apq_characteristic",
    "bloom_weight",
    "exponent_solve",
    "power_weight",
    "product_ap_characteristic",
]


# -- types ----------------------------------------------------------------


@dataclass(frozen=True)
class Weight:
    """A strictly positive one-axis cell table."""

    base: GridFunction

    def __post_init__(self):
        if len(self.base.axes) != 1:
            raise ShapeError("a weight is a one-axis function")
        if not np.all(self.base.values > 0.0):
            raise ParameterError("weight entries must be strictly positive")

    @property
    def axis(self) -> Axis:
        return self.base.axes[0]

    @property
    def values(self) -> np.ndarray:
        return self.base.values

    def power(self, exponent: float) -> "Weight":
        """Entrywise power (the discrete surrogate for pointwise powers); a
        power that overflows or underflows to 0 is a ParameterError."""
        with np.errstate(over="ignore"):
            vals = self.values**exponent
        if not np.all(np.isfinite(vals)):
            raise ParameterError(f"w**{exponent!r} is not finite: the power overflows")
        if not np.all(vals > 0.0):
            raise ParameterError(f"w**{exponent!r} is not positive: the power underflows to 0")
        return Weight(self.base.with_values(vals))


@dataclass(frozen=True)
class ProductWeight:
    """Tensor-product weight on a two-axis grid."""

    factor1: Weight
    factor2: Weight

    def evaluate(self) -> GridFunction:
        return grid_function(
            np.outer(self.factor1.values, self.factor2.values),
            self.factor1.axis,
            self.factor2.axis,
        )


def _check_exponents(p: float, q: Optional[float] = None) -> None:
    """The hypotheses on the exponents: 1 < p < inf and, when q is given,
    p < q < inf (a NaN fails both)."""
    if not 1.0 < p < np.inf:
        raise ParameterError(f"p must be finite and exceed 1, got {p}")
    if q is not None and not p < q < np.inf:
        raise ParameterError(f"q must be finite and exceed p, got p={p}, q={q}")


@dataclass(frozen=True)
class ExponentTriple:
    """Exponent pair tied to a smoothing order: 1/q = lam - 1 + 1/p."""

    p: float
    q: float
    lam: float

    def __post_init__(self):
        _check_exponents(self.p, self.q)
        _check_lambda(self.lam)
        residual = abs(1.0 / self.q + 1.0 - 1.0 / self.p - self.lam)
        if residual > 1e-12:
            raise ParameterError(
                f"exponent relation violated by {residual:.3e}: "
                "1/q + 1/p' must equal lam"
            )


def exponent_solve(p: float, lam: float) -> ExponentTriple:
    """Solve ``1/q = lam - 1 + 1/p`` for the smoothing target exponent q.

    Raises
    ------
    InfeasibleExponentError
        If the solved q is not a finite exponent larger than p.
    """
    _check_exponents(p)
    _check_lambda(lam)
    inv_q = lam - 1.0 + 1.0 / p
    if inv_q <= 0.0:
        raise InfeasibleExponentError(
            f"no finite target exponent: 1/q = {inv_q:.6g} <= 0 at p={p}, lam={lam}"
        )
    q = 1.0 / inv_q
    if q <= p:
        raise InfeasibleExponentError(
            f"target exponent q={q:.6g} does not exceed p={p} at lam={lam}"
        )
    return ExponentTriple(p, q, lam)


# -- weight construction --------------------------------------------------


def power_weight(axis: Axis, alpha: float, center: float) -> Weight:
    """Exact cell averages of the periodic power profile d(x - center)**alpha."""
    if abs(alpha) >= 1.0:
        raise ParameterError(f"|alpha| must be below 1, got {alpha}")
    n, h = axis.n_cells, axis.h
    e = 1.0 + alpha

    def antider(u):
        # integral of d(s)**alpha over [0, u], for u in [0, 1]
        u = np.asarray(u, dtype=float)
        near = np.minimum(u, 0.5) ** e / e
        far = (2.0 * 0.5**e - (1.0 - u) ** e) / e
        return np.where(u <= 0.5, near, far)

    u1 = (np.arange(n) * h - center) % 1.0
    u2 = u1 + h
    full = 2.0 * 0.5**e / e
    vals = np.where(
        u2 > 1.0,
        full - antider(u1) + antider(np.maximum(u2 - 1.0, 0.0)),
        antider(np.minimum(u2, 1.0)) - antider(u1),
    ) / h
    return Weight(grid_function(vals, axis))


def bloom_weight(mu1: Weight, sigma1: Weight, mu2: Weight, sigma2: Weight) -> ProductWeight:
    """Entrywise two-weight ratio, one factor per axis."""
    if mu1.axis != sigma1.axis or mu2.axis != sigma2.axis:
        raise ShapeError("ratio factors must share an axis")
    f1 = Weight(mu1.base.with_values(mu1.values / sigma1.values))
    f2 = Weight(mu2.base.with_values(mu2.values / sigma2.values))
    return ProductWeight(f1, f2)


# floats one block of arc widths may hold: k widths of r weights on n cells
# take 2 k r n (num's means, then den's), so one weight's widths go in blocks
# of two or more up to L=11; from L=12, or sooner for several weights, a
# block holds one width, written into the same buffer every time
_BLOCK_FLOATS = 1 << 13


def _char_over_family(num: np.ndarray, den: np.ndarray, den_exp: float, axis: Axis) -> np.ndarray:
    """Exact max over every arc of mean(num) * mean(den)**den_exp, per row
    of the tables ``num`` and ``den`` (one weight per row, cells on the last
    axis).  Arc sums are carried cell by cell in order (``grid._arc_folds``),
    so the bits match a per-arc loop (a plain ``mean`` would not: numpy
    regroups sums of eight or more terms).  Each width's means at
    ``grid._arc_count``'s starts are written into a block of consecutive
    widths (the width-n row repeats the one full circle, from start 0), and
    each block is raised to ``den_exp``, multiplied and maximized as one
    array."""
    n = axis.n_cells
    F = np.array((num, den))
    best = np.full(F.shape[1:-1], -np.inf)
    size = max(1, min(n, _BLOCK_FLOATS // F[..., :1].size // n))
    block = np.empty((2, size) + F.shape[1:])
    for width, sums in enumerate(_arc_folds(F, np.add), 1):
        k = (width - 1) % size + 1
        np.divide(sums[..., : _arc_count(n, width)], width, out=block[:, k - 1])
        if k == size or width == n:
            # den's means are overwritten by their powers, num's by the products
            means = block[:, :k]
            np.power(means[1], den_exp, out=means[1])
            np.multiply(means[0], means[1], out=means[0])
            np.maximum(best, np.max(means[0], axis=(0, -1)), out=best)
    return best


# -- characteristics ------------------------------------------------------


def ap_characteristic(w: Weight, p: float) -> float:
    """Exact maximum over every arc of mean(w) * mean(w**(1-p'))**(p-1).

    The dual-weight exponent is evaluated as ``1 - p/(p-1)`` so that results
    are reproducible bit for bit against a direct computation written the
    textbook way (see also :func:`apq_characteristic`).
    """
    _check_exponents(p)
    p_dual = p / (p - 1.0)
    dual = w.power(1.0 - p_dual).values
    return float(_char_over_family(w.values, dual, p - 1.0, w.axis))


def apq_characteristic(w: Weight, p: float, q: float) -> float:
    """Exact maximum over every arc of mean(w**q) * mean(w**(-p'))**(q/p')."""
    return float(_apq_characteristics((w,), p, q)[0])


def _apq_characteristics(ws, p: float, q: float):
    """:func:`apq_characteristic` of each weight of ``ws``, which share an
    axis, as one array: the weights' powers are the rows of one call."""
    _check_exponents(p, q)
    p_dual = p / (p - 1.0)
    num = np.array([w.power(q).values for w in ws])
    den = np.array([w.power(-p_dual).values for w in ws])
    return _char_over_family(num, den, q / p_dual, ws[0].axis)


def product_ap_characteristic(pw: ProductWeight, p: float) -> float:
    """Arc-rectangle characteristic of a tensor weight.

    For tensor weights both the means and the maximum factorize exactly over
    the two axes, so this is the product of the per-factor characteristics.
    """
    return ap_characteristic(pw.factor1, p) * ap_characteristic(pw.factor2, p)
