"""Positive weights and their Muckenhoupt-type bookkeeping.

Weights are strictly positive one-axis cell tables.  Characteristics are
exact maxima over a finite cube family, every grid-aligned arc of the axis
(the full circle once, ``grid._arc_count``) or the cubes of chosen shifted
lattices, a lower bound for the continuum supremum; both read the one
carried arc sum, ``grid._arc_folds``.  Powers are numpy's, of arrays, taken
entrywise on the cell averages (:meth:`Weight.power`), a discrete surrogate.
The module also solves the smoothing-exponent relation and builds the
two-weight ratio used by the commutator experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Union

import numpy as np

from .dyadic import DyadicSystem
from .errors import InfeasibleExponentError, ParameterError, ShapeError, SystemMismatchError
from .grid import Axis, GridFunction, _arc_count, _arc_folds, _check_lambda, grid_function

__all__ = [
    "DerivedClassReport",
    "ExponentTriple",
    "ProductWeight",
    "Weight",
    "ap_characteristic",
    "apq_characteristic",
    "bloom_weight",
    "derived_class_check",
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
    """The hypotheses on the exponents: p > 1 and, when q is given, q > p
    (a NaN fails both)."""
    if not p > 1.0:
        raise ParameterError(f"p must exceed 1, got {p}")
    if q is not None and not q > p:
        raise ParameterError(f"need q > p, got p={p}, q={q}")


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


# -- cube families --------------------------------------------------------

FamilySelector = Union[str, Iterable[DyadicSystem]]


def _systems(family: FamilySelector):
    """A family name as it is, and systems as a tuple, taken where a family
    enters: a generator of systems can be read only once.  Anything else,
    a lone DyadicSystem too, is a ParameterError."""
    if isinstance(family, str):
        return family
    if isinstance(family, DyadicSystem) or not np.iterable(family):
        raise ParameterError("a cube family is 'intervals' or an iterable of DyadicSystems")
    systems = tuple(family)
    if not all(isinstance(system, DyadicSystem) for system in systems):
        raise ParameterError("every member of a cube family must be a DyadicSystem")
    return systems


def _family_label(family: FamilySelector) -> str:
    if isinstance(family, str):
        return family
    return "dyadic[" + ",".join(str(s.offset_cells) for s in family) + "]"


def _char_over_family(
    num: np.ndarray, den: np.ndarray, den_exp: float, axis: Axis, family: FamilySelector
) -> float:
    """Exact max over the family of mean(num) * mean(den)**den_exp.  Arc
    sums are carried cell by cell in order (``grid._arc_folds``), so the bits
    match a per-arc loop (a plain ``mean`` would not: numpy regroups sums of
    eight or more terms).  Intervals read every width at ``grid._arc_count``'s
    starts, a system the widths of its cubes at its lattice's starts, one
    batch per level, each raised to ``den_exp`` as one array."""
    n = axis.n_cells
    systems = None if family == "intervals" else _systems(family)
    if isinstance(systems, str):
        raise ParameterError(f"unknown cube family {family!r}; use 'intervals' or systems")
    if systems == ():
        raise ParameterError("empty cube family")
    for system in systems or ():
        if system.axis != axis:
            raise SystemMismatchError(
                f"cube-family system axis {system.axis} is not the weight's axis {axis}"
            )
    best = -np.inf
    for width, sums in enumerate(_arc_folds(np.array((num, den)), np.add), 1):
        if systems is None:
            batches = [sums[:, : _arc_count(n, width)]]
        elif width & (width - 1) == 0:
            batches = [sums[:, (s.offset_cells + np.arange(0, n, width)) % n] for s in systems]
        else:
            continue
        for mn, md in batches:
            best = max(best, float(np.max(mn / width * (md / width) ** den_exp)))
    return best


# -- characteristics ------------------------------------------------------


def ap_characteristic(w: Weight, p: float, family: FamilySelector = "intervals") -> float:
    """Exact maximum over the family of mean(w) * mean(w**(1-p'))**(p-1).

    The dual-weight exponent is evaluated as ``1 - p/(p-1)`` so that results
    are reproducible bit for bit against a direct computation written the
    textbook way (see also :func:`apq_characteristic`).
    """
    _check_exponents(p)
    p_dual = p / (p - 1.0)
    dual = w.power(1.0 - p_dual).values
    return _char_over_family(w.values, dual, p - 1.0, w.axis, family)


def apq_characteristic(
    w: Weight, p: float, q: float, family: FamilySelector = "intervals"
) -> float:
    """Exact maximum over the family of mean(w**q) * mean(w**(-p'))**(q/p')."""
    _check_exponents(p, q)
    p_dual = p / (p - 1.0)
    num, den = w.power(q).values, w.power(-p_dual).values
    return _char_over_family(num, den, q / p_dual, w.axis, family)


def product_ap_characteristic(
    pw: ProductWeight, p: float, family: FamilySelector = "intervals"
) -> float:
    """Rectangle-family characteristic of a tensor weight.

    For tensor weights both the means and the maximum factorize exactly over
    the two axes, so this is the product of the per-factor characteristics.
    """
    family = _systems(family)
    return ap_characteristic(pw.factor1, p, family) * ap_characteristic(
        pw.factor2, p, family
    )


@dataclass(frozen=True)
class DerivedClassReport:
    """The three derived-class characteristics implied by a finite
    two-exponent characteristic, echoing the inputs for reproducibility."""

    p: float
    q: float
    family: str
    q_power: float        # [w**q] at exponent q
    dual_p_power: float   # [w**(-p')] at exponent p'
    dual_q_power: float   # [w**(-q')] at exponent q'


def derived_class_check(
    w: Weight, p: float, q: float, family: FamilySelector = "intervals"
) -> DerivedClassReport:
    """Characteristics of the three derived weights w**q, w**(-p'), w**(-q')."""
    _check_exponents(p, q)
    p_dual = p / (p - 1.0)
    q_dual = q / (q - 1.0)
    family = _systems(family)
    return DerivedClassReport(
        p=p,
        q=q,
        family=_family_label(family),
        q_power=ap_characteristic(w.power(q), q, family),
        dual_p_power=ap_characteristic(w.power(-p_dual), p_dual, family),
        dual_q_power=ap_characteristic(w.power(-q_dual), q_dual, family),
    )
