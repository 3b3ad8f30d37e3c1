"""Paraproducts, the exact product decomposition, commutators, the
shift-level commutator expansion, and the two-weight ratio experiment.

A product of two two-axis functions splits into nine bilinear parts, one
for each way of pairing scales per axis (same scale, coarser on the left
factor, coarser on the right), plus a mean bucket: on the torus the
expansions terminate at the whole-torus average, whose cross products do
not fit the nine tags and are collected separately so the identity is
exact.  The same mean bucket drops out identically from the four-term
commutator combination, because every shift annihilates functions that
are constant along its axis; that is why the expansion of the iterated
shift commutator needs only the eight difference-carrying tags plus one
explicit leftover term assembled from rectangle averages of the symbol.

Everything multiscale here reads each factor's rectangle pyramid R[c1, c2]
of means at heap columns (:func:`dyadica.haar._pyramid`): per axis a tag
takes the parent's mean R[c >> 1] (A) or the step R[c] - R[c >> 1] (D),
and a part is the chain sum over columns >= 2 of the two views' product.
Column 1 holds the whole-axis mean, so the mean bucket is the chain sum
of all products on row and column 1.  Shift coefficient tables are
heap-ordered arrays (:class:`dyadica.fracops.ShiftCoefficientTable`): a
shift's matrix is the shift applied to the identity, and the leftover
reads b's pyramid for every pair of table entries in one gather.  The
four terms of the iterated commutator are written once, in
``_commutator_terms``, for both commutators and the paraproduct groups.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Dict, Mapping, Tuple

import numpy as np

from .analysis import _bmo_prod_rect, _rect_weight_means, _system_pair, mixed_norm
from .dyadic import DyadicCube, DyadicSystem, ancestor
from .errors import ContractError, ParameterError, ShapeError, SystemMismatchError
from .fracops import ShiftCoefficientTable, _route, _smooth
from .grid import GridFunction, build_axis, grid_function
from .haar import _chain_sum, _cube_means, _pyramid, _scale_views, basis_column, column_cubes
from .haar import haar_analyze, haar_synthesize
from .weights import apq_characteristic, bloom_weight, exponent_solve, power_weight

__all__ = [
    "PARAPRODUCT_TAGS",
    "BloomConfig",
    "BloomLevelResult",
    "BloomQuadResult",
    "BloomReport",
    "CommutatorExpansion",
    "DecompositionReport",
    "bloom_experiment",
    "commutator",
    "decompose_product",
    "paraproduct",
    "shift_commutator_expand",
    "telescope_terms",
]

# per tag: (scale pairing for the left factor, for the right factor), each
# axis tagged D (own-level difference) or A (own-level average)
_TAG_KINDS = {
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
PARAPRODUCT_TAGS = tuple(_TAG_KINDS)


def _shared_pair(b: GridFunction, f: GridFunction, systems):
    """The system pair of a bilinear form in (b, f), checked against both
    factors' grids."""
    sys1, sys2 = _system_pair(systems)
    if sys2 is None:
        raise ParameterError("paraproducts need a pair of dyadic systems")
    if b.ndim != 2 or f.ndim != 2:
        raise ShapeError("paraproducts need two-axis functions")
    if b.axes != f.axes:
        raise ShapeError("factors live on different grids")
    if sys1.axis != b.axes[0] or sys2.axis != b.axes[1]:
        raise SystemMismatchError("system axes do not match the function axes")
    return sys1, sys2


def _products(views_b, g: np.ndarray, sys1, sys2, tags) -> np.ndarray:
    """Per tag in ``tags``, the product of its view of b with its view of
    the rectangle pyramid of ``g``, stacked on a leading axis."""
    views_g = _scale_views(_pyramid(g, sys1, sys2))
    return np.stack([views_b[kb] * views_g[kg] for kb, kg in map(_TAG_KINDS.get, tags)])


def paraproduct(tag: str, b: GridFunction, f: GridFunction, systems) -> GridFunction:
    """One of the nine bilinear parts of the product b*f.

    Sums over both scales the pointwise product of the tagged scale
    components of each factor; bilinear in (b, f).
    """
    if tag not in _TAG_KINDS:
        raise ParameterError(f"unknown paraproduct tag {tag!r}")
    sys1, sys2 = _shared_pair(b, f, systems)
    views_b = _scale_views(_pyramid(b.values, sys1, sys2))
    P = _products(views_b, f.values, sys1, sys2, (tag,))
    return b.with_values(_chain_sum(P, ((-2, sys1), (-1, sys2)))[0])


@dataclass(frozen=True)
class DecompositionReport:
    """The nine tagged parts plus the mean bucket, with the max-norm
    residual of the reconstruction against the pointwise product."""

    parts: Dict[str, GridFunction]
    residual: float


def decompose_product(b: GridFunction, f: GridFunction, systems) -> DecompositionReport:
    """Split b*f into the nine tagged parts plus the mean bucket; exact."""
    sys1, sys2 = _shared_pair(b, f, systems)
    views_b = _scale_views(_pyramid(b.values, sys1, sys2))
    P = _products(views_b, f.values, sys1, sys2, PARAPRODUCT_TAGS)
    edges = P.sum(axis=0)
    edges[2:, 2:] = 0.0  # row and column 1: a whole-axis mean on some axis
    axes = ((-2, sys1), (-1, sys2))
    parts = dict(zip(PARAPRODUCT_TAGS, map(b.with_values, _chain_sum(P, axes))))
    parts["mean"] = b.with_values(_chain_sum(edges, axes, first=1))
    total = sum(p.values for p in parts.values())
    residual = float(np.max(np.abs(b.values * f.values - total)))
    return DecompositionReport(parts=parts, residual=residual)


# -- commutators with the positive smoothing operators --------------------


def _commutator_terms(t1, t2):
    """The iterated commutator
    ``[T1, [b, T2]] f = T1(b T2 f) - T1 T2 (b f) - b T2 T1 f + T2 (b T1 f)``
    as four (signed outer, inner) operator pairs: term = outer(b * inner(f))."""
    return (
        (t1, t2),
        (lambda x: -t1(t2(x)), lambda x: x),
        (lambda x: -x, lambda x: t2(t1(x))),
        (t2, t1),
    )


def _iterated_commutator(b, f, t1, t2):
    """``[T1, [b, T2]] f``, the terms of :func:`_commutator_terms` summed in
    order (``b``, ``f`` and the operators' values are arrays)."""
    terms = (outer(b * inner(f)) for outer, inner in _commutator_terms(t1, t2))
    return functools.reduce(operator.add, terms)


def commutator(b: GridFunction, f: GridFunction, recipe: Mapping) -> GridFunction:
    """Inner commutator [b, T2]f or iterated commutator [T1, [b, T2]]f,
    where Ti is the order-lam_i smoothing operator on axis i.

    ``recipe`` is ``{"inner": lam2}`` or ``{"iterated": (lam1, lam2)}``.
    """
    if b.ndim != 2 or f.ndim != 2 or b.axes != f.axes:
        raise ShapeError("commutator needs two-axis functions on one grid")
    keys = set(recipe)

    def smoothing(pos, lam):
        return lambda x: _smooth(x, b.axes[pos], float(lam), pos)

    if keys == {"inner"}:
        t2 = smoothing(1, recipe["inner"])
        return b.with_values(b.values * t2(f.values) - t2(b.values * f.values))
    if keys == {"iterated"}:
        lam1, lam2 = recipe["iterated"]
        t1, t2 = smoothing(0, lam1), smoothing(1, lam2)
        return b.with_values(_iterated_commutator(b.values, f.values, t1, t2))
    raise ParameterError("recipe must be {'inner': lam2} or {'iterated': (lam1, lam2)}")


# -- telescoping ----------------------------------------------------------


def telescope_terms(
    b: GridFunction, I: DyadicCube, K: DyadicCube, system: DyadicSystem
) -> Tuple[float, ...]:
    """Per-depth averaged martingale differences whose sum telescopes the
    difference of averages <b>_I - <b>_K exactly."""
    if b.ndim != 1 or b.axes[0] != system.axis:
        raise ShapeError("telescoping needs a one-axis function on the system axis")
    if I.system != system or K.system != system:
        raise SystemMismatchError("cubes come from a different system")
    depth = I.level - K.level
    if depth < 0 or ancestor(I, depth) != K:
        raise ContractError(f"{I} is not contained in {K}")
    R = _cube_means(b.values, system, 0)
    c = basis_column(I)
    return tuple(float(R[c >> (r - 1)] - R[c >> r]) for r in range(1, depth + 1))


# -- shift-level commutator expansion -------------------------------------


def _shift_matrix(system: DyadicSystem, table: ShiftCoefficientTable) -> np.ndarray:
    """Dense matrix of the shift: the shift applied to every cell's
    indicator, one column each."""
    table.validate(system)
    routed = _route(table, haar_analyze(np.eye(system.axis.n_cells), system))
    return haar_synthesize(routed, system)


@dataclass(frozen=True)
class CommutatorExpansion:
    """Leftover term, the eight four-term groups, and the reconstruction
    residual against the directly computed iterated shift commutator."""

    e_term: GridFunction
    paraproduct_terms: Dict[str, GridFunction]
    residual: float


def _table_cubes(table: ShiftCoefficientTable, depth: int, axes) -> np.ndarray:
    """Heap columns of the cubes ``depth`` levels below each table row's K,
    one row per K, placed on the array axes ``axes`` of six."""
    rows = table.coeffs.shape[0]
    shape = [1] * 6
    shape[axes[0]], shape[axes[1]] = rows - 1, 1 << depth
    return np.arange(1 << depth, rows << depth).reshape(shape)


def _leftover_term(Rb, f, table1, table2, sys1, sys2) -> np.ndarray:
    """Quadruple sum with the alternating rectangle averages of b, read
    from its rectangle pyramid ``Rb`` at heap columns.

    For each source/target pair of each axis shift, the symbol enters only
    through -<b>_{IxS} + <b>_{IxT} + <b>_{JxS} - <b>_{JxT}.  Every entry
    pair is one element of arrays on the axes (K1, dJ, dI, K2, dT, dS); a
    target sums over its sources dI, dS."""
    Fc = haar_analyze(haar_analyze(f.values, sys1, 0), sys2, 1)
    I = _table_cubes(table1, table1.i, (0, 2))
    J = _table_cubes(table1, table1.j, (0, 1))
    S = _table_cubes(table2, table2.i, (3, 5))
    T = _table_cubes(table2, table2.j, (3, 4))
    a = table1.coeffs[1:, :, :, None, None, None] * table2.coeffs[1:]
    terms = a * (-Rb[I, S] + Rb[I, T] + Rb[J, S] - Rb[J, T]) * Fc[I, S]
    rows1, rows2 = table1.coeffs.shape[0], table2.coeffs.shape[0]
    j, t = table1.j, table2.j
    Ecoef = np.zeros_like(Fc)
    Ecoef[1 << j : rows1 << j, 1 << t : rows2 << t] = terms.sum(axis=(2, 5)).reshape(
        (rows1 - 1) << j, (rows2 - 1) << t
    )
    return haar_synthesize(haar_synthesize(Ecoef, sys1, 0), sys2, 1)


def shift_commutator_expand(
    b: GridFunction,
    f: GridFunction,
    table1: ShiftCoefficientTable,
    table2: ShiftCoefficientTable,
    systems,
) -> CommutatorExpansion:
    """Expand the iterated commutator of two axis shifts with b.

    Returns the explicit leftover term, the eight four-term paraproduct
    groups, and the max-norm residual of leftover + groups against the
    directly computed commutator (a finite identity, so the residual is
    rounding noise).
    """
    sys1, sys2 = _shared_pair(b, f, systems)
    M1 = _shift_matrix(sys1, table1)
    M2 = _shift_matrix(sys2, table2)

    def s1(x):
        return M1 @ x

    def s2(x):
        return x @ M2.T

    direct = _iterated_commutator(b.values, f.values, s1, s2)
    Rb = _pyramid(b.values, sys1, sys2)
    views_b = _scale_views(Rb)
    tags = PARAPRODUCT_TAGS[:-1]  # A1..A8; W is the leftover
    # per commutator term, b's product replaced by the eight tags' parts
    sums = 0.0
    for outer, inner in _commutator_terms(s1, s2):
        P = _products(views_b, inner(f.values), sys1, sys2, tags)
        sums = sums + outer(_chain_sum(P, ((-2, sys1), (-1, sys2))))
    groups = dict(zip(tags, map(b.with_values, sums)))
    e_term = b.with_values(_leftover_term(Rb, f, table1, table2, sys1, sys2))
    total = e_term.values + sum(g.values for g in groups.values())
    residual = float(np.max(np.abs(direct - total)))
    return CommutatorExpansion(
        e_term=e_term, paraproduct_terms=groups, residual=residual
    )


# -- two-weight ratio experiment ------------------------------------------


@dataclass(frozen=True)
class BloomConfig:
    """Deterministic configuration of the commutator ratio experiment.

    Weight quadruples are (exponent, center) descriptors of power-profile
    weights, rebuilt at every resolution: (mu1, sigma1, mu2, sigma2).
    """

    levels: Tuple[int, ...] = (3, 4, 5)
    p1: float = 4.0 / 3.0
    p2: float = 4.0 / 3.0
    lam1: float = 0.5
    lam2: float = 0.5
    weight_quads: Tuple[Tuple[Tuple[float, float], ...], ...] = (
        ((0.0, 0.5), (0.0, 0.5), (0.0, 0.5), (0.0, 0.5)),
        ((0.2, 0.5), (-0.15, 0.25), (0.15, 0.75), (0.0, 0.5)),
        ((0.1, 0.0), (0.1, 0.5), (-0.1, 0.3), (0.15, 0.7)),
    )
    n_samples: int = 50
    seed: int = 0
    base_level: int = 3


@dataclass(frozen=True)
class BloomQuadResult:
    quad: Tuple[Tuple[float, float], ...]
    characteristics: Tuple[float, float, float, float]
    ratios: Tuple[float, ...]
    max_ratio: float
    skipped: int


@dataclass(frozen=True)
class BloomLevelResult:
    level: int
    quads: Tuple[BloomQuadResult, ...]
    ensemble_max: float


@dataclass(frozen=True)
class BloomReport:
    """Finite-ensemble lower-bound estimates of the commutator ratio
    against the symbol norm, binned by weight characteristics."""

    q1: float
    q2: float
    levels: Tuple[BloomLevelResult, ...]
    note: str = (
        "restricted-family lower bound: ratios use a finite shape family "
        "for the symbol norm and finite ensembles for the operator norm"
    )


def _refine(base: np.ndarray, factor: int) -> np.ndarray:
    return np.kron(base, np.ones((factor, factor)))


def _coarse_sample(rng, nb: int, kind: int):
    """Sample (b, f) as cell tables on the coarse mesh.

    Kinds rotate through heavy-tailed coefficient symbols against smooth
    noise, indicator tensors, and a symbol aligned with the sample f.
    """
    Lb = nb.bit_length() - 1
    lattice = DyadicSystem(build_axis(Lb), 0)
    decay = 2.0 ** (-0.5 * column_cubes(np.arange(nb), lattice)[0])
    if kind == 1:
        s1, w1 = rng.integers(nb), rng.integers(1, nb)
        s2, w2 = rng.integers(nb), rng.integers(1, nb)
        ind1 = np.zeros(nb)
        ind1[[(s1 + u) % nb for u in range(w1)]] = 1.0
        ind2 = np.zeros(nb)
        ind2[[(s2 + u) % nb for u in range(w2)]] = 1.0
        fvals = np.outer(ind1, ind2)
    else:
        fvals = rng.normal(size=(nb, nb))
    if kind == 2:
        Fc = haar_analyze(haar_analyze(fvals, lattice, 0), lattice, 1)
        C = np.sign(Fc) * np.outer(decay, decay)
    else:
        C = rng.standard_t(df=2, size=(nb, nb)) * np.outer(decay, decay)
    C[0, :] = 0.0
    C[:, 0] = 0.0  # keep only the rectangle part of the symbol
    bvals = haar_synthesize(haar_synthesize(C, lattice, 0), lattice, 1)
    return bvals, fvals


def bloom_experiment(config: BloomConfig) -> BloomReport:
    """Ratio of the weighted commutator norm to symbol norm times source
    norm, across resolutions and weight quadruples.

    Samples are step functions on the coarsest mesh, refined exactly to
    each resolution, so the experiment tracks fixed functions while the
    discretization varies.  Samples whose restricted symbol norm vanishes
    are skipped and counted.
    """
    q1 = exponent_solve(config.p1, config.lam1).q
    q2 = exponent_solve(config.p2, config.lam2).q
    if any(level < config.base_level for level in config.levels):
        raise ParameterError("levels must be at least the base level")
    nb = 1 << config.base_level
    # a sample's seed does not involve the level: draw each once
    samples = [
        [
            _coarse_sample(np.random.default_rng((config.seed, qi, idx)), nb, idx % 3)
            for idx in range(config.n_samples)
        ]
        for qi in range(len(config.weight_quads))
    ]
    level_results = []
    for level in config.levels:
        axis = build_axis(level)
        factor = axis.n_cells // nb
        pair = (DyadicSystem(axis, 0), DyadicSystem(axis, 0))
        quad_results = []
        for qi, quad in enumerate(config.weight_quads):
            mu1, sg1, mu2, sg2 = (power_weight(axis, a, c) for a, c in quad)
            chars = (
                apq_characteristic(mu1, config.p1, q1),
                apq_characteristic(sg1, config.p1, q1),
                apq_characteristic(mu2, config.p2, q2),
                apq_characteristic(sg2, config.p2, q2),
            )
            nu = bloom_weight(mu1, sg1, mu2, sg2)
            nu_means = _rect_weight_means(nu, *pair)  # read by every sample
            w_num1, w_num2 = mu1.power(config.p1), mu2.power(config.p2)
            w_den1, w_den2 = sg1.power(q1), sg2.power(q2)
            ratios = []
            skipped = 0
            for bvals, fvals in samples[qi]:
                bfun = grid_function(_refine(bvals, factor), axis, axis)
                ffun = grid_function(_refine(fvals, factor), axis, axis)
                bmo = _bmo_prod_rect(bfun.values, nu_means, *pair)
                if bmo <= 0.0:
                    skipped += 1
                    continue
                com = commutator(
                    bfun, ffun, {"iterated": (config.lam1, config.lam2)}
                )
                num = mixed_norm(com, q1, q2, w_den1, w_den2)
                den = bmo * mixed_norm(ffun, config.p1, config.p2, w_num1, w_num2)
                ratios.append(num / den)
            quad_results.append(
                BloomQuadResult(
                    quad=quad,
                    characteristics=chars,
                    ratios=tuple(ratios),
                    max_ratio=max(ratios) if ratios else 0.0,
                    skipped=skipped,
                )
            )
        level_results.append(
            BloomLevelResult(
                level=level,
                quads=tuple(quad_results),
                ensemble_max=max(q.max_ratio for q in quad_results),
            )
        )
    return BloomReport(q1=q1, q2=q2, levels=tuple(level_results))
