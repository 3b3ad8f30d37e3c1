"""Paraproducts, the exact product decomposition, the shift-level expansion
of the iterated commutator, and the two-weight ratio experiment.

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
``_commutator_terms``, for the commutators of the shifts and of the
smoothing operators and for the paraproduct groups.

Sample ensembles are evaluated as stacks: every private helper reads its
value tables on the last two array axes, so one numpy call serves a whole
stack of samples.  Stacks share one budget of ``_STACK_FLOATS`` working
floats: each stacked helper states its footprint in floats per grid cell of
one sample, and ``_stacks`` splits an ensemble into stacks that fit, so the
samples of small grids share stacks and a large grid is a stack of one.
The public single-sample functions call the same helpers on one table,
after the axis contract of both factors and the system pair
(:func:`dyadica.dyadic._placed`); the stacked helpers check nothing.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from .analysis import _bmo_prod_rect, _mixed_norms, _rect_weight_means
from .dyadic import DyadicSystem, _placed
from .errors import ParameterError
from .fracops import ShiftCoefficientTable, _route, _smooth
from .grid import MAX_LEVEL, GridFunction, _check_integers, build_axis
from .haar import _chain_sum, _pyramid, _scale_views, column_cubes
from .haar import haar_analyze, haar_synthesize
from .weights import _apq_characteristics, bloom_weight, exponent_solve, power_weight

__all__ = [
    "PARAPRODUCT_TAGS",
    "BloomConfig",
    "BloomLevelResult",
    "BloomQuadResult",
    "BloomReport",
    "CommutatorExpansion",
    "DecompositionReport",
    "bloom_experiment",
    "decompose_product",
    "paraproduct",
    "shift_commutator_expand",
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

# working floats one sample stack may hold (1 MiB): a helper's stack size is
# this budget over its footprint, its peak traced allocation (tracemalloc) in
# floats per grid cell of one sample, inputs included
_STACK_FLOATS = 1 << 17
# an _expansion stack peaks near 93 floats per cell (96 in a stack of 4 at
# 16 x 16), so 16 x 16 grids go in stacks of 5 samples; a _decompose stack
# peaks near 93 (71 from 128 x 128 up) and is charged 128, stacks of 4 at
# 16 x 16; a grid of 32 x 32 or more is a stack of one for both
_EXPAND_FLOATS = 96
_DECOMPOSE_FLOATS = 128
# bloom's refined samples, iterated commutator and norms: 10.3 floats per
# cell at 8 x 8, 9.5 at 16 x 16 and 9.2 at 32 x 32 in a stack of 10, so a
# quad's 10 samples share one stack up to 32 x 32
_BLOOM_FLOATS = 11


def _stacks(count: int, cells: int, footprint: int):
    """Bounds ``(lo, hi)`` of the consecutive stacks that cover ``count``
    samples of ``cells`` grid cells each, for a helper that holds
    ``footprint`` floats per cell: at most ``_STACK_FLOATS`` floats (and at
    least one sample) per stack."""
    size = max(1, _STACK_FLOATS // (cells * footprint))
    return [(lo, min(lo + size, count)) for lo in range(0, count, size)]


def _products(views_b, g: np.ndarray, sys1, sys2, tags) -> np.ndarray:
    """Per tag in ``tags``, the product of its view of b with its view of
    the rectangle pyramids of ``g`` (tables on the last two axes), stacked
    on a new leading axis."""
    views_g = _scale_views(_pyramid(g, sys1, sys2))
    P = np.empty((len(tags),) + views_g["A", "A"].shape)
    for out, (kb, kg) in zip(P, map(_TAG_KINDS.get, tags)):
        np.multiply(views_b[kb], views_g[kg], out=out)
    return P


def paraproduct(tag: str, b: GridFunction, f: GridFunction, systems) -> GridFunction:
    """One of the nine bilinear parts of the product b*f.

    Sums over both scales the pointwise product of the tagged scale
    components of each factor; bilinear in (b, f).
    """
    if tag not in _TAG_KINDS:
        raise ParameterError(f"unknown paraproduct tag {tag!r}")
    (_, sys1), (_, sys2) = _placed(b, systems, 2, grids=(f.axes,))
    views_b = _scale_views(_pyramid(b.values, sys1, sys2))
    P = _products(views_b, f.values, sys1, sys2, (tag,))
    return b.with_values(_chain_sum(P, ((-2, sys1), (-1, sys2)))[0])


@dataclass(frozen=True)
class DecompositionReport:
    """The nine tagged parts plus the mean bucket, with the max-norm
    residual of the reconstruction against the pointwise product."""

    parts: Dict[str, GridFunction]
    residual: float


def _decompose(B: np.ndarray, F: np.ndarray, sys1, sys2):
    """:func:`decompose_product` of each pair of value tables on the last two
    axes of ``B`` and ``F``: the nine parts on a new leading axis in tag
    order, the mean bucket, and each product's residual."""
    views_b = _scale_views(_pyramid(B, sys1, sys2))
    P = _products(views_b, F, sys1, sys2, PARAPRODUCT_TAGS)
    edges = P.sum(axis=0)
    edges[..., 2:, 2:] = 0.0  # row and column 1: a whole-axis mean on some axis
    axes = ((-2, sys1), (-1, sys2))
    parts = _chain_sum(P, axes)
    mean = _chain_sum(edges, axes, first=1)
    residual = np.max(np.abs(B * F - (sum(parts) + mean)), axis=(-2, -1))
    return parts, mean, residual


def decompose_product(b: GridFunction, f: GridFunction, systems) -> DecompositionReport:
    """Split b*f into the nine tagged parts plus the mean bucket; exact."""
    (_, sys1), (_, sys2) = _placed(b, systems, 2, grids=(f.axes,))
    parts, mean, residual = _decompose(b.values, f.values, sys1, sys2)
    named = dict(zip(PARAPRODUCT_TAGS, map(b.with_values, parts)))
    named["mean"] = b.with_values(mean)
    return DecompositionReport(parts=named, residual=float(residual))


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


def _smoothing(axis, lam, pos: int):
    """The order-``lam`` smoothing operator along array axis ``pos``."""
    return lambda x: _smooth(x, axis, float(lam), pos)


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


def _leftover_term(Rb, F, table1, table2, sys1, sys2) -> np.ndarray:
    """Quadruple sum with the alternating rectangle averages of b, read
    from its rectangle pyramids ``Rb`` at heap columns, against the value
    tables ``F`` (both on the last two axes).

    For each source/target pair of each axis shift, the symbol enters only
    through -<b>_{IxS} + <b>_{IxT} + <b>_{JxS} - <b>_{JxT}.  Every entry
    pair is one element of arrays on the axes (K1, dJ, dI, K2, dT, dS); a
    target sums over its sources dI, dS."""
    Fc = haar_analyze(haar_analyze(F, sys1, -2), sys2, -1)
    I = _table_cubes(table1, table1.i, (0, 2))
    J = _table_cubes(table1, table1.j, (0, 1))
    S = _table_cubes(table2, table2.i, (3, 5))
    T = _table_cubes(table2, table2.j, (3, 4))
    a = table1.coeffs[1:, :, :, None, None, None] * table2.coeffs[1:]
    alternating = -Rb[..., I, S] + Rb[..., I, T] + Rb[..., J, S] - Rb[..., J, T]
    terms = a * alternating * Fc[..., I, S]
    rows1, rows2 = table1.coeffs.shape[0], table2.coeffs.shape[0]
    j, t = table1.j, table2.j
    # the gathers put a stack's axes innermost; in C order each table's
    # terms are summed in the same order as one table's
    sums = np.ascontiguousarray(terms).sum(axis=(-4, -1))
    Ecoef = np.zeros_like(Fc)
    Ecoef[..., 1 << j : rows1 << j, 1 << t : rows2 << t] = sums.reshape(
        Fc.shape[:-2] + ((rows1 - 1) << j, (rows2 - 1) << t)
    )
    return haar_synthesize(haar_synthesize(Ecoef, sys1, -2), sys2, -1)


def _expansion(table1, table2, sys1, sys2):
    """:func:`shift_commutator_expand` of one pair of shift tables as a
    function of stacks: ``expand(B, F)`` gives, for each pair of value tables
    on the last two axes of ``B`` and ``F``, the leftover term, the eight
    groups on a new leading axis in tag order, and the pair's residual.  The
    two shift matrices are built once, here, for every stack."""
    M1 = _shift_matrix(sys1, table1)
    M2 = _shift_matrix(sys2, table2)

    def s1(x):
        return M1 @ x

    def s2(x):
        return x @ M2.T

    def expand(B: np.ndarray, F: np.ndarray):
        direct = _iterated_commutator(B, F, s1, s2)
        Rb = _pyramid(B, sys1, sys2)
        views_b = _scale_views(Rb)
        tags = PARAPRODUCT_TAGS[:-1]  # A1..A8; W is the leftover
        # per commutator term, b's product replaced by the eight tags' parts
        groups = 0.0
        for outer, inner in _commutator_terms(s1, s2):
            P = _products(views_b, inner(F), sys1, sys2, tags)
            groups = groups + outer(_chain_sum(P, ((-2, sys1), (-1, sys2))))
            del P  # before the next term's table is formed
        e_term = _leftover_term(Rb, F, table1, table2, sys1, sys2)
        residual = np.max(np.abs(direct - (e_term + sum(groups))), axis=(-2, -1))
        return e_term, groups, residual

    return expand


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
    (_, sys1), (_, sys2) = _placed(b, systems, 2, grids=(f.axes,))
    expand = _expansion(table1, table2, sys1, sys2)
    e_term, groups, residual = expand(b.values, f.values)
    return CommutatorExpansion(
        e_term=b.with_values(e_term),
        paraproduct_terms=dict(zip(PARAPRODUCT_TAGS[:-1], map(b.with_values, groups))),
        residual=float(residual),
    )


# -- two-weight ratio experiment ------------------------------------------


@dataclass(frozen=True)
class BloomConfig:
    """Deterministic configuration of the commutator ratio experiment.

    Weight quadruples are (exponent, center) descriptors of power-profile
    weights, rebuilt at every resolution: (mu1, sigma1, mu2, sigma2).  A
    config checks itself when built: a bad field raises ParameterError.
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

    def __post_init__(self):
        _check_integers(n_samples=self.n_samples, seed=self.seed, base_level=self.base_level)
        if self.n_samples < 1:
            raise ParameterError(f"n_samples must be at least 1, got {self.n_samples}")
        if not 1 <= self.base_level <= MAX_LEVEL:
            raise ParameterError(f"base_level must be in [1, {MAX_LEVEL}], got {self.base_level}")
        if {(len(quad), *map(len, quad)) for quad in self.weight_quads} != {(4, 2, 2, 2, 2)}:
            raise ParameterError("weight_quads must be one or more quads of (alpha, center) pairs"
                                 f" (mu1, sigma1, mu2, sigma2), got {self.weight_quads!r}")
        if any(level < self.base_level for level in self.levels):
            raise ParameterError("levels must be at least the base level")


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
    against the symbol norm, binned by weight characteristics.

    A restricted-family lower bound: ratios use a finite shape family for
    the symbol norm and finite ensembles for the operator norm."""

    q1: float
    q2: float
    levels: Tuple[BloomLevelResult, ...]


def _refine(base: np.ndarray, factor: int) -> np.ndarray:
    """Each table on the last two axes of ``base`` with every cell split
    into ``factor`` x ``factor`` cells of its value."""
    return base.repeat(factor, -2).repeat(factor, -1)


def _coarse_samples(seed: int, qi: int, count: int, nb: int) -> np.ndarray:
    """Samples 0 .. count - 1 of quad ``qi`` as (b, f) cell tables on the
    coarse ``nb`` x ``nb`` mesh, shape ``(count, 2, nb, nb)``; sample ``idx``
    draws from its own ``default_rng((seed, qi, idx))``.

    Kinds rotate with ``idx`` through heavy-tailed coefficient symbols
    against smooth noise, indicator tensors, and a symbol aligned with the
    sample f.  The symbols' Haar transforms run on the whole stack.
    """
    lattice = DyadicSystem(build_axis(nb.bit_length() - 1), 0)
    decay = 2.0 ** (-0.5 * column_cubes(np.arange(nb), lattice)[0])
    decay = np.outer(decay, decay)
    out = np.empty((count, 2, nb, nb))
    C, F = out[:, 0], out[:, 1]  # C: the symbols' coefficients until synthesis
    for idx in range(count):
        rng = np.random.default_rng((seed, qi, idx))
        if idx % 3 == 1:
            s1, w1 = rng.integers(nb), rng.integers(1, nb)
            s2, w2 = rng.integers(nb), rng.integers(1, nb)
            ind1 = np.zeros(nb)
            ind1[(s1 + np.arange(w1)) % nb] = 1.0
            ind2 = np.zeros(nb)
            ind2[(s2 + np.arange(w2)) % nb] = 1.0
            F[idx] = np.outer(ind1, ind2)
        else:
            F[idx] = rng.normal(size=(nb, nb))
        if idx % 3 != 2:
            C[idx] = rng.standard_t(df=2, size=(nb, nb)) * decay
    aligned = slice(2, count, 3)
    C[aligned] = np.sign(haar_analyze(haar_analyze(F[aligned], lattice, -2), lattice, -1)) * decay
    C[:, 0, :] = 0.0
    C[:, :, 0] = 0.0  # keep only the rectangle part of the symbol
    C[:] = haar_synthesize(haar_synthesize(C, lattice, -2), lattice, -1)
    return out


def bloom_experiment(config: BloomConfig) -> BloomReport:
    """Ratio of the weighted commutator norm to symbol norm times source
    norm, across resolutions and weight quadruples.

    Samples are step functions on the coarsest mesh, refined exactly to
    each resolution, so the experiment tracks fixed functions while the
    discretization varies.  Samples whose restricted symbol norm vanishes
    are skipped and counted.
    """
    p1, p2 = config.p1, config.p2
    q1 = exponent_solve(p1, config.lam1).q
    q2 = exponent_solve(p2, config.lam2).q
    nb = 1 << config.base_level
    quads, count = config.weight_quads, config.n_samples
    exps = ((p1, q1), (p1, q1), (p2, q2), (p2, q2))  # per weight of a quad
    # a sample's seed does not involve the level: draw each once, as
    # coarse[quad, sample] = (b, f)
    coarse = np.array([_coarse_samples(config.seed, qi, count, nb) for qi in range(len(quads))])
    level_results = []
    for level in config.levels:
        axis = build_axis(level)
        factor = axis.n_cells // nb
        pair = (DyadicSystem(axis, 0), DyadicSystem(axis, 0))
        t1 = _smoothing(axis, config.lam1, -2)
        t2 = _smoothing(axis, config.lam2, -1)
        # quads share weights: build each and take its characteristic once,
        # those of one exponent pair in one call
        keys = dict.fromkeys((d, p, q) for quad in quads for d, (p, q) in zip(quad, exps))
        weight = {d: power_weight(axis, *d) for d, _, _ in keys}
        char = {}
        for pq in dict.fromkeys(key[1:] for key in keys):
            same = [key for key in keys if key[1:] == pq]
            values = _apq_characteristics([weight[d] for d, _, _ in same], *pq)
            char.update(zip(same, values.tolist()))
        quad_results = []
        for qi, quad in enumerate(quads):
            mu1, sg1, mu2, sg2 = (weight[d] for d in quad)
            # read by every sample of the quad; one quad's at a time
            means = _rect_weight_means(bloom_weight(mu1, sg1, mu2, sg2), *pair)
            w_com, w_src = (sg1.power(q1), sg2.power(q2)), (mu1.power(p1), mu2.power(p2))
            bmo, num, src = [], [], []
            for lo, hi in _stacks(count, axis.n_cells**2, _BLOOM_FLOATS):
                B, F = (_refine(coarse[qi, lo:hi, k], factor) for k in (0, 1))
                com = _iterated_commutator(B, F, t1, t2)
                bmo += _bmo_prod_rect(B, means, *pair).tolist()
                num += _mixed_norms(com, (axis, axis), q1, q2, *w_com).tolist()
                src += _mixed_norms(F, (axis, axis), p1, p2, *w_src).tolist()
            ratios, skipped = [], 0
            for b, n, f in zip(bmo, num, src):
                if b <= 0.0:
                    skipped += 1
                    continue
                ratios.append(n / (b * f))
            quad_results.append(
                BloomQuadResult(
                    quad=quad,
                    characteristics=tuple(char[d, p, q] for d, (p, q) in zip(quad, exps)),
                    ratios=tuple(ratios),
                    max_ratio=float(np.max(ratios, initial=0.0)),  # NaN if any is
                    skipped=skipped,
                )
            )
        level_results.append(
            BloomLevelResult(
                level=level,
                quads=tuple(quad_results),
                ensemble_max=float(np.max([q.max_ratio for q in quad_results])),
            )
        )
    return BloomReport(q1=q1, q2=q2, levels=tuple(level_results))
