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

Everything multiscale here reads the rectangle tables of the factors
(:func:`dyadica.haar.rectangle_table`): per axis a tag takes the level-k
average A = T[k] or the difference D = T[k + 1] - T[k], a part is the sum
over level pairs of the product of the two factors' slices, and the mean
bucket and the leftover read the table's edges and entries.  A call that
needs several parts builds each factor's table once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Tuple

import numpy as np

from .analysis import _system_pair, bmo_prod_rect_norm, mixed_norm
from .dyadic import DyadicCube, DyadicSystem, ancestor
from .errors import ContractError, ParameterError, ShapeError, SystemMismatchError
from .fracops import ShiftCoefficientTable, partial_frac_integral
from .grid import GridFunction, build_axis, grid_function
from .haar import basis_column, expectation_stack, haar_matrix, rectangle_table
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


def _scale_parts(g: GridFunction, sys1: DyadicSystem, sys2: DyadicSystem):
    """The rectangle table of ``g`` and its four tagged slices: per axis,
    ``A`` is the level-k average and ``D`` the level-k difference, for
    k = 0 .. L - 1, indexed ``[k1, k2]``."""
    T = rectangle_table(g, sys1, sys2)
    A1, D1 = T[:-1], np.diff(T, axis=0)
    parts = {
        ("A", "A"): A1[:, :-1],
        ("A", "D"): np.diff(A1, axis=1),
        ("D", "A"): D1[:, :-1],
        ("D", "D"): np.diff(D1, axis=1),
    }
    return T, parts


def _tag_sum(tag: str, parts_b, parts_f) -> np.ndarray:
    """Sum over both scales of the product of the tagged slices."""
    kind_b, kind_f = _TAG_KINDS[tag]
    return (parts_b[kind_b] * parts_f[kind_f]).sum(axis=(0, 1))


def paraproduct(tag: str, b: GridFunction, f: GridFunction, systems) -> GridFunction:
    """One of the nine bilinear parts of the product b*f.

    Sums over both scales the pointwise product of the tagged scale
    components of each factor; bilinear in (b, f).
    """
    if tag not in _TAG_KINDS:
        raise ParameterError(f"unknown paraproduct tag {tag!r}")
    sys1, sys2 = _shared_pair(b, f, systems)
    _, parts_b = _scale_parts(b, sys1, sys2)
    _, parts_f = _scale_parts(f, sys1, sys2)
    return b.with_values(_tag_sum(tag, parts_b, parts_f))


def _mean_corrections(Tb: np.ndarray, Tf: np.ndarray) -> np.ndarray:
    """Cross products involving a whole-torus average in some axis, from
    the rectangle tables of the two factors.

    Seven terms: three along the row ``T[:, 0]`` (second-axis averages of
    both factors), three along the column ``T[0, :]`` (first-axis
    averages), and the product of the two grand means; together they close
    the nine-part identity on the torus.
    """
    acc = np.zeros(Tb.shape[2:])
    for rb, rf in ((Tb[:, 0], Tf[:, 0]), (Tb[0, :], Tf[0, :])):
        db, df = np.diff(rb, axis=0), np.diff(rf, axis=0)
        acc += (db * df + db * rf[:-1] + rb[:-1] * df).sum(axis=0)
    return acc + Tb[0, 0] * Tf[0, 0]


@dataclass(frozen=True)
class DecompositionReport:
    """The nine tagged parts plus the mean bucket, with the max-norm
    residual of the reconstruction against the pointwise product."""

    parts: Dict[str, GridFunction]
    residual: float


def decompose_product(b: GridFunction, f: GridFunction, systems) -> DecompositionReport:
    """Split b*f into the nine tagged parts plus the mean bucket; exact."""
    sys1, sys2 = _shared_pair(b, f, systems)
    Tb, parts_b = _scale_parts(b, sys1, sys2)
    Tf, parts_f = _scale_parts(f, sys1, sys2)
    parts = {
        tag: b.with_values(_tag_sum(tag, parts_b, parts_f))
        for tag in PARAPRODUCT_TAGS
    }
    parts["mean"] = b.with_values(_mean_corrections(Tb, Tf))
    total = sum(p.values for p in parts.values())
    residual = float(np.max(np.abs(b.values * f.values - total)))
    return DecompositionReport(parts=parts, residual=residual)


# -- commutators with the positive smoothing operators --------------------


def commutator(b: GridFunction, f: GridFunction, recipe: Mapping) -> GridFunction:
    """Inner commutator [b, T2]f or iterated commutator [T1, [b, T2]]f,
    where Ti is the order-lam_i smoothing operator on axis i.

    ``recipe`` is ``{"inner": lam2}`` or ``{"iterated": (lam1, lam2)}``.
    """
    if b.ndim != 2 or f.ndim != 2 or b.axes != f.axes:
        raise ShapeError("commutator needs two-axis functions on one grid")
    keys = set(recipe)
    if keys == {"inner"}:
        lam2 = float(recipe["inner"])
        bf = b.with_values(b.values * f.values)
        return b.with_values(
            b.values * partial_frac_integral(f, lam2, 2).values
            - partial_frac_integral(bf, lam2, 2).values
        )
    if keys == {"iterated"}:
        lam1, lam2 = (float(v) for v in recipe["iterated"])

        def i1(g):
            return partial_frac_integral(g, lam1, 1)

        def i2(g):
            return partial_frac_integral(g, lam2, 2)

        def mul(g):
            return b.with_values(b.values * g.values)

        out = (
            i1(mul(i2(f))).values
            - i1(i2(mul(f))).values
            - mul(i2(i1(f))).values
            + i2(mul(i1(f))).values
        )
        return b.with_values(out)
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
    cells = I.cells()
    diffs = np.diff(expectation_stack(b, system), axis=0)
    return tuple(float(diffs[I.level - r][cells].mean()) for r in range(1, depth + 1))


# -- shift-level commutator expansion -------------------------------------


def _shift_matrix(system: DyadicSystem, table: ShiftCoefficientTable) -> np.ndarray:
    """Dense matrix of the shift: routes each source-cube coefficient into
    its target-cube direction with the tabulated weight."""
    table.validate()
    n = system.axis.n_cells
    C = np.zeros((n, n))
    for (I, J, _K), a in table.entries.items():
        C[basis_column(J), basis_column(I)] += a
    H = haar_matrix(system)
    return system.axis.h * (H @ C @ H.T)


@dataclass(frozen=True)
class CommutatorExpansion:
    """Leftover term, the eight four-term groups, and the reconstruction
    residual against the directly computed iterated shift commutator."""

    e_term: GridFunction
    paraproduct_terms: Dict[str, GridFunction]
    residual: float


def _leftover_term(Tb, f, table1, table2, sys1, sys2) -> np.ndarray:
    """Quadruple sum with the alternating rectangle averages of b, read
    from its rectangle table ``Tb`` at each rectangle's start cells.

    For each source/target pair of each axis shift, the symbol enters only
    through -<b>_{IxS} + <b>_{IxT} + <b>_{JxS} - <b>_{JxT}."""
    H1, H2 = haar_matrix(sys1), haar_matrix(sys2)
    h1, h2 = sys1.axis.h, sys2.axis.h
    Fc = h1 * h2 * (H1.T @ f.values @ H2)

    def triples(table):
        out = []
        for (I, J, _K), a in table.entries.items():
            out.append(
                (a, basis_column(I), basis_column(J), I.level, I.start_cell, J.level, J.start_cell)
            )
        return out

    t1, t2 = triples(table1), triples(table2)
    Ecoef = np.zeros((sys1.axis.n_cells, sys2.axis.n_cells))
    for a1, colI, colJ, kI, cI, kJ, cJ in t1:
        for a2, colS, colT, kS, cS, kT, cT in t2:
            b_is = Tb[kI, kS, cI, cS]
            b_it = Tb[kI, kT, cI, cT]
            b_js = Tb[kJ, kS, cJ, cS]
            b_jt = Tb[kJ, kT, cJ, cT]
            Ecoef[colJ, colT] += (
                a1 * a2 * (-b_is + b_it + b_js - b_jt) * Fc[colI, colS]
            )
    return H1 @ Ecoef @ H2.T


def shift_commutator_expand(
    b: GridFunction,
    f: GridFunction,
    shift1: Tuple[int, int, float, ShiftCoefficientTable],
    shift2: Tuple[int, int, float, ShiftCoefficientTable],
    systems,
) -> CommutatorExpansion:
    """Expand the iterated commutator of two axis shifts with b.

    Returns the explicit leftover term, the eight four-term paraproduct
    groups, and the max-norm residual of leftover + groups against the
    directly computed commutator (a finite identity, so the residual is
    rounding noise).
    """
    sys1, sys2 = _shared_pair(b, f, systems)
    i, j, lam1, table1 = shift1
    s, t, lam2, table2 = shift2
    if (i, j) != (table1.i, table1.j) or (s, t) != (table2.i, table2.j):
        raise ContractError("shift depths do not match their tables")
    if (lam1, lam2) != (table1.lam, table2.lam):
        raise ContractError("shift orders do not match their tables")
    M1 = _shift_matrix(sys1, table1)
    M2 = _shift_matrix(sys2, table2)

    def s1(g):
        return g.with_values(M1 @ g.values)

    def s2(g):
        return g.with_values(g.values @ M2.T)

    def mul(g):
        return b.with_values(b.values * g.values)

    direct = (
        s1(mul(s2(f))).values
        - s1(s2(mul(f))).values
        - mul(s2(s1(f))).values
        + s2(mul(s1(f))).values
    )
    Tb, parts_b = _scale_parts(b, sys1, sys2)
    # one table per factor that the four commutator terms pair with b
    parts_s2f, parts_f, parts_s2s1f, parts_s1f = (
        _scale_parts(g, sys1, sys2)[1] for g in (s2(f), f, s2(s1(f)), s1(f))
    )
    groups = {}
    for tag in PARAPRODUCT_TAGS[:-1]:  # A1..A8; the W group is the leftover
        groups[tag] = b.with_values(
            M1 @ _tag_sum(tag, parts_b, parts_s2f)
            - M1 @ (_tag_sum(tag, parts_b, parts_f) @ M2.T)
            - _tag_sum(tag, parts_b, parts_s2s1f)
            + _tag_sum(tag, parts_b, parts_s1f) @ M2.T
        )
    e_term = b.with_values(_leftover_term(Tb, f, table1, table2, sys1, sys2))
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
    if factor == 1:
        return base.copy()
    return np.kron(base, np.ones((factor, factor)))


def _coarse_sample(rng, nb: int, kind: int):
    """Sample (b, f) as cell tables on the coarse mesh.

    Kinds rotate through heavy-tailed coefficient symbols against smooth
    noise, indicator tensors, and a symbol aligned with the sample f.
    """
    Lb = nb.bit_length() - 1
    H = haar_matrix(DyadicSystem(build_axis(Lb), 0))
    col_level = np.zeros(nb, dtype=int)
    for k in range(Lb):
        col_level[(1 << k) : (2 << k)] = k
    decay = 2.0 ** (-0.5 * col_level)
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
        Fc = H.T @ fvals @ H / (nb * nb)
        C = np.sign(Fc) * np.outer(decay, decay)
    else:
        C = rng.standard_t(df=2, size=(nb, nb)) * np.outer(decay, decay)
    C[0, :] = 0.0
    C[:, 0] = 0.0  # keep only the rectangle part of the symbol
    bvals = H @ C @ H.T
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
    nb = 1 << config.base_level
    level_results = []
    for level in config.levels:
        if level < config.base_level:
            raise ParameterError("levels must be at least the base level")
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
            w_num1, w_num2 = mu1.power(config.p1), mu2.power(config.p2)
            w_den1, w_den2 = sg1.power(q1), sg2.power(q2)
            ratios = []
            skipped = 0
            for idx in range(config.n_samples):
                rng = np.random.default_rng((config.seed, qi, idx))
                bvals, fvals = _coarse_sample(rng, nb, idx % 3)
                bfun = grid_function(_refine(bvals, factor), axis, axis)
                ffun = grid_function(_refine(fvals, factor), axis, axis)
                bmo = bmo_prod_rect_norm(bfun, nu, pair)
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
