"""Power-kernel smoothing operators and their Haar-coefficient anatomy.

The smoothing operator convolves against the periodic kernel d(x-y)**-lam
exactly at cell resolution (the kernel matrix holds exact cell-pair
integrals).  On top of it this module provides the coefficient machinery
used to analyse the operator in a shifted lattice: raw and normalized Haar
coefficients, the four-way positional classification of cube pairs,
coefficient tables for shift operators with the canonical size bound, the
pointwise domination scan, and a verification harness that checks the
bilinear expansion identity and measures per-class coefficient constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Tuple

import numpy as np

from .dyadic import (
    DyadicCube,
    DyadicSystem,
    GoodParams,
    _within_threshold,
    ancestor,
    bad_mask,
    contains,
    cube_distance_cells,
    join,
)
from .errors import (
    ContractError,
    DegenerateInputError,
    InvariantError,
    ParameterError,
    ShapeError,
    SystemMismatchError,
)
from .grid import (
    GridFunction,
    _check_lambda,
    grid_function,
    inner_product,
    kernel_matrix,
    l2_norm,
)
from .haar import basis_column, expectation_stack, haar_function, haar_matrix

__all__ = [
    "RepresentationReport",
    "ShiftCoefficientTable",
    "SigmaClass",
    "apply_shift",
    "classify_pair",
    "concentric_indicator_pairing",
    "domination_ratio",
    "frac_integral",
    "maximal_table",
    "partial_frac_integral",
    "shift_coefficient",
    "verify_representation",
]


# -- the smoothing operator ----------------------------------------------


def frac_integral(f: GridFunction, lam: float) -> GridFunction:
    """Apply the periodic power-kernel smoothing operator.

    Output cells hold exact cell averages of the operator applied to the
    piecewise-constant input: ``(G @ values) / h`` with ``G`` the cell-pair
    kernel integral matrix.
    """
    _check_lambda(lam)
    if len(f.axes) != 1:
        raise ShapeError("frac_integral acts on one-axis functions; "
                         "use partial_frac_integral for two axes")
    axis = f.axes[0]
    G = kernel_matrix(axis, lam)
    return f.with_values((G @ f.values) / axis.h)


def partial_frac_integral(f: GridFunction, lam: float, axis_index: int) -> GridFunction:
    """Apply the smoothing operator in one variable of a two-axis function."""
    _check_lambda(lam)
    if len(f.axes) != 2:
        raise ShapeError("partial_frac_integral needs a two-axis function")
    if axis_index not in (1, 2):
        raise ParameterError(f"axis_index must be 1 or 2, got {axis_index!r}")
    axis = f.axes[axis_index - 1]
    G = kernel_matrix(axis, lam)
    if axis_index == 1:
        vals = (G @ f.values) / axis.h
    else:
        vals = (f.values @ G) / axis.h
    return f.with_values(vals)


# -- coefficients ---------------------------------------------------------


def shift_coefficient(I: DyadicCube, J: DyadicCube, lam: float) -> Tuple[float, float]:
    """Raw and normalized Haar coefficient of the smoothing operator.

    raw = pairing of the J Haar step against the operator applied to the I
    Haar step; normalized multiplies by ``|K|**lam / (|I| |J|)**(1/2)`` with
    K the join of the pair, the scale against which all class bounds are
    stated.
    """
    _check_lambda(lam)
    if I.system != J.system:
        raise SystemMismatchError("shift_coefficient requires cubes of one system")
    G = kernel_matrix(I.axis, lam)
    raw = float(haar_function(J).values @ G @ haar_function(I).values)
    K = join(I, J)
    normalized = raw * 2.0 ** (0.5 * I.level + 0.5 * J.level - lam * K.level)
    return raw, normalized


def concentric_indicator_pairing(I: DyadicCube, extra_cells: int, lam: float) -> float:
    """Pairing of the indicator of the arc concentric with ``I`` (widened by
    ``extra_cells`` on each side) against the smoothed Haar step of ``I``.

    Vanishes identically: the kernel is even, the Haar step is odd about
    the common center, and the widened arc is symmetric about it.
    """
    _check_lambda(lam)
    if extra_cells < 0:
        raise ParameterError(f"extra_cells must be >= 0, got {extra_cells}")
    n = I.axis.n_cells
    if I.width_cells + 2 * extra_cells > n:
        raise ParameterError("widened arc exceeds the torus")
    G = kernel_matrix(I.axis, lam)
    smoothed = G @ haar_function(I).values
    cells = (I.start_cell - extra_cells + np.arange(I.width_cells + 2 * extra_cells)) % n
    return float(smoothed[cells].sum())


# -- positional classification -------------------------------------------


@dataclass(frozen=True)
class SigmaClass:
    """Positional class of an ordered cube pair (smaller-or-equal cube
    first): ``out`` (disjoint, separated beyond the goodness threshold),
    ``near`` (disjoint, close), ``shallow_in`` (contained, depth <= r),
    ``deep_in`` (contained, depth > r).  ``transposed`` records that the
    caller swapped a pair to restore the size order."""

    tag: str
    transposed: bool = False


def classify_pair(I: DyadicCube, J: DyadicCube, params: GoodParams) -> SigmaClass:
    """Exactly one of the four positional classes for a size-ordered pair.

    The near/out split compares the cube gap against
    ``len(J) * (len(I)/len(J))**gamma`` with exact rational arithmetic.
    """
    if I.system != J.system:
        raise SystemMismatchError("classify_pair requires cubes of one system")
    if I.level < J.level:
        raise ContractError(
            "classify_pair expects len(I) <= len(J); swap the pair and "
            "record the transposed tag"
        )
    depth = I.level - J.level
    if contains(J, I):
        tag = "shallow_in" if depth <= params.r else "deep_in"
        return SigmaClass(tag)
    dist = cube_distance_cells(I, J)
    L = I.axis.level
    if _within_threshold(dist, L, J.level, depth, params.gamma):
        return SigmaClass("near")
    return SigmaClass("out")


# -- shift operators ------------------------------------------------------


@dataclass(frozen=True)
class ShiftCoefficientTable:
    """Coefficients of a depth-(i, j) shift operator: entries map cube
    triples ``(I, J, K)`` with I at depth i and J at depth j below K to the
    coefficient multiplying the I-coefficient into the J direction."""

    i: int
    j: int
    lam: float
    entries: Mapping[Tuple[DyadicCube, DyadicCube, DyadicCube], float]

    def validate(self) -> None:
        for (I, J, K), a in self.entries.items():
            if ancestor(I, self.i) != K or ancestor(J, self.j) != K:
                raise InvariantError(
                    f"triple ({I}, {J}, {K}) does not match depths ({self.i}, {self.j})"
                )
            bound = 2.0 ** (-0.5 * I.level - 0.5 * J.level + self.lam * K.level)
            if abs(a) > bound * (1.0 + 1e-12):
                raise InvariantError(
                    f"coefficient {a} exceeds the size bound {bound} at {K}"
                )


def maximal_table(
    system: DyadicSystem, i: int, j: int, lam: float
) -> ShiftCoefficientTable:
    """The extremal admissible table: every coefficient sits at its size
    bound ``(|I| |J|)**(1/2) / |K|**lam``."""
    _check_lambda(lam)
    if i < 0 or j < 0:
        raise ParameterError("shift depths must be non-negative")
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
    return ShiftCoefficientTable(i, j, lam, entries)


def apply_shift(
    f: GridFunction,
    system: DyadicSystem,
    i: int,
    j: int,
    lam: float,
    table: ShiftCoefficientTable,
) -> GridFunction:
    """Apply the shift operator of a coefficient table: each entry routes
    the I Haar coefficient of ``f`` into the J Haar direction."""
    if len(f.axes) != 1 or f.axes[0] != system.axis:
        raise ShapeError("apply_shift needs a one-axis function on the system axis")
    if (i, j) != (table.i, table.j):
        raise ContractError(
            f"table is for depths ({table.i}, {table.j}), not ({i}, {j})"
        )
    table.validate()
    H = haar_matrix(system)
    cf = system.axis.h * (H.T @ f.values)
    out = np.zeros_like(cf)
    for (I, J, _K), a in table.entries.items():
        out[basis_column(J)] += a * cf[basis_column(I)]
    return grid_function(H @ out, system.axis)


# -- pointwise domination -------------------------------------------------


def _frac_scales(lam: float, level: int) -> np.ndarray:
    """``|I|**(1 - lam) = 2**(k*(lam - 1))`` for levels k = 0 .. ``level``."""
    return np.array([2.0 ** (k * (lam - 1.0)) for k in range(level + 1)])


def domination_ratio(f: GridFunction, lam: float, system: DyadicSystem) -> float:
    """Grid maximum of the scale-sum majorant against the smoothed |f|.

    The majorant is ``sum over cubes K of |K|**-lam * integral_K |f| * 1_K``
    (all levels of the system down to single cells); the theory bounds it by
    a constant multiple of the smoothing operator applied to |f|.
    """
    _check_lambda(lam)
    if len(f.axes) != 1 or f.axes[0] != system.axis:
        raise ShapeError("domination_ratio needs a one-axis function on the system axis")
    av = np.abs(f.values)
    if not np.any(av > 0.0):
        raise DegenerateInputError("domination_ratio needs a non-zero input")
    a = f.with_values(av)
    stack = expectation_stack(a, system)
    majorant = (_frac_scales(lam, system.axis.level)[:, None] * stack).sum(axis=0)
    smoothed = frac_integral(a, lam).values
    return float(np.max(majorant / smoothed))


# -- representation verification ------------------------------------------


@dataclass(frozen=True)
class RepresentationReport:
    """Outcome of the bilinear-identity and coefficient-class scan."""

    lam: float
    params: GoodParams
    n_systems: int
    residuals: Tuple[float, ...]
    relative_residuals: Tuple[float, ...]
    pair_energies: Mapping[Tuple[int, int], float]
    class_profiles: Mapping[str, Mapping[Tuple[int, int], float]]
    class_constants: Mapping[str, float]
    class_counts: Mapping[str, int]


def _int_bit_length(x: np.ndarray) -> np.ndarray:
    """Vectorized bit length of non-negative integers (exact below 2**53)."""
    return np.frexp(x.astype(float))[1]


def _scan_system(
    system: DyadicSystem,
    lam: float,
    params: GoodParams,
    profiles: Dict[str, Dict[Tuple[int, int], float]],
    counts: Dict[str, int],
    energies: Dict[Tuple[int, int], float],
    cf: np.ndarray,
    cg: np.ndarray,
    M: np.ndarray,
) -> None:
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
            kK = lo - _int_bit_length(x)
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


def verify_representation(
    f: GridFunction,
    g: GridFunction,
    lam: float,
    params: GoodParams,
    systems: Iterable[DyadicSystem],
) -> RepresentationReport:
    """Check the exact bilinear coefficient expansion of the smoothing
    operator and measure per-class coefficient constants.

    For mean-zero inputs the pairing of ``g`` against the smoothed ``f``
    equals the double sum of Haar coefficients weighted by the operator's
    coefficient table; the report carries the per-system residuals, the
    per-depth-pair energy split, and for every positional class the largest
    normalized coefficient over pairs whose smaller cube is good (classes
    out and deep_in weighted by ``2**(max(i,j)/2)`` to expose their decay).
    """
    _check_lambda(lam)
    if len(f.axes) != 1 or len(g.axes) != 1 or f.axes != g.axes:
        raise ShapeError("verify_representation needs one-axis functions on one axis")
    scale = max(l2_norm(f) * l2_norm(g), 1e-300)
    if abs(f.mean()) > 1e-12 * max(l2_norm(f), 1e-300) or abs(g.mean()) > 1e-12 * max(
        l2_norm(g), 1e-300
    ):
        raise ContractError(
            "verify_representation needs mean-zero inputs; subtract the cell "
            "mean (f - f.mean()) before calling"
        )

    axis = f.axes[0]
    G = kernel_matrix(axis, lam)
    lhs = inner_product(g, frac_integral(f, lam))

    residuals = []
    relatives = []
    profiles: Dict[str, Dict[Tuple[int, int], float]] = {
        "out": {},
        "near": {},
        "shallow_in": {},
        "deep_in": {},
    }
    counts = {tag: 0 for tag in profiles}
    energies: Dict[Tuple[int, int], float] = {}

    n_systems = 0
    for system in systems:
        if system.axis != axis:
            raise SystemMismatchError("system axis does not match the functions")
        n_systems += 1
        H = haar_matrix(system)
        M = H.T @ G @ H
        cf = axis.h * (H.T @ f.values)
        cg = axis.h * (H.T @ g.values)
        total = float(cg[1:] @ M[1:, 1:] @ cf[1:])
        res = abs(lhs - total)
        residuals.append(res)
        relatives.append(res / scale)
        _scan_system(system, lam, params, profiles, counts, energies, cf, cg, M)

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
        class_profiles={tag: dict(prof) for tag, prof in profiles.items()},
        class_constants=constants,
        class_counts=counts,
    )
