"""Power-kernel smoothing operators and their Haar-coefficient anatomy.

The smoothing operator convolves against the periodic kernel d(x-y)**-lam
exactly at cell resolution: ``_smooth`` is its one home, a circular
convolution with the kernel profile of exact cell-pair integrals, and no
library path forms the dense kernel matrix.  Every smoothed Haar step
comes from one cached table of L, the first cube's per level
(``_smoothed_steps``), shifted by circulance: the concentric pairings
read it, and the representation harness reads the kernel in the Haar
basis from its analysis (see :func:`_entries`).  On top of it this module
provides the coefficient machinery used to analyse the operator in a
shifted lattice: the four-way positional classification of cube pairs,
coefficient tables for shift operators with the canonical size bound, the
pointwise domination scan, and a verification harness that checks the
bilinear expansion identity and measures per-class coefficient constants.

A shift table is one array with a row per cube K in heap order, so
routing Haar coefficients through a shift is one contraction along the
array axis (see :class:`ShiftCoefficientTable`).

The harness does the offset-free work (Haar-basis kernel columns, cached
per (axis, lambda), goodness, pair classes) once, on the offset-0
lattice.  One stationary Haar table per input holds every
lattice's coefficients, and ``_pairings`` reads the pairings of all
offsets from the two tables with a few FFTs; ``_residuals`` turns them
into the identity's residuals, for the harness and for a caller that
reads residuals only (see :func:`verify_representation`).  One rule,
``_entries``, reads any entry of the kernel in the Haar basis from its
columns: the class census ``_lattice_classes`` reads the size-ordered
level-pair blocks by it, over the rows of good cubes only, once per call,
skipping the levels with none, and classes each block with ``_pair_class``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterable, Mapping, Tuple

import numpy as np

from .dyadic import (
    DyadicCube,
    DyadicSystem,
    GoodParams,
    _arc_gap_cells,
    _join_level,
    _placed,
    _within_threshold,
    bad_mask,
)
from .errors import (
    ContractError,
    DegenerateInputError,
    InvariantError,
    ParameterError,
    ShapeError,
)
from .grid import (
    Axis,
    GridFunction,
    _check_integers,
    _check_lambda,
    inner_product,
    kernel_profile,
    l2_norm,
)
from .haar import _check_step, _level_fold, _stationary_analyze, column_cubes
from .haar import haar_analyze, haar_synthesize

__all__ = [
    "RepresentationReport",
    "ShiftCoefficientTable",
    "concentric_indicator_pairing",
    "domination_ratio",
    "frac_integral",
    "maximal_table",
    "verify_representation",
]


# -- the smoothing operator ----------------------------------------------


@lru_cache(maxsize=64)
def _kernel_spectrum(axis: Axis, lam: float) -> np.ndarray:
    """``rfft`` of :func:`~dyadica.grid.kernel_profile`, cached per
    (axis, lambda) and read-only."""
    spectrum = np.fft.rfft(kernel_profile(axis, lam))
    spectrum.setflags(write=False)
    return spectrum


def _smooth(values: np.ndarray, axis: Axis, lam: float, pos: int = 0) -> np.ndarray:
    """``(G @ values) / h`` along array axis ``pos``, with ``G`` the
    circulant cell-pair kernel matrix: one circular convolution of
    ``values`` with :func:`~dyadica.grid.kernel_profile`, G never formed."""
    n = axis.n_cells
    shape = [1] * values.ndim
    shape[pos] = n // 2 + 1
    spectrum = _kernel_spectrum(axis, lam).reshape(shape)
    conv = np.fft.irfft(np.fft.rfft(values, axis=pos) * spectrum, n=n, axis=pos)
    return conv / axis.h


def frac_integral(f: GridFunction, lam: float) -> GridFunction:
    """Apply the periodic power-kernel smoothing operator.

    Output cells hold exact cell averages of the operator applied to the
    piecewise-constant input: ``(G @ values) / h`` with ``G`` the cell-pair
    kernel integral matrix (see :func:`_smooth`).
    """
    _check_lambda(lam)
    if len(f.axes) != 1:
        raise ShapeError("frac_integral acts on one-axis functions")
    return f.with_values(_smooth(f.values, f.axes[0], lam))


# -- coefficients ---------------------------------------------------------


@lru_cache(maxsize=16)  # one entry is n * L floats, 1.8 MiB at L=14
def _smoothed_steps(axis: Axis, lam: float) -> np.ndarray:
    """``S[:, k]``, the smoothed Haar step of the offset-0 lattice's first
    level-k cube, k < L: the one place a Haar step is smoothed.  G is
    circulant, so any cube's smoothed step is its level's column shifted to
    the cube's start.  Cached per (axis, lambda) and read-only."""
    L = axis.level
    first = np.zeros((axis.n_cells, L))
    first[1 << np.arange(L), np.arange(L)] = 1.0
    steps = _smooth(haar_synthesize(first, DyadicSystem(axis, 0)), axis, lam)
    steps.setflags(write=False)
    return steps


def concentric_indicator_pairing(I: DyadicCube, extra_cells: int, lam: float) -> float:
    """Pairing of the indicator of the arc concentric with ``I`` (widened by
    ``extra_cells`` on each side) against the smoothed Haar step of ``I``:
    its level's column of :func:`_smoothed_steps`, read from cell
    ``-extra_cells`` with no offset or index.

    Vanishes identically: the kernel is even, the Haar step is odd about
    the common center, and the widened arc is symmetric about it.
    """
    _check_integers(extra_cells=extra_cells)
    _check_lambda(lam)
    if extra_cells < 0:
        raise ParameterError(f"extra_cells must be >= 0, got {extra_cells}")
    n = I.axis.n_cells
    if I.width_cells + 2 * extra_cells > n:
        raise ParameterError("widened arc exceeds the torus")
    _check_step(I)
    cells = (np.arange(I.width_cells + 2 * extra_cells) - extra_cells) % n
    return float(I.axis.h * _smoothed_steps(I.axis, lam)[cells, I.level].sum())


# -- positional classification -------------------------------------------


_TAGS = ("out", "near", "shallow_in", "deep_in")


def _pair_class(axis: Axis, kI: int, a, kJ: int, b, kK, params: GoodParams):
    """``_TAGS`` index of the pairs of level-kI cubes ``a`` and level-kJ cubes
    ``b`` (``kI >= kJ``; offset-relative indices, ints or arrays) of one
    lattice whose join lies at level ``kK``; their gap is
    :func:`dyadica.dyadic._arc_gap_cells`."""
    n = axis.n_cells
    wI, wJ = n >> kI, n >> kJ
    depth = kI - kJ
    gap = _arc_gap_cells(n, a * wI, wI, b * wJ, wJ)
    near = _within_threshold(gap, axis.level, kJ, depth, params.gamma)
    return np.where(kK == kJ, 2 + int(depth > params.r), near.astype(int))


# -- shift operators ------------------------------------------------------


def _row_bounds(i: int, j: int, lam: float, system: DyadicSystem, rows: int) -> np.ndarray:
    """The size bound ``(|I| |J|)**(1/2) / |K|**lam`` of each table row,
    computed once per level of K; row 0 holds no cube and gets bound 0."""
    levels, _ = column_cubes(np.arange(rows), system)  # -1 for row 0
    per_level = [
        2.0 ** (-0.5 * (k + i) - 0.5 * (k + j) + lam * k) for k in range(levels[-1] + 1)
    ]
    return np.array([0.0] + per_level)[levels + 1]


@dataclass(frozen=True, eq=False)
class ShiftCoefficientTable:
    """Coefficients of a depth-(i, j) shift operator, one row per cube K in
    heap order (:func:`~dyadica.haar.basis_column`): ``coeffs[c, dJ, dI]``
    routes the Haar coefficient at column ``(c << i) + dI``, a cube I lying
    i levels below the K at column ``c``, into column ``(c << j) + dJ``, a
    cube J lying j levels below it.  On an L-level axis the shape is
    ``(2**(L - max(i, j)), 2**j, 2**i)``; row 0 is not a cube and holds 0.
    The array is a read-only copy."""

    i: int
    j: int
    lam: float
    coeffs: np.ndarray

    def __post_init__(self):
        _check_integers(i=self.i, j=self.j)
        if self.i < 0 or self.j < 0:
            raise ParameterError("shift depths must be non-negative")
        coeffs = np.array(self.coeffs, dtype=float)
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)

    def validate(self, system: DyadicSystem) -> None:
        """Check the shape against the level of ``system``'s axis and every
        coefficient against its size bound (a NaN fails)."""
        L = system.axis.level
        shape = (1 << max(L - max(self.i, self.j), 0), 1 << self.j, 1 << self.i)
        if self.coeffs.shape != shape:
            raise InvariantError(f"table shape {self.coeffs.shape} is not {shape}")
        bound = _row_bounds(self.i, self.j, self.lam, system, shape[0])[:, None, None]
        over = ~(np.abs(self.coeffs) <= bound * (1.0 + 1e-12))
        if over.any():
            c, dJ, dI = np.argwhere(over)[0]
            raise InvariantError(
                f"coefficient {self.coeffs[c, dJ, dI]} exceeds the size bound "
                f"{bound[c, 0, 0]} at table row {c}"
            )


def maximal_table(
    system: DyadicSystem, i: int, j: int, lam: float
) -> ShiftCoefficientTable:
    """The extremal admissible table: every coefficient sits at its size
    bound ``(|I| |J|)**(1/2) / |K|**lam``."""
    _check_integers(i=i, j=j)
    _check_lambda(lam)
    L = system.axis.level
    if not (0 <= i <= L and 0 <= j <= L):
        raise ParameterError(f"shift depths ({i}, {j}) must lie in [0, {L}]")
    rows = 1 << (L - max(i, j))
    bound = _row_bounds(i, j, lam, system, rows)[:, None, None]
    return ShiftCoefficientTable(i, j, lam, np.broadcast_to(bound, (rows, 1 << j, 1 << i)))


def _route(table: ShiftCoefficientTable, coeffs: np.ndarray) -> np.ndarray:
    """Haar coefficients along array axis 0 routed through a table: in heap
    order all rows' sources are one slice, and so are their targets."""
    i, j, rows = table.i, table.j, table.coeffs.shape[0]
    src = coeffs[1 << i : rows << i].reshape((rows - 1, 1 << i) + coeffs.shape[1:])
    out = np.zeros_like(coeffs)
    routed = np.einsum("cji,ci...->cj...", table.coeffs[1:], src)
    out[1 << j : rows << j] = routed.reshape(((rows - 1) << j,) + coeffs.shape[1:])
    return out


# -- pointwise domination -------------------------------------------------


def _frac_scales(lam: float, level: int) -> np.ndarray:
    """``|I|**(1 - lam) = 2**(k*(lam - 1))`` at each heap column c >= 1, I its level-k cube."""
    per_level = [2.0 ** (k * (lam - 1.0)) for k in range(level + 1)]
    return np.repeat(per_level, 1 << np.arange(level + 1))


def _scale_fold_ratio(f: GridFunction, system: DyadicSystem, lam: float, op) -> float:
    """Grid max of the ratio (|f|'s cube averages times ``|I|**(1 - lam)``,
    folded over the levels with ``op``) / (smoothing of |f|)."""
    _check_lambda(lam)
    _placed(f, system, 1)
    av = np.abs(f.values)
    if not np.any(av):
        raise DegenerateInputError("f vanishes identically")
    smoothed = frac_integral(f.with_values(av), lam).values
    if not np.all(smoothed > 0):
        raise DegenerateInputError("the smoothing of |f| underflows to 0")
    folded = _level_fold(av, system, 0, _frac_scales(lam, system.axis.level), op)
    return float(np.max(folded / smoothed))


def domination_ratio(f: GridFunction, lam: float, system: DyadicSystem) -> float:
    """Grid maximum of the scale-sum majorant against the smoothed |f|.

    The majorant is ``sum over cubes K of |K|**-lam * integral_K |f| * 1_K``
    (all levels of the system down to single cells); the theory bounds it by
    a constant multiple of the smoothing operator applied to |f|.
    """
    return _scale_fold_ratio(f, system, lam, np.add)


# -- representation verification ------------------------------------------


@dataclass(frozen=True)
class RepresentationReport:
    """Outcome of the bilinear-identity and coefficient-class scan."""

    n_systems: int
    residuals: Tuple[float, ...]
    relative_residuals: Tuple[float, ...]
    class_profiles: Mapping[str, Mapping[Tuple[int, int], float]]
    class_constants: Mapping[str, float]
    class_counts: Mapping[str, int]


@lru_cache(maxsize=16)  # one entry is n * L floats, 1.8 MiB at L=14
def _kernel_columns(axis: Axis, lam: float) -> np.ndarray:
    """Columns ``C[:, k]`` of the Haar-basis kernel ``M = H.T G H`` of the
    offset-0 lattice at the first cube of each level k = 0 .. L-1: the
    smoothed Haar steps (:func:`_smoothed_steps`) analyzed.  Cached per
    (axis, lambda) and read-only."""
    columns = haar_analyze(_smoothed_steps(axis, lam), DyadicSystem(axis, 0))
    columns.setflags(write=False)
    return columns


def _pairings(axis: Axis, lam: float, UV: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """The Haar-side pairing ``cg . M cf`` of the lattice at each offset, from
    the stationary coefficients ``U, V = UV`` of f and g
    (:func:`~dyadica.haar._stationary_analyze`), at a cost that does not
    depend on the number of offsets.

    Block (kI, kJ), kI >= kJ, has entry ``c[(a - b s) mod 2**kI]``
    (:func:`_entries`), so with ``w = n >> kI`` its pairing at offset o is
    ``sum_b (U[kJ] z)(o + b (n >> kJ))``, where
    ``z(x) = sum_t c[t] V[kI, x + t w]`` is a circular correlation of
    ``V[kI]`` with c upsampled by w: a fold of period ``n >> kJ`` of the
    product, read at ``o mod (n >> kJ)``.  The mirror block (kJ, kI),
    kJ < kI, swaps U and V.

    In frequency the correlations of one kJ sum over kI.  The length-n
    spectrum of c upsampled by w is the ``2**kI``-point FFT of c, tiled, so
    frequency ``xi`` reads its entry ``xi & (2**kI - 1)``.  A call makes one
    ``rfft`` and one ``irfft`` of both tables, one FFT per level kI of the
    level-kI rows of kernel columns 0 .. kI, L(L+1)/2 multiply-adds and
    L - 1 halvings for the L folds.
    """
    n, L = axis.n_cells, axis.level
    C = _kernel_columns(axis, lam)
    Uhat, Vhat = np.fft.rfft(UV, axis=-1)
    xi = np.arange(n // 2 + 1)
    # Z[0, kJ] is read against U[kJ]; Z[1, kJ], the mirror, against V[kJ]
    Z = np.zeros((2, L, n // 2 + 1), dtype=complex)
    for kI in range(L):
        spectrum = np.conj(np.fft.fft(C[1 << kI : 2 << kI, : kI + 1].T, axis=-1))
        tiled = spectrum[:, xi & ((1 << kI) - 1)]
        Z[0, : kI + 1] += tiled * Vhat[kI]
        Z[1, :kI] += tiled[:kI] * Uhat[kI]
    products = (UV * np.fft.irfft(Z, n, axis=-1)).sum(axis=0)
    # halving rows kJ >= t at step t leaves row kJ's fold in its first n >> kJ
    for t in range(1, L):
        w = n >> t
        products[t:, :w] += products[t:, w : 2 * w]
    periods = n >> np.arange(L)[:, None]
    return products[np.arange(L)[:, None], offsets % periods].sum(axis=0)


def _entries(C: np.ndarray, kI: int, a, kJ: int, b):
    """Entries ``M[(kI, a), (kJ, b)]``, ``kI >= kJ``, of the Haar-basis kernel
    from its columns ``C`` (:func:`_kernel_columns`), for level-kI cubes
    ``a`` and level-kJ cubes ``b`` of the offset-0 lattice (ints or
    broadcasting index arrays).

    A circulant G shifts both cubes by ``b`` level-kJ widths, so the entry
    is ``C[2**kI + (a - b s) mod 2**kI, kJ]`` with ``s = 2**(kI - kJ)``.  G
    is symmetric, so the block of the mirror pair (kJ, kI) is the transpose
    (the non-standard form of Beylkin, Coifman and Rokhlin).
    """
    return C[(1 << kI) + (a - (b << (kI - kJ))) % (1 << kI), kJ]


def _lattice_classes(axis: Axis, lam: float, params: GoodParams) -> Tuple[dict, Dict[str, int]]:
    """Class profiles and counts of the offset-0 lattice per (axis, lambda,
    params), from one pass over its size-ordered blocks (:func:`_entries`).

    Classes count and profile size-ordered pairs whose smaller cube is good;
    a profile keeps an entry only above ``1e-12`` of its class's largest,
    since smaller ones are rounding noise of entries that vanish in exact
    arithmetic.  Goodness per level and the decay ``2**(-lam k)`` per join
    level k are built once per call, and the pass reads the blocks' rows of
    good smaller cubes only, so no other row's entry or join level is
    gathered, and only the levels that hold a good smaller cube: a level
    with none reads no block and makes no ``_pair_class`` call.
    """
    L = axis.level
    width = (L + 1) ** 2
    C = _kernel_columns(axis, lam)
    lattice = DyadicSystem(axis, 0)
    # each level's good cubes, a column of rows a against the blocks' columns b
    good = [np.flatnonzero(~bad_mask(lattice, k, params))[:, None] for k in range(L)]
    decay = 2.0 ** (-lam * np.arange(L))
    counts = np.zeros(len(_TAGS), dtype=np.int64)
    peaks = np.zeros(len(_TAGS) * width)
    for kI, a in enumerate(good):
        if not a.size:
            continue
        for kJ in range(kI + 1):
            b = np.arange(1 << kJ)
            block, kK = _entries(C, kI, a, kJ, b), _join_level(kI, a, kJ, b)
            flat = (kI * (L + 1) + kJ) - (L + 2) * kK
            normalized = np.abs(block) * 2.0 ** (0.5 * (kI + kJ)) * decay[kK]
            tag = _pair_class(axis, kI, a, kJ, b, kK, params)
            counts += np.bincount(tag.ravel(), minlength=len(_TAGS))
            np.maximum.at(peaks, (tag * width + flat).ravel(), normalized.ravel())

    peaks = peaks.reshape(len(_TAGS), width)
    kept = peaks > 1e-12 * peaks.max(axis=1, keepdims=True)
    profiles = {tag: {} for tag in _TAGS}
    for t, label in zip(*np.nonzero(kept)):
        profiles[_TAGS[t]][divmod(int(label), L + 1)] = float(peaks[t, label])
    return profiles, dict(zip(_TAGS, counts.tolist()))


def _residuals(f: GridFunction, g: GridFunction, lam: float, offsets: np.ndarray):
    """``(residuals, relative)``: the absolute residual of the bilinear
    identity on the lattice at each offset, and the same over
    ``max(||f|| ||g||, 1e-300)``, with the pairings read from the stationary
    Haar tables of f and g (:func:`~dyadica.haar._stationary_analyze`,
    :func:`_pairings`).  f and g are mean-zero one-axis functions on one
    axis; nothing is checked here."""
    axis = f.axes[0]
    UV = _stationary_analyze(np.stack((f.values, g.values)), axis)
    residuals = np.abs(inner_product(g, frac_integral(f, lam)) - _pairings(axis, lam, UV, offsets))
    return residuals, residuals / max(l2_norm(f) * l2_norm(g), 1e-300)


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
    coefficient table; the report carries the per-system residuals and, for
    every positional class, the largest normalized coefficient over pairs
    whose smaller cube is good (classes out and deep_in weighted by
    ``2**(max(i,j)/2)`` to expose their decay).

    Offset o shifts cells cyclically, ``H_o[(c + o) mod n] = H_0[c]``, and
    the kernel is circulant, so the Haar-basis kernel ``H_o.T G H_o`` does
    not depend on o, and neither do goodness and classes: the kernel, class
    profiles and counts come from the offset-0 lattice, exact up to
    rounding (counts times the number of systems).  That kernel is never
    formed: its L columns at the first cube of each level hold every entry
    (:func:`_entries`), and they are cached per (axis, ``lam``), so a key's
    census smooths the L Haar steps once.

    Every system's coefficients ``h H_0.T f[(c + o) mod n]`` are entries of
    one stationary Haar table per input
    (:func:`~dyadica.haar._stationary_analyze`).  The pairings of all
    systems come from the two tables and the kernel columns with a few FFTs
    (:func:`_residuals`), at a cost that does not depend on the number of
    systems.  The class census (:func:`_lattice_classes`) depends only on
    (axis, ``lam``, ``params``) and runs once per call, over the levels that
    hold a good smaller cube only.  Systems are validated before any work.
    """
    _check_lambda(lam)
    systems = list(systems)
    lattice = DyadicSystem(f.axes[0], 0)  # the work runs on it
    _placed(f, lattice, 1, grids=(g.axes,))
    # the helper runs for the first system off the lattice's axis, and raises;
    # a call per system would cost more than the checks at hundreds of systems
    for system in systems:
        if not (isinstance(system, DyadicSystem) and system.axis == lattice.axis):
            _placed(f, system, 1)
    if any(abs(h.mean()) > 1e-12 * max(l2_norm(h), 1e-300) for h in (f, g)):
        raise ContractError(
            "verify_representation needs mean-zero inputs; subtract the cell "
            "mean (f - f.mean()) before calling"
        )

    residuals = relative = np.zeros(0)
    profiles, counts = {tag: {} for tag in _TAGS}, dict.fromkeys(_TAGS, 0)
    if systems:
        offsets = np.array([s.offset_cells for s in systems])
        residuals, relative = _residuals(f, g, lam, offsets)
        profiles, counts = _lattice_classes(lattice.axis, lam, params)
        counts = {tag: c * len(systems) for tag, c in counts.items()}

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
        n_systems=len(systems),
        residuals=tuple(residuals.tolist()),
        relative_residuals=tuple(relative.tolist()),
        class_profiles=profiles,
        class_constants=constants,
        class_counts=counts,
    )
