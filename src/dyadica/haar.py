"""Haar functions and one-/bi-parameter martingale calculus.

Every shifted lattice carries an orthonormal basis of cell space: the
constant function together with one L2-normalized Haar step per cube that
still has children on the mesh.  This module exposes that basis as
functions and through one transform pair along an array axis,
:func:`haar_analyze` and its inverse :func:`haar_synthesize`: Mallat's
pyramid, one pairwise sum and one difference per level, O(n) per line.
Coefficient tables are arrays in :func:`basis_column` order per axis
(:func:`column_cubes` decodes columns back to cubes);
:func:`haar_matrix`, the synthesized identity, is the dense reference.
The stationary table :func:`_stationary_analyze` holds the coefficient of
the cube of each level that starts at each cell, so one ``(L, n)`` table
per line serves every shifted lattice at once (cycle spinning).

Martingale calculus rests on one primitive, the one block-mean reducer
:func:`_cube_means`: one cyclic shift and one reshape and block sum per
level give one mean per cube in :func:`basis_column` order, 2n per axis,
over two axes the pyramid R[c1, c2] of 4 n1 n2 means.  Every path reads
them: a column's step from its parent is a martingale difference, a chain
sum (or max) folds each cell's columns into its value, and spread back
over the cells they are the expectation stack E_0 .. E_L, the public level
operators and the rectangle table.  Column c's parent is column c >> 1 by
one rule: ``_parents`` reads it, and the chain fold broadcasts it over its
children's sibling pairs.  The chain fold reads one other heap table, the
bi-parameter dyadic maximal function's rectangle means, whose bits are
each rectangle's C-ordered ``mean()``.  Block operators restrict a
difference to one cube, or to one rectangle by composing the factors.

Every entry point checks its systems with :func:`dyadica.dyadic._placed`,
through ``_axis_position`` where an axis selector names the array axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from .dyadic import DyadicCube, DyadicSystem, _placed
from .errors import ParameterError, ResolutionError, ShapeError
from .grid import Axis, GridFunction, _check_integers, _is_integer, _shifted, grid_function

__all__ = [
    "HaarCoefficientMap",
    "average_project",
    "expectation_stack",
    "haar_analyze",
    "haar_expand",
    "haar_function",
    "haar_matrix",
    "haar_synthesize",
    "level_average",
    "level_difference",
    "martingale_block",
    "partial_pairing",
    "rect_block",
    "rectangle_table",
]


# -- basis ----------------------------------------------------------------


def haar_function(cube: DyadicCube) -> GridFunction:
    """The L2-normalized Haar step of ``cube``: ``+|I|**-1/2`` on the left
    half, ``-|I|**-1/2`` on the right half, zero elsewhere.

    Raises
    ------
    ResolutionError
        If the cube sits at the finest level (its halves are not mesh cells).
    """
    axis = cube.system.axis
    if cube.level >= axis.level:
        raise ResolutionError(
            f"cube at level {cube.level} has no children at mesh level {axis.level}"
        )
    cells = cube.cells()
    half = cells.size // 2
    scale = 2.0 ** (cube.level / 2.0)
    vals = np.zeros(axis.n_cells)
    vals[cells[:half]] = scale
    vals[cells[half:]] = -scale
    return grid_function(vals, axis)


def basis_column(cube: DyadicCube) -> int:
    """Column of :func:`haar_matrix` holding the Haar step of ``cube``.

    Column 0 is the constant; the cube at level ``k``, index ``m`` sits at
    column ``2**k + m``.  This is heap order: column ``j``'s children sit at
    columns ``2j`` and ``2j + 1``.
    """
    return (1 << cube.level) + cube.index


def column_cubes(cols, system: DyadicSystem) -> Tuple[np.ndarray, np.ndarray]:
    """Level and start cell of the cube at each Haar column in ``cols``:
    :func:`basis_column` inverted, elementwise.  Column 0, the constant,
    gets level -1 and the start cell of the whole axis."""
    cols = np.asarray(cols, dtype=np.int64)
    level = np.frexp(cols.astype(float))[1] - 1  # exact below 2**53
    k = np.maximum(level, 0)
    n = system.axis.n_cells
    return level, (system.offset_cells + (cols - (1 << k)) * (n >> k)) % n


def _along(a, system: DyadicSystem, pos: int):
    """``a`` as floats, array axis ``pos`` counted from the front (a negative
    ``pos`` counts from the back), the shape before and after that axis and
    the index prefix that reaches it; the axis must hold one entry per cell
    of ``system``."""
    a = np.asarray(a, dtype=float)
    if not -a.ndim <= pos < a.ndim:
        raise ShapeError(f"axis {pos} out of range for a {a.ndim}-axis array")
    pos %= a.ndim
    if a.shape[pos] != system.axis.n_cells:
        raise ShapeError(f"axis {pos} has {a.shape[pos]} entries, not {system.axis.n_cells}")
    return a, pos, a.shape[:pos], a.shape[pos + 1 :], (slice(None),) * pos


def haar_analyze(values, system: DyadicSystem, pos: int = 0) -> np.ndarray:
    """Haar coefficients of cell values along array axis ``pos``: the
    product ``h * H.T @ values`` with ``H = haar_matrix(system)``, in
    :func:`basis_column` order, without forming ``H``.

    Level by level from the finest, each pair of sibling cube sums gives
    its parent's sum and, scaled, the parent's coefficient."""
    v, pos, lead, trail, at = _along(values, system, pos)
    if system.offset_cells:
        v = _shifted(v, -system.offset_cells, pos)  # the first cube at cell 0
    h = system.axis.h
    out = np.empty(v.shape)
    for k in range(system.axis.level - 1, -1, -1):
        pairs = v.reshape(lead + (1 << k, 2) + trail)
        left, right = pairs[at + (slice(None), 0)], pairs[at + (slice(None), 1)]
        out[at + (slice(1 << k, 2 << k),)] = h * 2.0 ** (k / 2.0) * (left - right)
        v = left + right
    out[at + (slice(0, 1),)] = h * v
    return out


def _stationary_analyze(values: np.ndarray, axis: Axis) -> np.ndarray:
    """Stationary Haar coefficients of lines of cell values along the last
    array axis: ``U[..., k, x]`` is the coefficient of the level-``k`` cube
    that starts at cell ``x``, for every ``x``, so one ``(L, n)`` table per
    line holds every lattice's coefficients:
    ``haar_analyze(line, DyadicSystem(axis, o))`` at column ``2**k + a`` is
    ``U[k, (o + a * (n >> k)) mod n]``, bit for bit.

    Level by level from the finest, each cell's sum over the cube starting
    there adds the sum of the cube to its right, with the additions of
    :func:`haar_analyze` (cycle spinning, after Coifman and Donoho)."""
    sums = np.asarray(values, dtype=float)
    n, h, last = axis.n_cells, axis.h, sums.ndim - 1
    out = np.empty(sums.shape[:-1] + (axis.level, n))
    for k in range(axis.level - 1, -1, -1):
        right = _shifted(sums, -(n >> (k + 1)), last)
        out[..., k, :] = h * 2.0 ** (k / 2.0) * (sums - right)
        sums = sums + right
    return out


def haar_synthesize(coeffs, system: DyadicSystem, pos: int = 0) -> np.ndarray:
    """Cell values of a Haar coefficient table along array axis ``pos``:
    the product ``H @ coeffs`` with ``H = haar_matrix(system)``, without
    forming ``H``; the inverse of :func:`haar_analyze`.

    Level by level from the coarsest, each cube's value splits into its
    children's, plus and minus its scaled coefficient."""
    c, pos, lead, trail, at = _along(coeffs, system, pos)
    a = c[at + (slice(0, 1),)]
    for k in range(system.axis.level):
        d = 2.0 ** (k / 2.0) * c[at + (slice(1 << k, 2 << k),)]
        pairs = np.empty(lead + (1 << k, 2) + trail)
        pairs[at + (slice(None), 0)] = a + d
        pairs[at + (slice(None), 1)] = a - d
        a = pairs.reshape(lead + (2 << k,) + trail)
    if system.offset_cells:
        a = _shifted(a, system.offset_cells, pos)
    return a


@lru_cache(maxsize=64)
def haar_matrix(system: DyadicSystem) -> np.ndarray:
    """Cell-value matrix whose columns are the constant function followed by
    every Haar step of ``system``, in :func:`basis_column` order.

    Orthonormal with respect to the cell-volume weighted inner product:
    ``h * H.T @ H = identity``.  The dense reference for the transform pair;
    the library itself never multiplies by it.
    """
    H = haar_synthesize(np.eye(system.axis.n_cells), system)
    H.setflags(write=False)
    return H


# -- axis resolution ------------------------------------------------------


def _axis_position(f: GridFunction, system: DyadicSystem, axis_index, ndim=None) -> int:
    """The array axis of a selector (1, 2, or None for a sole axis) after
    :func:`dyadica.dyadic._placed`; ``ndim`` fixes the axes of ``f`` for 1, 2."""
    if not (axis_index is None or _is_integer(axis_index) and axis_index in (1, 2)):
        raise ParameterError(f"axis_index must be 1, 2 or None, got {axis_index!r}")
    pos = 0 if axis_index is None else axis_index - 1
    _placed(f, system, 1 if axis_index is None else ndim, ((pos, 0),))
    return pos


# -- averaging and differences --------------------------------------------


def expectation_stack(
    f: GridFunction, system: DyadicSystem, axis_index=None
) -> np.ndarray:
    """Every conditional expectation of ``f`` in one variable: entry ``k``
    of the ``(L + 1,) + f.values.shape`` result is, bit for bit,
    ``level_average(f, system, k, axis_index).values``; consecutive
    differences along the first axis are the martingale differences."""
    pos = _axis_position(f, system, axis_index)
    return _spread(f.values, system, pos, range(system.axis.level + 1))


def rectangle_table(
    f: GridFunction, system1: DyadicSystem, system2: DyadicSystem
) -> np.ndarray:
    """Rectangle averages of a two-axis function at every level pair:
    ``T[k1, k2]`` is the level-``k1`` average in the first variable, then
    the level-``k2`` average in the second, bit for bit the nested
    :func:`level_average` calls; shape ``(L1 + 1, L2 + 1, n1, n2)``: the
    means of :func:`_pyramid`, spread over the cells."""
    _placed(f, (system1, system2), 2)
    first = _spread(f.values, system1, 0, range(system1.axis.level + 1))
    both = _spread(first, system2, 2, range(system2.axis.level + 1))
    return np.ascontiguousarray(both.swapaxes(0, 1))


def _cube_means(vals: np.ndarray, system: DyadicSystem, pos: int, levels=None) -> np.ndarray:
    """Cube means along array axis ``pos``, one per :func:`basis_column`:
    that axis grows to ``2n`` entries, entry 0 (no cube) zero, and so do the
    columns of levels not in ``levels`` (default every level).  Each level
    is reduced alone, so its bits do not depend on ``levels``."""
    v = np.moveaxis(vals, pos, 0)
    if system.offset_cells:
        v = _shifted(v, -system.offset_cells, 0)
    n = v.shape[0]
    out = np.zeros((2 * n,) + v.shape[1:])
    for level in range(system.axis.level + 1) if levels is None else levels:
        blocks = v.reshape((1 << level, n >> level) + v.shape[1:])
        out[1 << level : 2 << level] = np.add.reduce(blocks, axis=1) / (n >> level)
    return np.moveaxis(out, 0, pos)


def _spread(vals: np.ndarray, system: DyadicSystem, pos: int, levels: range) -> np.ndarray:
    """``E_k`` along array axis ``pos`` for ``k`` in ``levels``, stacked on a
    new leading axis: each cell takes the :func:`_cube_means` entry of its
    level-``k`` cube."""
    means = np.moveaxis(_cube_means(vals, system, pos, levels), pos, 0)
    n, rest = system.axis.n_cells, means.shape[1:]
    out = np.empty((len(levels), n) + rest)
    for i, level in enumerate(levels):
        out[i].reshape((1 << level, n >> level) + rest)[...] = means[1 << level : 2 << level, None]
    if system.offset_cells:
        out = _shifted(out, system.offset_cells, 1)
    return np.moveaxis(out, 1, pos + 1)


def _pyramid(vals: np.ndarray, system1: DyadicSystem, system2: DyadicSystem) -> np.ndarray:
    """``R[..., c1, c2]``, the mean over the rectangle at heap columns ``c1``,
    ``c2`` (row and column 0 zero) of each table on the last two axes of
    ``vals``: :func:`rectangle_table` at the rectangle's start cells, bit for
    bit."""
    return _cube_means(_cube_means(vals, system1, -2), system2, -1)


def _parents(R: np.ndarray, pos: int) -> np.ndarray:
    """``R[..., c >> 1, ...]`` along heap axis ``pos``: its first half, each entry twice."""
    return np.repeat(np.split(R, 2, axis=pos)[0], 2, axis=pos)


def _scale_views(R: np.ndarray) -> dict:
    """The four scale views of pyramids on the last two axes of ``R``, keyed
    (first axis, second axis): per axis, ``A`` is the parent's mean
    (:func:`_parents`) and ``D`` is ``R[c] - R[c >> 1]``.  Column 1's parent
    is the zero column 0, so the whole-axis mean enters as a ``D``."""
    A1 = _parents(R, -2)
    D1 = R - A1
    AA, DA = _parents(A1, -1), _parents(D1, -1)
    return {("A", "A"): AA, ("A", "D"): A1 - AA, ("D", "A"): DA, ("D", "D"): D1 - DA}


def _chain_sum(P: np.ndarray, axes, first: int = 2, op=np.add) -> np.ndarray:
    """Cell values of ``P``, heap-indexed along each (array axis, system) in
    ``axes``: per axis, coarse to fine, each cell folds with ``op`` (``np.add``
    or ``np.maximum``) ``P`` at its cubes' columns ``>= first``, each level in
    place into the view of its children's sibling pairs, copying no parent.
    Overwrites ``P``; at offset 0 the result is a view of it.  ``P`` is
    :func:`_cube_means` or :func:`_pyramid` output, or ``dyadic_maximal``'s
    rectangle means, whose bits are C-ordered ``mean()``s."""
    for pos, system in axes:
        v = np.moveaxis(P, pos, 0)
        for k in range(first.bit_length(), system.axis.level + 1):
            pairs = v[1 << k : 2 << k].reshape((1 << (k - 1), 2) + v.shape[1:])
            op(pairs, v[1 << (k - 1) : 1 << k, None], out=pairs)
        cells = v[system.axis.n_cells :]
        if system.offset_cells:
            cells = _shifted(cells, system.offset_cells, 0)
        P = np.moveaxis(cells, 0, pos)
    return P


def _level_fold(a: np.ndarray, system: DyadicSystem, pos: int, scales, op) -> np.ndarray:
    """Each cell's level-k averages of ``a`` along array axis ``pos``, times
    their scales, folded with ``op`` over every level k: heap cube means times
    ``scales`` (one per column from 1), then :func:`_chain_sum` from column 1."""
    means = _cube_means(a, system, pos)
    np.moveaxis(means, pos, -1)[..., 1:] *= scales
    return _chain_sum(means, ((pos, system),), first=1, op=op)


def level_average(
    f: GridFunction, system: DyadicSystem, level: int, axis_index=None
) -> GridFunction:
    """Conditional expectation at scale ``2**-level`` in one variable: on each
    level-``level`` cube of ``system`` the function is replaced by its
    average there.  ``level`` equal to the mesh level is the identity;
    ``level`` 0 averages over the whole circle."""
    _check_integers(level=level)
    pos = _axis_position(f, system, axis_index)
    if not 0 <= level <= system.axis.level:
        raise ResolutionError(
            f"level {level} outside [0, {system.axis.level}]"
        )
    (avg,) = _spread(f.values, system, pos, range(level, level + 1))
    return f.with_values(avg)


def level_difference(
    f: GridFunction, system: DyadicSystem, level: int, axis_index=None
) -> GridFunction:
    """Martingale difference between consecutive averaging scales in one
    variable: ``level_average(level + 1) - level_average(level)``.  Summing
    over all levels telescopes to ``f`` minus its axis mean."""
    _check_integers(level=level)
    pos = _axis_position(f, system, axis_index)
    if not 0 <= level < system.axis.level:
        raise ResolutionError(
            f"difference level {level} outside [0, {system.axis.level})"
        )
    coarse, fine = _spread(f.values, system, pos, range(level, level + 2))
    return f.with_values(fine - coarse)


def average_project(f: GridFunction, cube: DyadicCube, axis_index=None) -> GridFunction:
    """Average of ``f`` over ``cube`` in the stated variable, carried on the
    cube's indicator and zero outside it."""
    pos = _axis_position(f, cube.system, axis_index)
    cells = cube.cells()
    v = np.moveaxis(f.values, pos, 0)
    out = np.zeros_like(v)
    out[cells] = v[cells].mean(axis=0)
    return f.with_values(np.moveaxis(out, 0, pos))


def martingale_block(
    f: GridFunction, K: DyadicCube, i: int, axis_index=None
) -> GridFunction:
    """Sum of one-variable martingale differences over the depth-``i``
    descendants of ``K``: the consecutive-scale difference at level
    ``K.level + i`` restricted to ``K``.  ``i = 0`` is the plain martingale
    difference of ``K`` itself."""
    _check_integers(i=i)
    if i < 0:
        raise ParameterError(f"block depth must be non-negative, got {i}")
    pos = _axis_position(f, K.system, axis_index)
    axis = K.system.axis
    if K.level + i >= axis.level:
        raise ResolutionError(
            f"block at level {K.level} + depth {i} has no children at mesh level {axis.level}"
        )
    diff = level_difference(f, K.system, K.level + i, axis_index)
    v = np.moveaxis(diff.values, pos, 0)
    out = np.zeros_like(v)
    cells = K.cells()
    out[cells] = v[cells]
    return f.with_values(np.moveaxis(out, 0, pos))


def rect_block(
    f: GridFunction, K: DyadicCube, V: DyadicCube, i: int, j: int
) -> GridFunction:
    """Bi-parameter rectangle block: the depth-``i`` block below ``K`` in the
    first variable composed with the depth-``j`` block below ``V`` in the
    second.  With ``i = j = 0`` this is the rectangle martingale difference."""
    _check_integers(i=i, j=j)
    _placed(f, (K.system, V.system), 2)
    g = martingale_block(f, K, i, axis_index=1)
    return martingale_block(g, V, j, axis_index=2)


def partial_pairing(f: GridFunction, cube: DyadicCube, axis_index) -> GridFunction:
    """Pair a two-axis function with the Haar step of ``cube`` in one
    variable, leaving a one-axis function of the other variable."""
    pos = _axis_position(f, cube.system, axis_index, ndim=2)
    hv = haar_function(cube).values
    other = 1 - pos
    if pos == 0:
        vals = f.axes[0].h * hv @ f.values
    else:
        vals = f.axes[1].h * f.values @ hv
    return grid_function(vals, f.axes[other])


# -- coefficient expansion ------------------------------------------------


@dataclass(frozen=True, eq=False)
class HaarCoefficientMap:
    """Complete orthonormal expansion of a grid function.

    ``coeffs`` is indexed by :func:`basis_column` along each axis: entry 0
    is the coefficient against the normalized constant, and the entry of a
    cube (of a ``(cube1, cube2)`` rectangle for two axes) is its Haar
    coefficient.  For two axes, row 0 and column 0 carry the mixed terms
    (constant in one variable, Haar step in the other).
    """

    systems: Tuple[DyadicSystem, ...]
    coeffs: np.ndarray

    @property
    def mean(self) -> float:
        """The coefficient against the normalized constant."""
        return float(self.coeffs[(0,) * self.coeffs.ndim])

    def reconstruct(self) -> GridFunction:
        """Resum the expansion; exact up to roundoff."""
        vals = self.coeffs
        for pos, system in enumerate(self.systems):
            vals = haar_synthesize(vals, system, pos)
        return grid_function(vals, *(system.axis for system in self.systems))

    def energy(self) -> float:
        """Total squared coefficient mass (equals the squared L2 norm)."""
        return float(np.sum(self.coeffs**2))


def haar_expand(
    f: GridFunction,
    system1: DyadicSystem,
    system2: Optional[DyadicSystem] = None,
) -> HaarCoefficientMap:
    """Expand ``f`` over the Haar bases of the given system(s), constant
    directions included."""
    systems = system1 if system2 is None else (system1, system2)
    placed = _placed(f, systems, 1 if system2 is None else 2)
    coeffs = f.values
    for pos, system in placed:
        coeffs = haar_analyze(coeffs, system, pos)
    coeffs.setflags(write=False)
    return HaarCoefficientMap(tuple(system for _, system in placed), coeffs)
