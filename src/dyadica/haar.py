"""Haar functions and one-/bi-parameter martingale calculus.

Every shifted lattice carries an orthonormal basis of cell space: the
constant function together with one L2-normalized Haar step per cube that
still has children on the mesh.  This module exposes that basis (as
functions and as a change-of-basis matrix) and the full coefficient
expansion with explicit mean bookkeeping.

Martingale calculus rests on one primitive: the conditional-expectation
stack E_0 .. E_L of a function along one axis, built with one roll and one
reshape-mean per level.  Level averages and differences read one or two
levels of it; composed over the two axes it is the rectangle table
T[k1, k2], whose slices (averages) and consecutive differences (martingale
differences) every multiscale quantity reads.  Block operators restrict a
difference to one cube, or to one rectangle by composing the two factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Optional, Tuple

import numpy as np

from .dyadic import DyadicCube, DyadicSystem
from .errors import ParameterError, ResolutionError, ShapeError, SystemMismatchError
from .grid import GridFunction, grid_function

__all__ = [
    "HaarCoefficientMap",
    "average_project",
    "expectation_stack",
    "haar_expand",
    "haar_function",
    "haar_matrix",
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
    column ``2**k + m``.
    """
    return (1 << cube.level) + cube.index


@lru_cache(maxsize=64)
def haar_matrix(system: DyadicSystem) -> np.ndarray:
    """Cell-value matrix whose columns are the constant function followed by
    every Haar step of ``system``, in :func:`basis_column` order.

    Orthonormal with respect to the cell-volume weighted inner product:
    ``h * H.T @ H = identity``.
    """
    n = system.axis.n_cells
    H = np.zeros((n, n))
    H[:, 0] = 1.0
    for level in range(system.axis.level):
        width = n >> level
        half = width >> 1
        scale = 2.0 ** (level / 2.0)
        for index in range(1 << level):
            start = (system.offset_cells + index * width) % n
            cells = (start + np.arange(width)) % n
            col = (1 << level) + index
            H[cells[:half], col] = scale
            H[cells[half:], col] = -scale
    H.setflags(write=False)
    return H


# -- axis resolution ------------------------------------------------------


def _axis_position(f: GridFunction, system: DyadicSystem, axis_index) -> int:
    """Map an axis selector (1, 2, or None for a sole axis) to an array axis,
    checking that the system lives on that axis."""
    if axis_index is None:
        if len(f.axes) != 1:
            raise ShapeError("axis_index is required for a two-axis function")
        pos = 0
    elif axis_index in (1, 2):
        pos = axis_index - 1
        if pos >= len(f.axes):
            raise ShapeError(
                f"axis_index {axis_index} out of range for {len(f.axes)}-axis function"
            )
    else:
        raise ParameterError(f"axis_index must be 1, 2 or None, got {axis_index!r}")
    if f.axes[pos] != system.axis:
        raise SystemMismatchError(
            f"function axis {f.axes[pos]} does not match system axis {system.axis}"
        )
    return pos


# -- averaging and differences --------------------------------------------


def _stack(vals: np.ndarray, pos: int, offset: int, levels: range) -> np.ndarray:
    """``E_k`` along array axis ``pos`` for ``k`` in ``levels``, stacked on a
    new leading axis: one roll to put the lattice's first cube at cell 0,
    one reshape-mean per level, one roll back.  Each level is reduced as a
    lone level would be, so its bits do not depend on ``levels``."""
    v = np.roll(np.moveaxis(vals, pos, 0), -offset, axis=0)
    n = v.shape[0]
    out = np.empty((len(levels),) + v.shape)
    for i, level in enumerate(levels):
        shape = (1 << level, n >> level) + v.shape[1:]
        out[i].reshape(shape)[...] = v.reshape(shape).mean(axis=1, keepdims=True)
    return np.moveaxis(np.roll(out, offset, axis=1), 1, pos + 1)


def expectation_stack(
    f: GridFunction, system: DyadicSystem, axis_index=None
) -> np.ndarray:
    """Every conditional expectation of ``f`` in one variable: entry ``k``
    of the ``(L + 1,) + f.values.shape`` result is, bit for bit,
    ``level_average(f, system, k, axis_index).values``; consecutive
    differences along the first axis are the martingale differences."""
    pos = _axis_position(f, system, axis_index)
    return _stack(f.values, pos, system.offset_cells, range(system.axis.level + 1))


def rectangle_table(
    f: GridFunction, system1: DyadicSystem, system2: DyadicSystem
) -> np.ndarray:
    """Rectangle averages of a two-axis function at every level pair:
    ``T[k1, k2]`` is the level-``k1`` average in the first variable, then
    the level-``k2`` average in the second, bit for bit the nested
    :func:`level_average` calls; shape ``(L1 + 1, L2 + 1, n1, n2)``."""
    first = expectation_stack(f, system1, 1)
    _axis_position(f, system2, 2)
    both = _stack(first, 2, system2.offset_cells, range(system2.axis.level + 1))
    return np.ascontiguousarray(both.swapaxes(0, 1))


def level_average(
    f: GridFunction, system: DyadicSystem, level: int, axis_index=None
) -> GridFunction:
    """Conditional expectation at scale ``2**-level`` in one variable: on each
    level-``level`` cube of ``system`` the function is replaced by its
    average there.  ``level`` equal to the mesh level is the identity;
    ``level`` 0 averages over the whole circle."""
    pos = _axis_position(f, system, axis_index)
    if not 0 <= level <= system.axis.level:
        raise ResolutionError(
            f"level {level} outside [0, {system.axis.level}]"
        )
    (avg,) = _stack(f.values, pos, system.offset_cells, range(level, level + 1))
    return f.with_values(avg)


def level_difference(
    f: GridFunction, system: DyadicSystem, level: int, axis_index=None
) -> GridFunction:
    """Martingale difference between consecutive averaging scales in one
    variable: ``level_average(level + 1) - level_average(level)``.  Summing
    over all levels telescopes to ``f`` minus its axis mean."""
    pos = _axis_position(f, system, axis_index)
    if not 0 <= level < system.axis.level:
        raise ResolutionError(
            f"difference level {level} outside [0, {system.axis.level})"
        )
    coarse, fine = _stack(f.values, pos, system.offset_cells, range(level, level + 2))
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
    if len(f.axes) != 2:
        raise ShapeError("rect_block needs a two-axis function")
    g = martingale_block(f, K, i, axis_index=1)
    return martingale_block(g, V, j, axis_index=2)


def partial_pairing(f: GridFunction, cube: DyadicCube, axis_index) -> GridFunction:
    """Pair a two-axis function with the Haar step of ``cube`` in one
    variable, leaving a one-axis function of the other variable."""
    if len(f.axes) != 2:
        raise ShapeError("partial_pairing needs a two-axis function")
    pos = _axis_position(f, cube.system, axis_index)
    hv = haar_function(cube).values
    other = 1 - pos
    if pos == 0:
        vals = f.axes[0].h * hv @ f.values
    else:
        vals = f.axes[1].h * f.values @ hv
    return grid_function(vals, f.axes[other])


# -- coefficient expansion ------------------------------------------------


@dataclass(frozen=True)
class HaarCoefficientMap:
    """Complete orthonormal expansion of a grid function.

    ``entries`` holds the pure Haar coefficients, keyed by cube in the
    one-axis case and by ``(cube1, cube2)`` rectangle in the two-axis case.
    ``mean`` is the coefficient against the normalized constant; for
    two-axis functions ``axis_mean_entries`` carries the mixed terms
    (constant in one variable, Haar step in the other), keyed by the cube of
    the non-averaged variable.
    """

    systems: Tuple[DyadicSystem, ...]
    entries: Mapping
    mean: float
    axis_mean_entries: Tuple[Mapping, ...] = ()

    def _coeff_table(self) -> np.ndarray:
        if len(self.systems) == 1:
            n = self.systems[0].axis.n_cells
            c = np.zeros(n)
            c[0] = self.mean
            for cube, val in self.entries.items():
                c[basis_column(cube)] = val
            return c
        n1 = self.systems[0].axis.n_cells
        n2 = self.systems[1].axis.n_cells
        c = np.zeros((n1, n2))
        c[0, 0] = self.mean
        mean1, mean2 = self.axis_mean_entries
        for cube, val in mean1.items():
            c[0, basis_column(cube)] = val
        for cube, val in mean2.items():
            c[basis_column(cube), 0] = val
        for (cube1, cube2), val in self.entries.items():
            c[basis_column(cube1), basis_column(cube2)] = val
        return c

    def reconstruct(self) -> GridFunction:
        """Resum the expansion; exact up to roundoff."""
        c = self._coeff_table()
        if len(self.systems) == 1:
            vals = haar_matrix(self.systems[0]) @ c
            return grid_function(vals, self.systems[0].axis)
        H1 = haar_matrix(self.systems[0])
        H2 = haar_matrix(self.systems[1])
        return grid_function(H1 @ c @ H2.T, self.systems[0].axis, self.systems[1].axis)

    def energy(self) -> float:
        """Total squared coefficient mass (equals the squared L2 norm)."""
        return float(np.sum(self._coeff_table() ** 2))


def haar_expand(
    f: GridFunction,
    system1: DyadicSystem,
    system2: Optional[DyadicSystem] = None,
) -> HaarCoefficientMap:
    """Expand ``f`` over the Haar bases of the given system(s), with the
    constant directions tracked as explicit mean entries."""
    if system2 is None:
        if len(f.axes) != 1:
            raise ShapeError("two-axis function needs a system per axis")
        if f.axes[0] != system1.axis:
            raise SystemMismatchError("function axis does not match the system")
        c = f.axes[0].h * (haar_matrix(system1).T @ f.values)
        entries = {}
        for level in range(f.axes[0].level):
            for index in range(1 << level):
                entries[system1.cube(level, index)] = float(c[(1 << level) + index])
        return HaarCoefficientMap((system1,), entries, float(c[0]))

    if len(f.axes) != 2:
        raise ShapeError("one-axis function takes a single system")
    if f.axes[0] != system1.axis or f.axes[1] != system2.axis:
        raise SystemMismatchError("function axes do not match the systems")
    vol = f.axes[0].h * f.axes[1].h
    C = vol * (haar_matrix(system1).T @ f.values @ haar_matrix(system2))
    entries = {}
    mean1 = {}
    mean2 = {}
    cubes1 = [
        system1.cube(k, m) for k in range(f.axes[0].level) for m in range(1 << k)
    ]
    cubes2 = [
        system2.cube(k, m) for k in range(f.axes[1].level) for m in range(1 << k)
    ]
    for cube2 in cubes2:
        mean1[cube2] = float(C[0, basis_column(cube2)])
    for cube1 in cubes1:
        mean2[cube1] = float(C[basis_column(cube1), 0])
    for cube1 in cubes1:
        row = basis_column(cube1)
        for cube2 in cubes2:
            entries[(cube1, cube2)] = float(C[row, basis_column(cube2)])
    return HaarCoefficientMap(
        (system1, system2), entries, float(C[0, 0]), (mean1, mean2)
    )
