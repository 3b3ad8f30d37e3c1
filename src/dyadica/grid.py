"""Discretized torus factors and cell-average function representation.

The computational domain is the unit circle (circumference 1) per factor,
meshed into ``2**L`` equal cells.  Functions are stored as their cell
averages, one table entry per cell (or per cell pair for two factors), so
every operator in the package acts exactly on a finite-dimensional space.

Distances use the wrap-around metric ``d(x, y) = min_k |x - y + k|``.  The
double integral of the power kernel ``d(x, y)**(-lam)`` over any cell pair
has an elementary closed form, a second difference of the kernel's second
antiderivative: :func:`kernel_profile` evaluates it once per cell distance,
and :func:`kernel_cell_integral` reads one pair from it.  The singular
diagonal is never touched by quadrature.  Arc sums, for the weights and
the strong maximal function alike, are carried in one place, ``_arc_folds``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigurationError, ParameterError, ShapeError

__all__ = [
    "Axis",
    "GridFunction",
    "build_axis",
    "constant_function",
    "grid_function",
    "inner_product",
    "kernel_cell_integral",
    "l2_norm",
    "tabulate_midpoint",
]

MAX_LEVEL = 14


@dataclass(frozen=True)
class Axis:
    """One torus factor meshed at dyadic resolution ``2**-level``."""

    level: int

    @property
    def n_cells(self) -> int:
        return 1 << self.level

    @property
    def h(self) -> float:
        """Cell width, exactly representable as a binary float."""
        return 2.0 ** (-self.level)


def _is_integer(value) -> bool:
    """The integer-parameter predicate: a Python or numpy integer, not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_integers(**params) -> None:
    """Raise ParameterError naming the first of ``params`` that fails
    :func:`_is_integer`."""
    for name, value in params.items():
        if not _is_integer(value):
            raise ParameterError(f"{name} must be an integer, got {value!r}")


def build_axis(level: int) -> Axis:
    """Create an :class:`Axis` with ``2**level`` cells.

    Parameters
    ----------
    level : int
        Finest dyadic level, ``1 <= level <= 14``.

    Raises
    ------
    ConfigurationError
        If the level is not an integer in range.
    """
    if not _is_integer(level):
        raise ConfigurationError(f"axis level must be an integer, got {level!r}")
    if not 1 <= level <= MAX_LEVEL:
        raise ConfigurationError(
            f"axis level must be in [1, {MAX_LEVEL}], got {level}"
        )
    return Axis(int(level))


@dataclass(frozen=True, eq=False)
class GridFunction:
    """A real function stored as cell averages over one or two axes.

    ``values`` has shape ``(n1,)`` for one axis or ``(n1, n2)`` for two,
    where ``n_i`` is the cell count of ``axes[i]``.  Instances are
    immutable; arithmetic returns new objects.
    """

    axes: tuple[Axis, ...]
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        expected = tuple(ax.n_cells for ax in self.axes)
        if vals.shape != expected:
            raise ShapeError(
                f"values shape {vals.shape} does not match axes {expected}"
            )
        if not np.all(np.isfinite(vals)):
            raise ShapeError("values must all be finite")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "axes", tuple(self.axes))

    # -- plumbing ---------------------------------------------------------

    @property
    def ndim(self) -> int:
        return len(self.axes)

    @property
    def cell_volume(self) -> float:
        vol = 1.0
        for ax in self.axes:
            vol *= ax.h
        return vol

    def with_values(self, values: np.ndarray) -> "GridFunction":
        return GridFunction(self.axes, values)

    def _check_same_axes(self, other: "GridFunction") -> None:
        if self.axes != other.axes:
            raise ShapeError(f"axes mismatch: {self.axes} vs {other.axes}")

    def __add__(self, other):
        if isinstance(other, GridFunction):
            self._check_same_axes(other)
            return self.with_values(self.values + other.values)
        return self.with_values(self.values + float(other))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, GridFunction):
            self._check_same_axes(other)
            return self.with_values(self.values - other.values)
        return self.with_values(self.values - float(other))

    def __mul__(self, other):
        if isinstance(other, GridFunction):
            self._check_same_axes(other)
            return self.with_values(self.values * other.values)
        return self.with_values(self.values * float(other))

    __rmul__ = __mul__

    def __neg__(self):
        return self.with_values(-self.values)

    def mean(self) -> float:
        """Integral over the torus (equals the plain average of the table)."""
        return float(np.mean(self.values))


def grid_function(values, *axes: Axis) -> GridFunction:
    """Wrap a cell-average table into a :class:`GridFunction`."""
    return GridFunction(tuple(axes), np.asarray(values, dtype=float))


def constant_function(value: float, *axes: Axis) -> GridFunction:
    shape = tuple(ax.n_cells for ax in axes)
    return GridFunction(tuple(axes), np.full(shape, float(value)))


def _shifted(m: np.ndarray, s: int, axis: int) -> np.ndarray:
    """``out[x] = m[x - s]`` along ``axis`` with wrap-around: ``np.roll``
    without its overhead."""
    s %= m.shape[axis]
    lead = (slice(None),) * axis
    return np.concatenate((m[lead + (slice(-s, None),)], m[lead + (slice(-s),)]), axis)


def _arc_folds(F: np.ndarray, op):
    """Yields ``F``, overwritten, per width w from 1: ``F[..., s]`` is then
    ``op`` folded over cells s .. s + w - 1 of the last axis, wrapping, one
    cell at a time in order.  Read each width before the next."""
    n = F.shape[-1]
    twice = np.concatenate((F, F), -1)  # twice[..., j] = F[..., j % n] at w = 1
    for w in range(1, n + 1):
        if w > 1:
            op(F, twice[..., w - 1 : w - 1 + n], out=F)
        yield F


def midpoints(axis: Axis) -> np.ndarray:
    """Cell midpoints of an axis."""
    return (np.arange(axis.n_cells) + 0.5) * axis.h


def tabulate_midpoint(fn, *axes: Axis) -> GridFunction:
    """Sample ``fn`` at cell midpoints (midpoint-rule cell averages).

    Exact for functions that are affine on every cell; for smooth profiles
    the error is O(h^2), good enough for the stability ensembles.
    """
    if len(axes) == 1:
        vals = np.asarray([fn(x) for x in midpoints(axes[0])], dtype=float)
    elif len(axes) == 2:
        x1 = midpoints(axes[0])
        x2 = midpoints(axes[1])
        vals = np.asarray(
            [[fn(a, b) for b in x2] for a in x1], dtype=float
        )
    else:
        raise ShapeError("tabulate_midpoint supports one or two axes")
    return GridFunction(tuple(axes), vals)


def inner_product(f: GridFunction, g: GridFunction) -> float:
    """Exact pairing ``sum_cells f * g * cell_volume``.

    Bilinear and symmetric; equals the L2 pairing of the represented
    piecewise-constant functions.

    Raises
    ------
    ShapeError
        If ``f`` and ``g`` do not share identical axes.
    """
    f._check_same_axes(g)
    return float(np.sum(f.values * g.values)) * f.cell_volume


def l2_norm(f: GridFunction) -> float:
    return float(np.sqrt(max(inner_product(f, f), 0.0)))


# -- power-kernel cell integrals -----------------------------------------
#
# For two cells A, B of width h at (wrapped) center offset delta, the double
# integral of d(x - y)**(-lam) over A x B equals
#
#     Phi(|delta + h|) - 2 Phi(|delta|) + Phi(|delta - h|),
#
# where Phi is the even second antiderivative of the periodic kernel:
# Phi'' (t) = d(t)**(-lam), Phi(0) = Phi'(0) = 0.  On [0, 1/2] the kernel is
# t**(-lam), giving Phi = F below; on [1/2, 1] it is (1-t)**(-lam) and Phi
# continues C^1 across t = 1/2.  All arguments stay in [0, 1] because
# |delta| <= 1/2 and h <= 1/2.


def _check_lambda(lam: float) -> float:
    lam = float(lam)
    if not 0.0 < lam < 1.0:
        raise ParameterError(f"lambda must lie in (0, 1), got {lam}")
    return lam


def _antider_line(u, lam):
    """F(u) = u**(2-lam) / ((1-lam)(2-lam)), second antiderivative of u**-lam."""
    return u ** (2.0 - lam) / ((1.0 - lam) * (2.0 - lam))


def _antider_torus(u, lam):
    """Second antiderivative of the wrapped kernel, valid for u in [0, 1]."""
    u = np.asarray(u, dtype=float)
    c1 = 1.0 - lam
    half = 0.5
    # branch u <= 1/2: plain power law
    lo = _antider_line(np.minimum(u, half), lam)
    # branch u > 1/2: kernel is (1-t)**(-lam)
    v = np.maximum(u, half)
    hi = (
        2.0 * half ** c1 * (v - half)
        - (half ** (2.0 - lam) - (1.0 - v) ** (2.0 - lam)) / (2.0 - lam)
    ) / c1
    out = lo + np.where(u > half, hi, 0.0)
    return out


def kernel_cell_integral(axis: Axis, cell_a: int, cell_b: int, lam: float) -> float:
    """Exact double integral of the wrapped kernel over a cell pair.

    Parameters
    ----------
    axis : Axis
    cell_a, cell_b : int
        Cell indices on ``axis``.
    lam : float
        Kernel power, ``0 < lam < 1``.

    Returns
    -------
    float
        ``iint_{A x B} d(x, y)**(-lam) dx dy``, strictly positive and
        symmetric in the two cells.
    """
    _check_integers(cell_a=cell_a, cell_b=cell_b)
    n = axis.n_cells
    a = int(cell_a)
    b = int(cell_b)
    if not (0 <= a < n and 0 <= b < n):
        raise ParameterError(f"cell indices must lie in [0, {n}), got {a}, {b}")
    return float(kernel_profile(axis, float(lam))[(a - b) % n])  # checks lam


@lru_cache(maxsize=64)
def kernel_profile(axis: Axis, lam: float) -> np.ndarray:
    """Circulant profile ``g[m]``, the kernel's integral over cells m and 0;
    :func:`kernel_cell_integral` reads every cell pair's value here.

    Even by construction: ``g[m]`` is evaluated at the wrapped cell distance
    ``min(m, n - m)``, so ``g[m] == g[n - m]`` bit for bit and
    :func:`kernel_matrix` is exactly symmetric."""
    lam = _check_lambda(lam)
    n = axis.n_cells
    h = axis.h
    m = np.arange(n)
    delta = np.minimum(m, n - m) * h
    # the three-term formula above
    g = (
        _antider_torus(abs(delta + h), lam)
        - 2.0 * _antider_torus(abs(delta), lam)
        + _antider_torus(abs(delta - h), lam)
    )
    g.setflags(write=False)
    return g


@lru_cache(maxsize=16)
def kernel_matrix(axis: Axis, lam: float) -> np.ndarray:
    """Full cell-interaction matrix ``G[a, b] = g[(a - b) mod n]``, the
    dense reference of the smoothing operator.  No library path reads it:
    the operator and the Haar-basis kernel of
    :func:`dyadica.fracops.verify_representation` both go through the
    profile's circular convolution, and tests compare them against ``G``.

    Dense and cached: ``8 * 4**L`` bytes, 128 MiB at ``L = 12`` and 2 GiB
    at ``MAX_LEVEL``.  Row ``a`` is ``g[a], g[a-1], ..., g[a-n+1]`` (mod n), a
    reversed window of the doubled profile: no n-by-n index array is built.
    """
    g = kernel_profile(axis, lam)
    n = axis.n_cells
    windows = sliding_window_view(np.concatenate((g, g))[1:], n)
    mat = np.ascontiguousarray(windows[:, ::-1])
    mat.setflags(write=False)
    return mat
