"""Shifted dyadic lattices on the torus: cubes, goodness, joins, majorants.

A system is the standard dyadic partition chain translated by an offset that
is a whole number of finest cells.  Averaging over all ``2**L`` offsets
realizes the random-lattice expectation exactly on the cell-average function
space, since finer shifts are indistinguishable there.

A cube is *bad* when the boundary of some much larger cube of the same
system passes too close::

    exists J:  side(J) >= 2**r * side(I)  and
               dist(I, boundary(J)) <= side(J) * (side(I)/side(J))**gamma

and *good* otherwise.  Cubes too coarse for any qualifying J are good (the
condition is an existential over an empty range).  On the torus the level-0
interval still contributes its seam point as a boundary.

All distances are computed in integer cell units, and the power-law
threshold comparison is done in exact integer arithmetic whenever ``gamma``
is (within 1e-12) a small rational, so boundary ties are classified
deterministically.

Each rule has one home, for one cube or an index array alike: goodness is
``_bad``, the bit length of an index ``_bit_length``, the level of a join
``_join_level``, the gap between arcs ``_arc_gap_cells`` and the power-law
threshold ``_within_threshold``.  The axis contract of every entry point
that takes systems, system k on axis k of the function, is ``_placed``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from numbers import Real

import numpy as np

from .errors import (
    ContractError,
    LevelUnderflowError,
    ParameterError,
    ShapeError,
    SystemMismatchError,
)
from .grid import MAX_LEVEL, Axis, GridFunction, _check_integers, _is_integer

__all__ = [
    "DyadicCube",
    "DyadicSystem",
    "GoodParams",
    "bad_mask",
    "default_gamma",
    "enumerate_systems",
    "is_good",
    "join",
    "majorant_check",
    "sample_system",
]


@dataclass(frozen=True)
class DyadicSystem:
    """A shifted dyadic lattice on an axis; ``offset_cells`` finest cells."""

    axis: Axis
    offset_cells: int

    def __post_init__(self):
        off = self.offset_cells
        if not _is_integer(off):
            raise ParameterError(f"offset_cells must be an integer, got {off!r}")
        if not 0 <= off < self.axis.n_cells:
            raise ParameterError(
                f"offset_cells must lie in [0, {self.axis.n_cells}), "
                f"got {off}"
            )

    def cube(self, level: int, index: int) -> "DyadicCube":
        return DyadicCube(self, level, index)

    def cubes_at_level(self, level: int):
        _check_integers(level=level)
        return [DyadicCube(self, level, m) for m in range(1 << level)]


def _placed(f: GridFunction, systems, ndim, picks=None, grids=()):
    """The axis contract, its one home: system k lives on axis k of ``f``.

    ``systems`` is a DyadicSystem or a pair of them, else ParameterError.
    ``picks`` holds the (array axis, index into ``systems``) of each system
    that acts, by default system k on axis k for every axis of an
    ``ndim``-axis function (1 or 2) and every system; a pick of a missing
    second system is a ParameterError.  ``f`` must have ``ndim`` axes
    (``None``: any that hold the picks), and each axes tuple in ``grids``
    (another factor's, a weight's) must be ``f.axes``, else ShapeError.  A
    picked system off the function's axis at its position is a
    SystemMismatchError.  Returns the (array axis, system) of each pick.
    """
    if isinstance(systems, DyadicSystem):
        systems = (systems,)
    else:
        systems = tuple(systems) if np.iterable(systems) else ()
        if len(systems) != 2 or not all(isinstance(s, DyadicSystem) for s in systems):
            raise ParameterError("systems must be a DyadicSystem or a pair of them")
    if picks is None:
        picks = ((0, 0), (1, 1))[: max(ndim, len(systems))]
    placed = []
    for pos, k in picks:
        if k >= len(systems):
            raise ParameterError("a pair of dyadic systems is needed")
        placed.append((pos, systems[k]))
    axes = f.axes
    if ndim is not None and len(axes) != ndim:
        raise ShapeError(f"a {ndim}-axis function is needed, got {len(axes)} axes")
    if any(pos >= len(axes) for pos, _ in picks):
        raise ShapeError(f"a {len(axes)}-axis function has no axis {max(picks)[0] + 1}")
    if any(other != axes for other in grids):
        raise ShapeError("operands live on different grids")
    for pos, system in placed:
        if system.axis != axes[pos]:
            raise SystemMismatchError(
                f"system axis {system.axis} is not the function's axis {pos + 1}, {axes[pos]}"
            )
    return tuple(placed)


@dataclass(frozen=True)
class DyadicCube:
    """The interval ``[offset + index * 2**-level, ... + 2**-level) mod 1``."""

    system: DyadicSystem
    level: int
    index: int

    def __post_init__(self):
        for name, value in (("level", self.level), ("index", self.index)):
            if not _is_integer(value):
                raise ParameterError(f"cube {name} must be an integer, got {value!r}")
        if not 0 <= self.level <= self.system.axis.level:
            raise ParameterError(
                f"cube level must lie in [0, {self.system.axis.level}], "
                f"got {self.level}"
            )
        if not 0 <= self.index < (1 << self.level):
            raise ParameterError(
                f"cube index must lie in [0, 2**{self.level}), got {self.index}"
            )

    @property
    def axis(self) -> Axis:
        return self.system.axis

    @property
    def side(self) -> float:
        return 2.0 ** (-self.level)

    @property
    def width_cells(self) -> int:
        return self.axis.n_cells >> self.level

    @property
    def start_cell(self) -> int:
        n = self.axis.n_cells
        return (self.system.offset_cells + self.index * self.width_cells) % n

    def cells(self) -> np.ndarray:
        """Indices of the finest cells the cube covers (wrap-aware)."""
        n = self.axis.n_cells
        return (self.start_cell + np.arange(self.width_cells)) % n


@dataclass(frozen=True)
class GoodParams:
    r: int = 3
    gamma: float = 0.25

    def __post_init__(self):
        r = self.r
        if not _is_integer(r) or r < 1:
            raise ParameterError(f"r must be a positive integer, got {r!r}")
        g = self.gamma
        if isinstance(g, bool) or not isinstance(g, Real) or not 0.0 < g < 0.5:
            raise ParameterError(f"gamma must be a real number in (0, 1/2), got {g!r}")


def default_gamma(lam: float) -> float:
    """The useful choice gamma = 1 / (2 (lambda + 1))."""
    return 1.0 / (2.0 * (lam + 1.0))


# ---------------------------------------------------------------------------
# construction


def sample_system(axis: Axis, seed: int) -> DyadicSystem:
    """Draw a system offset uniformly from the ``2**L`` cell multiples."""
    _check_integers(seed=seed)
    rng = np.random.default_rng(seed)
    return DyadicSystem(axis, int(rng.integers(0, axis.n_cells)))


def enumerate_systems(axis: Axis) -> list[DyadicSystem]:
    """All distinct systems of the axis, one per offset."""
    return [DyadicSystem(axis, o) for o in range(axis.n_cells)]


# ---------------------------------------------------------------------------
# navigation


def ancestor(cube: DyadicCube, i: int) -> DyadicCube:
    """The unique cube ``i`` levels above; ``ancestor(c, 0) == c``."""
    _check_integers(i=i)
    if i < 0:
        raise ParameterError(f"ancestor depth must be >= 0, got {i}")
    if i > cube.level:
        raise LevelUnderflowError(
            f"no ancestor {i} levels above a level-{cube.level} cube"
        )
    return DyadicCube(cube.system, cube.level - i, cube.index >> i)


def contains(outer: DyadicCube, inner: DyadicCube) -> bool:
    """Whether ``inner`` is a (weak) descendant of ``outer``."""
    if outer.system != inner.system:
        raise SystemMismatchError("containment requires a shared system")
    return bool(outer.level == _join_level(outer.level, outer.index, inner.level, inner.index))


def join(I: DyadicCube, J: DyadicCube) -> DyadicCube:
    """Smallest cube of the shared system containing both inputs.

    Always exists on the torus (the level-0 cube in the worst case).
    """
    if I.system != J.system:
        raise SystemMismatchError("join requires cubes from one system")
    k = int(_join_level(I.level, I.index, J.level, J.index))
    return DyadicCube(I.system, k, I.index >> (I.level - k))


def _bit_length(x) -> np.ndarray:
    """Bit length of each integer 0 <= x < 2**53 (frexp's exponent)."""
    return np.frexp(np.asarray(x, dtype=float))[1]


@lru_cache(maxsize=MAX_LEVEL + 1)
def _join_table(lo: int) -> np.ndarray:
    """``lo`` minus the bit length of each x < 2**lo."""
    return lo - _bit_length(np.arange(1 << lo))


def _join_level(level_a: int, a, level_b: int, b):
    """Level of the smallest cube holding the level-``level_a`` cube ``a``
    and the level-``level_b`` cube ``b`` of one lattice (indices are ints
    or broadcasting integer arrays), read from :func:`_join_table`."""
    lo = min(level_a, level_b)
    return _join_table(lo)[(a >> (level_a - lo)) ^ (b >> (level_b - lo))]


# ---------------------------------------------------------------------------
# distances (integer cell units; exact)


def _arc_gap_cells(n: int, s1, w1, s2, w2):
    """Torus distance in cells between two arcs (starts and widths are ints
    or broadcasting integer arrays); 0 when they intersect."""
    apart = ((s2 - s1) % n >= w1) & ((s1 - s2) % n >= w2)
    return np.where(apart, np.minimum((s2 - (s1 + w1)) % n, (s1 - (s2 + w2)) % n), 0)


def cube_distance_cells(I: DyadicCube, J: DyadicCube) -> int:
    if I.axis != J.axis:
        raise SystemMismatchError("distance requires cubes on one axis")
    return int(
        _arc_gap_cells(I.axis.n_cells, I.start_cell, I.width_cells, J.start_cell, J.width_cells)
    )


# ---------------------------------------------------------------------------
# the power-law threshold  dist <= 2**-kj * (2**-depth)**gamma


@lru_cache(maxsize=64)
def _gamma_ratio(gamma: float):
    """``(a, b)`` with gamma = a/b (within 1e-12) and b <= 256, else
    ``None``; cached per gamma, since every level's threshold asks."""
    frac = Fraction(gamma).limit_denominator(256)
    if abs(float(frac) - gamma) < 1e-12:
        return frac.numerator, frac.denominator
    return None


@lru_cache(maxsize=4096)
def _threshold_cells(L: int, level_j: int, depth: int, gamma: float):
    """Largest integer t with  t * 2**-L <= 2**(-level_j - depth*gamma): for
    gamma = a/b the integer b-th root of 2**(b*(L - level_j) - a*depth);
    ``None`` when gamma has no small rational form."""
    ratio = _gamma_ratio(gamma)
    if ratio is None:
        return None
    a, b = ratio
    exp = b * (L - level_j) - a * depth
    bound = 1 << exp
    t = round(2.0 ** (exp / b))  # a float guess, corrected exactly below
    while t**b > bound:
        t -= 1
    while (t + 1) ** b <= bound:
        t += 1
    return t


def _within_threshold(dist_cells, L: int, level_j: int, depth: int, gamma: float):
    """Test of  dist_cells * 2**-L  <=  2**(-level_j - depth*gamma)  for one
    integer distance or an array; exact whenever gamma is a small rational."""
    t = _threshold_cells(L, level_j, depth, gamma)
    if t is None:
        return dist_cells * 2.0 ** (-L) <= 2.0 ** (-level_j - depth * gamma)
    return dist_cells <= t


# ---------------------------------------------------------------------------
# goodness


def _bad(axis: Axis, level: int, index, params: GoodParams):
    """Badness of the level-``level`` cubes at ``index`` (an int or an
    integer array) of any system of ``axis``.

    For each larger-cube level ``kJ`` the union of boundaries is the coarse
    sub-lattice of spacing ``2**(L - kJ)`` cells (in offset-relative
    coordinates), so the scan works on lattice distances directly.
    """
    n = axis.n_cells
    s = index * (n >> level)  # offset-relative start, in cells
    e = s + (n >> level)      # offset-relative end
    bad = np.zeros(np.shape(index), dtype=bool)
    for kj in range(0, level - params.r + 1):
        spacing = n >> kj
        smod = s % spacing
        emod = e % spacing
        touches = (smod == 0) | (emod == 0) | ((e // spacing) > (s // spacing))
        dist = np.where(touches, 0, np.minimum(smod, spacing - emod))
        bad |= _within_threshold(dist, axis.level, kj, level - kj, params.gamma)
    return bad


def bad_mask(system: DyadicSystem, level: int, params: GoodParams) -> np.ndarray:
    """Boolean badness flags for every index at one level (vectorized)."""
    _check_integers(level=level)
    return _bad(system.axis, level, np.arange(1 << level), params)


def is_good(cube: DyadicCube, params: GoodParams) -> bool:
    """Exact goodness of a single cube (see the module docstring)."""
    return not _bad(cube.axis, cube.level, cube.index, params)


# ---------------------------------------------------------------------------
# majorant check


@dataclass(frozen=True)
class MajorantReport:
    case: str            # "near" or "far"
    K: DyadicCube
    holds: bool
    lhs: float
    rhs: float


def majorant_check(I: DyadicCube, J: DyadicCube, params: GoodParams,
                   lam: float) -> MajorantReport:
    """Check the common-majorant bound for a good/disjoint cube pair.

    Requires ``I`` good, ``I`` and ``J`` disjoint, and ``side(I) <=
    side(J)``.  With ``K = join(I, J)`` and ``g = 1/(2(lam+1))``:

    * near case (``dist(I, J) <= side(J) * (side(I)/side(J))**g``): the
      bound is ``side(K) <= 2**r * side(I)``;
    * far case (otherwise): the bound is
      ``side(K) * (side(I)/side(K))**g <= 2**r * dist(I, J)``.

    Both comparisons are evaluated exactly (integer arithmetic) whenever the
    exponent is a small rational of ``lam``.
    """
    if I.system != J.system:
        raise SystemMismatchError("majorant check requires one system")
    if I.level < J.level:
        raise ContractError("requires side(I) <= side(J); swap the arguments")
    if not is_good(I, params):
        raise ContractError("majorant check requires a good smaller cube")
    if contains(J, I):  # cubes of one system are nested or disjoint
        raise ContractError("majorant check requires disjoint cubes")
    dist = cube_distance_cells(I, J)
    gamma = default_gamma(lam)
    K = join(I, J)
    L = I.axis.level
    r = params.r
    near = _within_threshold(dist, L, J.level, I.level - J.level, gamma)
    if near:
        lhs = K.side
        rhs = 2.0 ** r * I.side
        holds = I.level - K.level <= r
        return MajorantReport("near", K, holds, lhs, rhs)
    lhs = K.side * (I.side / K.side) ** gamma
    rhs = 2.0 ** r * dist * I.axis.h
    ratio = _gamma_ratio(gamma)
    if ratio is not None:
        a, b = ratio
        # 2**(-kK - (kI-kK)*a/b) <= 2**(r-L) * dist
        exp = b * (L - r - K.level) - a * (I.level - K.level)
        holds = True if exp < 0 else (1 << exp) <= int(dist) ** b
    else:
        holds = lhs <= rhs
    return MajorantReport("far", K, holds, lhs, rhs)
