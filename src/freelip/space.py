"""Finite pointed metric spaces: validation and elementary geometry.

Distances live in one of two number modes. An exact space holds its
distances as integers over one common denominator, so betweenness and
alignment are literal equality tests on integers. Its public ``dist``, a
matrix of fractions.Fraction, is built by :func:`validate` from the
caller's entries, or, for a space that :mod:`freelip.formats` read as
integers, from those integers when it is first read. Float mode keeps
binary floats and compares through a relative tolerance (default 1e-9 of
the largest distance). Euclidean point clouds with rational coordinates
additionally carry their coordinates, and alignment questions on them
are decided exactly, independent of the tolerance. A certified float
filter settles the clear cases: a third point whose float excess, on
distances recomputed from the integer coordinates, lies above the
rounding bound :data:`_ROUNDING_BOUND` times the sum of the three
distances is not between the pair. The rest go to an exact collinearity
test on the integers. The same bound lets :func:`from_points` skip the
cubic triangle check of an l2 cloud, whose triangle inequality is a
theorem. Coordinates have one reader, and the filter reads the squared
distances that :func:`from_points` computed.

The quantities computed here are the raw material for the classification
layer: the excess d(r,p) + d(r,q) - d(p,q) of a point over a pair, metric
segments, aligned triples, the concavity modulus (minimum excess away
from both endpoints), and the snowflake transform d -> d^alpha.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain, combinations
from numbers import Real
from typing import Iterable, Mapping, NamedTuple, Sequence, Union

Num = Union[Fraction, float]

EXACT = "exact"
FLOAT = "float"
_NORMS = ("l2", "l1", "linf")

DEFAULT_REL_TOL = 1e-9

# K * u with K = 2**5 and u = 2**-53, the unit roundoff of a double. A
# float l2 distance is the rounded square root of a rounded number, so it
# is within 1.52u of the true distance, relatively, while that number is a
# normal float. In float arithmetic on such distances, the excess of a
# point that lies between p and q (true excess 0) comes out at most 2.54u
# times the sum of its three distances, and a triangle deficit (true
# deficit at most 0) at most 7.6u times the largest distance. K = 2**5
# leaves a factor of four over both; CHANGES gives the derivation.
_ROUNDING_BOUND = 2.0**-48


class SpaceError(Exception):
    """Base class for metric-space domain errors."""


class SamePoint(SpaceError):
    pass


class UnknownLabel(SpaceError):
    pass


class BadExponent(SpaceError):
    pass


class BadGrid(SpaceError):
    pass


@dataclass(frozen=True)
class Violation:
    """One violated metric axiom, with the witnessing indices."""

    kind: str  # not_square | bad_labels | bad_base | bad_mode | bad_tolerance |
    #            bad_norm | asymmetric | negative | nonzero_diagonal |
    #            zero_distance | triangle | bad_entry
    i: int | None = None
    j: int | None = None
    k: int | None = None
    deficit: Num | None = None

    def describe(self) -> str:
        parts = [self.kind]
        idx = [v for v in (self.i, self.j, self.k) if v is not None]
        if idx:
            parts.append("at " + ",".join(str(v) for v in idx))
        if self.deficit is not None:
            parts.append(f"deficit {self.deficit}")
        return " ".join(parts)


class ValidationError(SpaceError):
    def __init__(self, violations: Sequence[Violation]):
        self.violations = tuple(violations)
        super().__init__("; ".join(v.describe() for v in self.violations))


@dataclass(frozen=True, eq=False)
class FiniteMetricSpace:
    """A validated finite pointed metric space.

    Immutable after construction; every operation in this package is a
    pure function over it, safe for concurrent use. Build instances via
    :func:`validate` (or the loaders in :mod:`freelip.formats`), never
    directly, so the invariants are guaranteed to hold.

    An exact space holds its distances as integers over one common
    denominator (``_int_matrix``), which the kernel, the digest and the
    LP layers read. A space that :mod:`freelip.formats` read from ratio
    strings keeps only those integers in the instance ``__dict__`` and
    builds the ``dist`` field, a tuple of tuples of Fraction, the first
    time it is read. Equality, repr, ``asdict``, ``replace``, copies and
    pickles read the field as any other, so a lazy space behaves as one
    built eagerly.
    """

    labels: tuple[str, ...]
    base_index: int
    dist: tuple[tuple[Num, ...], ...]
    mode: str = EXACT
    rel_tol: float = DEFAULT_REL_TOL
    coords: tuple[tuple[Fraction, ...], ...] | None = None
    coord_norm: str | None = None  # "l2" | "linf" | "l1"
    meta: Mapping = field(default_factory=dict)

    def __getattr__(self, name):
        # reached only for a name missing from the instance dict
        state = self.__dict__
        ints = state.get("_int_matrix") if name == "dist" else None
        if ints is None:
            if name in state:  # built meanwhile by another thread
                return state[name]
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        unit, m = ints
        return state.setdefault(name, tuple(tuple(Fraction(v, unit) for v in row) for row in m))

    def __getstate__(self):
        # the l2 filter is a nested function, which does not pickle; a copy
        # builds it again on first use
        state = self.__dict__.copy()
        state.pop("_l2_between_for", None)
        return state

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def base_label(self) -> str:
        return self.labels[self.base_index]

    @cached_property
    def scale(self) -> Num:
        return max((d for row in self.dist for d in row), default=0)

    @cached_property
    def _int_matrix(self) -> tuple[int, list[list[int]]]:
        """The common denominator and the distances times it; float mode
        reads each float as the rational it is exactly. :func:`validate`
        seeds it on every exact space."""
        if self.mode == EXACT:
            return _scaled_ints(self.dist)
        return _scaled_ints([[Fraction(v) for v in row] for row in self.dist])

    @cached_property
    def _l2_squares(self) -> tuple[list[list[int]], list[list[int]]]:
        """The integer-scaled points and their squared distances; from_points seeds them."""
        _, pts = _scaled_ints(self.coords)
        return pts, _squared_distances(pts)

    @cached_property
    def _l2_between_for(self):
        """The filtered test of :func:`_l2_betweenness`, or None."""
        return _l2_betweenness(self)

    def num(self, v) -> Num:
        """v in the space's number mode: a Fraction if exact, else a float."""
        return Fraction(v) if self.mode == EXACT else float(v)

    @property
    def abs_tol(self) -> float:
        """Absolute comparison tolerance; zero in exact mode."""
        if self.mode == EXACT:
            return 0.0
        return self.rel_tol * float(self.scale)

    def index(self, point: Union[int, str]) -> int:
        if isinstance(point, int) and not isinstance(point, bool):
            if not 0 <= point < self.n:
                raise UnknownLabel(f"index {point} out of range")
            return point
        try:
            return self.labels.index(point)
        except ValueError:
            raise UnknownLabel(f"no point labeled {point!r}") from None

    def pair(self, p: Union[int, str], q: Union[int, str]) -> tuple[int, int]:
        """The indices of p and q, resolved in that order; SamePoint when
        they name one point, since the molecule u_pq needs p != q."""
        pi, qi = self.index(p), self.index(q)
        if pi == qi:
            raise SamePoint(f"a pair needs two distinct points, not {self.labels[pi]!r} twice")
        return pi, qi

    def d(self, p: Union[int, str], q: Union[int, str]) -> Num:
        return self.dist[self.index(p)][self.index(q)]

    def excess_raw(self, r: int, p: int, q: int) -> Num:
        return self.dist[r][p] + self.dist[r][q] - self.dist[p][q]

    def with_base(self, base: Union[int, str]) -> "FiniteMetricSpace":
        """Same space re-pointed at another base point. Nothing cached on
        the space depends on the base, so the copy keeps every cache, and
        a ``dist`` that is not built yet stays unbuilt."""
        base_index = self.index(base)
        space = object.__new__(type(self))
        space.__dict__.update(self.__dict__, base_index=base_index)
        return space

    # -- betweenness ---------------------------------------------------

    def is_between(self, r: Union[int, str], p: Union[int, str], q: Union[int, str]) -> bool:
        """Does r lie (weakly) between p and q, i.e. excess(r;p,q) = 0?

        Exact spaces test the excess for zero. Float spaces test it
        against :attr:`abs_tol`, except l2 point clouds, which take the
        rule of :func:`_l2_betweenness`: a float excess above the rounding
        bound :data:`_ROUNDING_BOUND` on the cloud's own distances means
        no, and every other triple is decided by exact collinearity. It is
        the rule the classifier kernel applies.
        """
        ri = self.index(r)
        pi, qi = self.pair(p, q)
        if ri == pi or ri == qi:
            return True
        e = self.excess_raw(ri, pi, qi)
        if self.mode == EXACT:
            return e == 0
        between_for = self._l2_between_for
        if between_for is None:
            return e <= self.abs_tol
        return between_for(pi, qi)(ri)


# -- construction ------------------------------------------------------


class _IntMatrix(NamedTuple):
    """An exact matrix as integers over one denominator, ``unit`` the
    least common multiple of its entries' reduced denominators: the
    ``_int_matrix`` of the space. :mod:`freelip.formats` reads ratio
    strings into one and passes it to :func:`validate` as the matrix, in
    exact mode only; the checks then run on the integers as they are,
    and the space builds ``dist`` from them when it is first read."""

    unit: int
    rows: list[list[int]]


def validate(
    matrix: Sequence[Sequence],
    labels: Sequence[str],
    base: Union[int, str] = 0,
    mode: str = EXACT,
    rel_tol: float = DEFAULT_REL_TOL,
    coords: Mapping[str, Sequence] | None = None,
    coord_norm: str | None = None,
    meta: Mapping | None = None,
) -> FiniteMetricSpace:
    """Check every metric axiom and return the validated space.

    All violations are collected and reported together in the raised
    ValidationError, each with the witnessing indices: asymmetry,
    negative entries, nonzero diagonal, zero distance between distinct
    labels, and triangle violations (with their deficit). In float mode
    a triangle deficit within the tolerance is repaired silently by
    accepting the matrix as-is. A base that is neither a label nor the
    index of a point (a bool or a float is no index) is reported as
    bad_base. A mode other than "exact" or "float" is rejected at once
    as bad_mode, a rel_tol that is not a finite number at least 0 as
    bad_tolerance, a coord_norm other than None, "l2", "l1" or "linf"
    as bad_norm, and an entry that does not convert to the mode's
    type, or converts to an infinite or NaN float, as bad_entry.
    Entries that already have the mode's type are kept as they are, and
    ``coords`` are read, and refused, as :func:`from_points` reads points.
    """
    if coord_norm is not None and coord_norm not in _NORMS:
        raise ValidationError([Violation("bad_norm")])
    labels = tuple(str(x) for x in labels)
    points = None if coords is None else _read_points(coords, labels)
    return _validated(matrix, labels, base, mode, rel_tol, points, coord_norm, meta, triangles=True)


def _validated(matrix, labels, base, mode, rel_tol, points, coord_norm, meta, *,
               triangles: bool, squares=None):
    """:func:`validate` on read labels and coordinates, its cubic triangle
    check run only if ``triangles``; :func:`from_points` turns it off where
    the rounding bound proves it finds nothing, and seeds ``squares``."""
    if mode not in (EXACT, FLOAT):
        raise ValidationError([Violation("bad_mode")])
    # a flag is no tolerance, and nan fails the comparison
    if isinstance(rel_tol, bool) or not (isinstance(rel_tol, Real) and 0 <= rel_tol < math.inf):
        raise ValidationError([Violation("bad_tolerance")])
    violations: list[Violation] = []
    n = len(labels)
    if len(set(labels)) != n or n == 0:
        violations.append(Violation("bad_labels"))
    ints = type(matrix) is _IntMatrix
    rows = matrix.rows if ints else list(matrix)
    if len(rows) != n or any(len(row) != n for row in rows):
        raise ValidationError([Violation("not_square"), *violations])

    coerce = Fraction if mode == EXACT else float
    try:
        # integers need no conversion, and dist is built from them when read
        d = None if ints else tuple(
            tuple(v if type(v) is coerce else coerce(v) for v in row) for row in rows
        )
    except (ValueError, TypeError, ZeroDivisionError, OverflowError) as exc:
        raise ValidationError([Violation("bad_entry"), *violations]) from exc
    if mode == FLOAT and not all(map(math.isfinite, chain.from_iterable(d))):
        raise ValidationError([
            *(Violation("bad_entry", i=i, j=j)
              for i, row in enumerate(d) for j, v in enumerate(row) if not math.isfinite(v)),
            *violations,
        ])

    try:
        if isinstance(base, bool):
            raise TypeError  # int(True) is 1, but a flag is no index
        # operator.index refuses 1.5 and -0.5, which int() would truncate
        base_index = labels.index(base) if isinstance(base, str) else operator.index(base)
    except (ValueError, TypeError):
        base_index = -1
    if not 0 <= base_index < n:
        violations.append(Violation("bad_base"))
        base_index = 0

    # Exact matrices are checked as integers over their common denominator.
    if mode == EXACT:
        unit, m = (matrix.unit, rows) if ints else _scaled_ints(d)
        tol = 0
    else:
        unit, m = None, d
        tol = rel_tol * float(max((abs(v) for row in d for v in row), default=0))

    for i in range(n):
        if m[i][i] != 0:
            violations.append(Violation("nonzero_diagonal", i=i))
    for i in range(n):
        for j in range(i + 1, n):
            if m[i][j] != m[j][i]:
                violations.append(Violation("asymmetric", i=i, j=j))
            if m[i][j] < 0:
                violations.append(Violation("negative", i=i, j=j))
            elif m[i][j] <= tol:
                violations.append(Violation("zero_distance", i=i, j=j))
    if triangles:
        cols = list(zip(*m))
        for i in range(n):
            row = m[i]
            for j in range(i + 1, n):
                dij, col = row[j], cols[j]
                if unit is not None and dij <= min(map(operator.add, row, col)):
                    continue  # integers: no k breaks it, k = i and k = j included
                for k in range(n):
                    if k == i or k == j:
                        continue
                    deficit = dij - row[k] - col[k]
                    if deficit > tol:
                        if unit is not None:
                            deficit = Fraction(deficit, unit)
                        violations.append(Violation("triangle", i=i, j=j, k=k, deficit=deficit))
    if violations:
        raise ValidationError(violations)

    state = dict(
        labels=labels,
        base_index=base_index,
        dist=d,
        mode=mode,
        rel_tol=rel_tol,
        coords=points,
        coord_norm=coord_norm,
        meta=dict(meta) if meta else {},
    )
    if d is None:  # built from the integer matrix when first read
        del state["dist"]
    if unit is not None:  # the checked integer matrix becomes the cached one
        state["_int_matrix"] = (unit, m)
    if squares is not None:
        state["_l2_squares"] = squares
    space = object.__new__(FiniteMetricSpace)
    space.__dict__.update(state)
    return space


def from_points(
    points: Mapping[str, Sequence[Fraction]],
    norm: str = "l2",
    base: Union[int, str] = 0,
    rel_tol: float = DEFAULT_REL_TOL,
    meta: Mapping | None = None,
) -> FiniteMetricSpace:
    """The validated space of labelled rational points under the norm
    "l2", "l1" or "linf", keeping the coordinates.

    Another norm is refused at once as bad_norm, and the points as
    bad_entry where :func:`_read_points` refuses them. Distances are
    computed once for i < j, on the coordinates scaled to integers over
    one denominator den. l1 and linf give an exact space, sum or max
    |x - y| over den; l2 a float space of math.sqrt(S / den**2), S the
    squared distance, which the space keeps: the float root of the
    correctly rounded quotient, so rounded twice, and at times one ulp
    from the correctly rounded distance. ``rel_tol`` is l2's alone.

    The triangle inequality of l2 distances is a theorem, so an l2 cloud
    skips the cubic triangle check of :func:`validate` where rounding
    cannot make a float deficit exceed the tolerance: ``rel_tol`` at
    least :data:`_ROUNDING_BOUND` (2**-48) and every quotient S / den**2
    a normal float. Any other l2 cloud gets the full check. Either way
    the result, or the violations raised, are those of the full check.
    """
    if norm not in _NORMS:
        raise ValidationError([Violation("bad_norm")])
    rows = _read_points(points, list(points))
    den, ints = _scaled_ints(rows)
    exact = norm != "l2"
    squares = None if exact else _squared_distances(ints)
    den2 = den * den
    # true while the rounding bound covers every triangle deficit of the floats
    certified = not exact and isinstance(rel_tol, Real) and rel_tol >= _ROUNDING_BOUND
    matrix = [[Fraction(0) if exact else 0.0] * len(ints) for _ in ints]
    for i, u in enumerate(ints):
        for j in range(i + 1, len(ints)):
            if exact:
                diff = [abs(x - y) for x, y in zip(u, ints[j])]
                v = Fraction(sum(diff) if norm == "l1" else max(diff, default=0), den)
            else:
                try:
                    quotient = squares[i][j] / den2
                except OverflowError:
                    quotient = math.inf  # past the float range: validate's bad_entry
                if quotient < sys.float_info.min:
                    certified = False  # zero or subnormal: no relative bound
                v = math.sqrt(quotient)
            matrix[i][j] = matrix[j][i] = v
    return _validated(
        matrix, tuple(str(lab) for lab in points), base, EXACT if exact else FLOAT,
        DEFAULT_REL_TOL if exact else rel_tol, rows, norm, meta,
        triangles=not certified, squares=None if exact else (ints, squares),
    )


def _read_points(points: Mapping, labels: Sequence) -> tuple[tuple[Fraction, ...], ...]:
    """Each label's point, its coordinates read through Fraction; bad_entry
    for a missing label, a point that is a str or no sequence, a coordinate
    that does not convert, and points of unequal dimension."""
    rows = []
    try:
        for lab in labels:
            point = points[lab]
            if isinstance(point, str) or not isinstance(point, Sequence):
                raise TypeError(f"point {lab!r} is no sequence of coordinates")
            rows.append(tuple(c if type(c) is Fraction else Fraction(c) for c in point))
    except (LookupError, ValueError, TypeError, ZeroDivisionError, OverflowError) as exc:
        raise ValidationError([Violation("bad_entry")]) from exc
    if len({len(row) for row in rows}) > 1:
        raise ValidationError([Violation("bad_entry")])
    return tuple(rows)


def _squared_distances(pts: Sequence[Sequence[int]]) -> list[list[int]]:
    """The integer squared l2 distances between integer points."""
    squares = [[0] * len(pts) for _ in pts]
    for i, x in enumerate(pts):
        for j in range(i + 1, len(pts)):
            squares[i][j] = squares[j][i] = sum((s - t) ** 2 for s, t in zip(x, pts[j]))
    return squares


# -- elementary quantities ---------------------------------------------


@dataclass(frozen=True)
class ExcessValue:
    """The excess d(r,p) + d(r,q) - d(p,q); zero iff r lies between p and q."""

    r: str
    p: str
    q: str
    value: Num


def excess(
    space: FiniteMetricSpace,
    r: Union[int, str],
    p: Union[int, str],
    q: Union[int, str],
) -> ExcessValue:
    ri = space.index(r)
    pi, qi = space.pair(p, q)
    return ExcessValue(
        r=space.labels[ri],
        p=space.labels[pi],
        q=space.labels[qi],
        value=space.excess_raw(ri, pi, qi),
    )


def metric_segment(
    space: FiniteMetricSpace, p: Union[int, str], q: Union[int, str]
) -> tuple[str, ...]:
    """All points with zero excess over (p,q), in index order.

    Always contains p and q; it may contain nothing else.
    """
    pi, qi = space.pair(p, q)
    (scan,) = _scan_pairs(space, pairs=[(pi, qi)])
    return tuple(space.labels[ri] for ri in sorted((pi, qi, *scan.middles)))


def strict_middles(
    space: FiniteMetricSpace, p: Union[int, str], q: Union[int, str]
) -> tuple[str, ...]:
    """Points strictly between p and q, in index order."""
    pi, qi = space.pair(p, q)
    (scan,) = _scan_pairs(space, pairs=[(pi, qi)])
    return tuple(space.labels[ri] for ri in scan.middles)


def aligned_triples(space: FiniteMetricSpace) -> tuple[tuple[str, str, str], ...]:
    """All aligned triples as (middle, end1, end2), lexicographic by index.

    Three distinct points are aligned when one of them lies strictly
    between the other two; at most one point of a triple can do so.
    """
    return _aligned(space, _scan_pairs(space))


@dataclass(frozen=True)
class ModulusEntry:
    eps: Num
    delta: Num  # math.inf when no admissible point exists
    witness: str | None


@dataclass(frozen=True)
class ModulusTable:
    """Concavity modulus of a pair: delta(eps) = min excess at distance
    >= eps from both endpoints, with the attaining witness."""

    p: str
    q: str
    entries: tuple[ModulusEntry, ...]


def concavity_modulus(
    space: FiniteMetricSpace,
    p: Union[int, str],
    q: Union[int, str],
    eps_grid: Iterable,
) -> ModulusTable:
    """Tabulate delta(eps) over the given grid of positive eps values.

    delta(eps) is nondecreasing in eps and is reported as math.inf when
    no point of the space stays eps away from both endpoints (the
    condition is then vacuous, not an error).
    """
    pi, qi = space.pair(p, q)
    (scan,) = _scan_pairs(space, eps_grid, [(pi, qi)])
    return scan.modulus


def _eps_values(space: FiniteMetricSpace, eps_grid: Iterable) -> list[Num]:
    """The eps grid in the space's number mode; BadGrid unless nonempty
    and positive."""
    grid = [space.num(eps) for eps in eps_grid]
    if not grid:
        raise BadGrid("eps grid must be nonempty")
    if any(eps <= 0 for eps in grid):
        raise BadGrid("eps values must be positive")
    return grid


def _default_eps_grid(space: FiniteMetricSpace, pi: int, qi: int) -> list[Num]:
    """Quarter, half and full pair distance."""
    d = space.dist[pi][qi]
    return [d / 4, d / 2, d]


# -- one-pass classifier kernel ----------------------------------------


class _PairScan(NamedTuple):
    """What one pass over the third points r of a pair (p, q) finds.

    It holds labels and plain numbers, never the space, so it pickles.
    An exact number is kept as an integer numerator with a positive
    integer denominator, unreduced; a float, math.inf or an eps value
    given in the grid is kept as itself, with denominator None. The
    public values are built from these only when :attr:`min_ratio` or
    :attr:`modulus` is read, and the CLI prints from them directly.
    """

    p: int
    q: int
    labels: tuple[str, ...]
    middles: tuple[int, ...]  # strict middles, in index order
    ratio_witness: int | None
    # min excess(r;p,q) / min(d(p,r), d(q,r)) as ratio / ratio_den; inf without r
    ratio: Num | int
    ratio_den: int | None
    eps: tuple[tuple[Num | int, int | None], ...]  # (numerator, denominator) per eps
    unit: int | None  # exact: the denominator of every delta
    deltas: tuple[Num | int, ...]  # min excess per eps; math.inf without admissible r
    delta_at: tuple[int | None, ...]  # the witness of each delta

    @property
    def min_ratio(self) -> Num:
        """The least excess ratio, a Fraction in exact mode; inf without r."""
        return _value(self.ratio, self.ratio_den)

    @property
    def modulus(self) -> ModulusTable:
        labels, unit = self.labels, self.unit
        return ModulusTable(
            p=labels[self.p],
            q=labels[self.q],
            entries=tuple(
                ModulusEntry(
                    eps=_value(*eps),
                    delta=math.inf if at is None else _value(delta, unit),
                    witness=None if at is None else labels[at],
                )
                for eps, delta, at in zip(self.eps, self.deltas, self.delta_at)
            ),
        )


def _value(num, den) -> Num:
    """num / den as a Fraction, or num itself when den is None."""
    return num if den is None else Fraction(num, den)


def _scan_pairs(
    space: FiniteMetricSpace,
    eps_grid: Iterable | None = None,
    pairs: Iterable[tuple[int, int]] | None = None,
) -> list[_PairScan]:
    """Scan the excess e(r;p,q) once over each pair of distinct indices
    (p, q), by default every p < q in lexicographic order, and every
    third point r.

    This is the one implementation of strict middles, the min excess
    ratio with its witness and the concavity modulus:
    :func:`classify_all <freelip.classify.classify_all>` scans every
    pair, and the per-pair functions scan their one pair. The scan is
    symmetric in p and q, labels come out in the order given, and
    witnesses are the first in index order.

    One loop serves both number modes. It walks the rows of p and q
    together. The default eps grid (quarter, half and full pair
    distance) is nondecreasing, so its three least excesses are running
    minima behind nested tests: a point too near p or q for d/4 is
    tested against nothing more. An eps grid that is given is read once,
    and :func:`_least_excess` finds its minima. A third point is between
    p and q when its excess is at most :attr:`FiniteMetricSpace.abs_tol`,
    except on an l2 point cloud, where :func:`_l2_betweenness` decides,
    as in :meth:`FiniteMetricSpace.is_between`: its certified float
    filter answers no for a point whose excess is above the rounding
    bound, and its exact collinearity test answers for the rest, and
    wherever the filter's floats leave the float range.

    Exact spaces are scanned as integers over the common denominator of
    their distances, where the tolerance is 0: ratios compare by
    cross-multiplication, eps thresholds are rounded up to integers,
    and every reported number stays an integer pair; no Fraction and no
    record is built here, only when a :class:`_PairScan` property is
    read. Float spaces compute the excess as
    :meth:`FiniteMetricSpace.excess_raw` does, and a middle's ratio is
    0.0.
    """
    n, labels = space.n, space.labels
    exact = space.mode == EXACT
    if exact:
        (unit, m), tol = space._int_matrix, 0
    else:
        unit, m, tol = None, space.dist, space.abs_tol
    l2_between_for = space._l2_between_for
    between = None
    fixed = None if eps_grid is None else _eps_values(space, eps_grid)
    if fixed is not None:
        grid = tuple((eps, None) for eps in fixed)
        thresholds = fixed
        if exact:
            # an integer distance is >= eps * unit iff it is >= its ceiling
            thresholds = [-((-eps.numerator * unit) // eps.denominator) for eps in fixed]
        t1 = t2 = t3 = math.inf  # no distance reaches these: the default minima stay unset
    if pairs is None:
        pairs = combinations(range(n), 2)
    scans = []
    for p, q in pairs:
        row_p, row_q = m[p], m[q]
        d_pq = row_p[q]
        if fixed is None:
            if exact:
                # quarter, half and full pair distance, read off the integer one
                grid = ((d_pq, 4 * unit), (d_pq, 2 * unit), (d_pq, unit))
                t1, t2, t3 = -(-d_pq // 4), -(-d_pq // 2), d_pq
            else:
                t1, t2, t3 = _default_eps_grid(space, p, q)
                grid = ((t1, None), (t2, None), (t3, None))
        if l2_between_for is not None:
            between = l2_between_for(p, q)
        middles = []
        # exact: the least ratio is ratio / ratio_den, and 1/0 stands for inf
        ratio, ratio_den = (1, 0) if exact else (math.inf, None)
        witness = w1 = w2 = w3 = None
        m1 = m2 = m3 = math.inf
        for r, (a, b) in enumerate(zip(row_p, row_q)):
            if r == p or r == q:
                continue
            e = a + b - d_pq
            near = b if b < a else a
            mid = e <= tol if between is None else between(r)
            if mid:
                middles.append(r)
            if exact:
                if e * ratio_den < ratio * near:
                    ratio, ratio_den, witness = e, near, r
            else:
                value = 0.0 if mid else e / near
                if value < ratio:
                    ratio, witness = value, r
            if near >= t1:
                if e < m1:
                    m1, w1 = e, r
                if near >= t2:
                    if e < m2:
                        m2, w2 = e, r
                    if near >= t3 and e < m3:
                        m3, w3 = e, r
        if witness is None:
            ratio, ratio_den = math.inf, None
        if fixed is None:
            deltas, delta_at = (m1, m2, m3), (w1, w2, w3)
        else:
            deltas, delta_at = zip(*(_least_excess(row_p, row_q, p, q, t) for t in thresholds))
        scans.append(
            _PairScan(
                p, q, labels, tuple(middles), witness, ratio, ratio_den,
                grid, unit, deltas, delta_at,
            )
        )
    return scans


def _least_excess(row_p, row_q, p: int, q: int, threshold) -> tuple:
    """The least excess over (p, q) of a third point r with
    min(d(p,r), d(q,r)) >= threshold, and the first r that attains it;
    (math.inf, None) when no point qualifies."""
    d_pq = row_p[q]
    least, at = math.inf, None
    for r, (a, b) in enumerate(zip(row_p, row_q)):
        if r != p and r != q and (b if b < a else a) >= threshold:
            e = a + b - d_pq
            if e < least:
                least, at = e, r
    return least, at


def _aligned(
    space: FiniteMetricSpace, scans: Iterable[_PairScan]
) -> tuple[tuple[str, str, str], ...]:
    """Aligned triples from a scan: (r, p, q) for each strict middle r of
    p < q, since no other point of {p, q, r} can lie between the rest."""
    labels = space.labels
    found = sorted((r, s.p, s.q) for s in scans for r in s.middles)
    return tuple((labels[r], labels[p], labels[q]) for r, p, q in found)


def _l2_betweenness(space: FiniteMetricSpace):
    """The betweenness rule of a float l2 point cloud with exact
    coordinates: ``between_for(p, q)`` returns a test ``between(r)`` of
    whether a third point r lies between p and q. None for every other
    space, where r is between p and q when its excess is at most the
    absolute tolerance.

    The rule is a certified float filter in front of an exact test. Its
    floats a, b and c are math.sqrt(S) of the integer squared distances
    S from r to p, r to q and p to q on the integer-scaled coordinates,
    which the space keeps (:attr:`FiniteMetricSpace._l2_squares`), never
    from ``space.dist``, which :func:`validate` takes from its caller. A
    point r whose float excess a + b - c is above :data:`_ROUNDING_BOUND`
    times a + b + c is not between p and q: if it were, its true excess
    would be 0 and the float one at most 2.54 * 2**-53 times that sum.
    Every other point goes to :func:`_l2_collinear`, which decides (l2 is
    strictly convex, so metric and linear betweenness coincide). A root
    is math.inf where S is 0 (coinciding points) or past the float range;
    every comparison with it is false, so those triples get the exact
    test. A root is never subnormal, since S is a positive integer.
    """
    if space.mode != FLOAT or space.coords is None or space.coord_norm != "l2":
        return None
    pts, squares = space._l2_squares
    dims = len(pts[0]) if pts else 0
    minors = [(a, b) for a in range(dims) for b in range(a + 1, dims)]
    roots = [[math.inf] * len(pts) for _ in pts]
    for i, row in enumerate(squares):
        for j in range(i + 1, len(row)):
            try:
                root = math.sqrt(row[j]) if row[j] else math.inf
            except OverflowError:
                root = math.inf
            roots[i][j] = roots[j][i] = root

    def between_for(p, q):
        root_p, root_q = roots[p], roots[q]
        c = root_p[q]

        def between(r):
            s = root_p[r] + root_q[r]
            if s - c > _ROUNDING_BOUND * (s + c):
                return False
            return _l2_collinear(minors, pts[p], pts[q], pts[r])

        return between

    return between_for


def _l2_collinear(minors, p, q, r) -> bool:
    """Exact: does the integer point r lie on the segment from p to q?
    With v = q - p and w = r - p, every 2x2 minor (a, b) of w against v
    is zero and 0 <= w.v <= v.v."""
    v = [y - x for x, y in zip(p, q)]
    w = [y - x for x, y in zip(p, r)]
    if any(w[a] * v[b] != w[b] * v[a] for a, b in minors):
        return False
    return 0 <= sum(x * y for x, y in zip(w, v)) <= sum(x * x for x in v)


def holder_transform(space: FiniteMetricSpace, alpha) -> FiniteMetricSpace:
    """Snowflake the space: replace every distance d by d**alpha, 0<alpha<1.

    The output is always a float-mode space (rational distances rarely
    have rational powers); when the input was exact the mode change is
    recorded in the output metadata. Subadditivity of t -> t**alpha makes
    the result a metric with strictly concave triangles, so the output
    has no aligned triples. The base space and the exponent are kept
    in ``meta["holder"]`` as provenance; no verdict reads them.
    """
    alpha_f = Fraction(alpha)
    if not 0 < alpha_f < 1:
        raise BadExponent("snowflake exponent must lie strictly between 0 and 1")
    a = float(alpha_f)
    matrix = [
        [0.0 if i == j else float(space.dist[i][j]) ** a for j in range(space.n)]
        for i in range(space.n)
    ]
    meta = {
        "holder": {"alpha": alpha_f, "base": space},
    }
    if space.mode == EXACT:
        meta["mode_change"] = "exact input raised to an irrational-in-general power; output is float"
    rel_tol = space.rel_tol if space.mode == FLOAT else DEFAULT_REL_TOL
    return validate(
        matrix,
        space.labels,
        base=space.base_index,
        mode=FLOAT,
        rel_tol=rel_tol,
        meta=meta,
    )


# -- exact helpers -----------------------------------------------------


def _scaled_ints(rows: Sequence[Sequence[Fraction]]) -> tuple[int, list[list[int]]]:
    """The common denominator of a rational matrix and the matrix times it."""
    unit = math.lcm(*{v.denominator for row in rows for v in row})
    return unit, [[v.numerator * (unit // v.denominator) for v in row] for row in rows]
