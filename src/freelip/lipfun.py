"""Lipschitz functions on a finite space: slopes, extension, peaking,
and norm attainment.

The slope map sends f to the difference quotients
phi(f, x, y) = (f(x) - f(y)) / d(x,y); its sup norm is the Lipschitz
constant. That constant, the constant of a McShane extension and the
peaking certificate's off- and near-peak maxima all come from one loop
over index pairs. Functions vanishing at the base point pair against
free vectors, and the pairing never exceeds norm times Lipschitz
constant.

Norm attainment of a pair (p,q): over all f in the Lipschitz unit ball
with phi(f,p,q) = 1, the achievable values of phi(f,x,y) form an
interval, and (x,y) belongs to the attainment set exactly when that
interval is the single point +1 or -1. Full mode reads each interval in
closed form off the metric segments from p to q, so on an exact space
{x,y} is a member exactly when p, x, y and q lie in that order on a
geodesic: d(p,x) + d(x,y) + d(y,q) = d(p,q). A float space takes the
closed form in both modes. Lazy mode on an exact space bounds only the
candidates that no feasible function seen so far rules out, by an exact
min and max LP over one set of integer rows, keeps both optima to rule
more out, and checks each bound against the closed form. Both modes
carry each bound as an integer numerator over the raw integer distance
d(x,y) of ``space._int_matrix``, decide membership on it, and build
the reported value once, at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Mapping, Sequence, Union

from . import simplex
from .polytope import _coefficients
from .space import EXACT, FiniteMetricSpace, Num, SpaceError, _scan_pairs


class EmptySubset(SpaceError):
    pass


class MiddlePointExists(SpaceError):
    pass


class AlphaTooLarge(SpaceError):
    pass


class BadAlpha(SpaceError):
    pass


class LipFunction:
    """Real values on the points of a space, with the Lipschitz constant
    cached at construction. Use rebase() to subtract the base value and
    land in the subspace of functions vanishing at the base point."""

    __slots__ = ("space", "values", "lip_constant")

    def __init__(self, space: FiniteMetricSpace, values: Sequence):
        vals = tuple(space.num(v) for v in _values(space, values))
        self.space = space
        self.values = vals
        self.lip_constant = lipschitz_constant(space, vals)

    @property
    def vanishes_at_base(self) -> bool:
        return self.values[self.space.base_index] == 0

    def rebase(self) -> "LipFunction":
        b = self.values[self.space.base_index]
        return LipFunction(self.space, [v - b for v in self.values])

    def sup_norm(self) -> Num:
        return max(abs(v) for v in self.values)

    def as_dict(self) -> dict[str, Num]:
        return dict(zip(self.space.labels, self.values))


def _values(space: FiniteMetricSpace, f) -> Sequence[Num]:
    """The values of a function argument, one per point: a LipFunction,
    a label -> value mapping or a sequence in index order."""
    if isinstance(f, LipFunction):
        vals = f.values
    elif isinstance(f, Mapping):
        vals = [f[lab] for lab in space.labels]
    else:
        vals = list(f)
    if len(vals) != space.n:
        raise SpaceError("one value per point required")
    return vals


def phi(space: FiniteMetricSpace, f, p: Union[int, str], q: Union[int, str]) -> Num:
    """Difference quotient (f(p) - f(q)) / d(p,q); antisymmetric in p,q."""
    pi, qi = space.pair(p, q)
    vals = _values(space, f)
    return (vals[pi] - vals[qi]) / space.dist[pi][qi]


def lipschitz_constant(space: FiniteMetricSpace, values) -> Num:
    """Largest absolute difference quotient; zero iff values are constant."""
    return _max_slope(space, _values(space, values), combinations(range(space.n), 2))


def _max_slope(space: FiniteMetricSpace, vals, pairs) -> Num:
    """Largest |vals[i] - vals[j]| / d(i,j) over the index pairs (i, j);
    zero when there are none. vals is indexed by point."""
    best = space.num(0)
    for i, j in pairs:
        quot = abs(vals[i] - vals[j]) / space.dist[i][j]
        if quot > best:
            best = quot
    return best


def mcshane_extend(
    space: FiniteMetricSpace,
    subset: Sequence[Union[int, str]],
    g,
    rebase: bool = False,
) -> LipFunction:
    """Extend g from a nonempty subset of distinct points to the whole
    space, preserving both the Lipschitz constant and the sup norm.

    Uses the inf-convolution min_y (g(y) + L d(x,y)) clipped to the band
    [-max|g|, +max|g|]; clipping is 1-Lipschitz, so the constant survives,
    and it enforces the sup-norm bound without touching values on the
    subset. With rebase=True the base value is subtracted afterwards
    (which gives a function vanishing at the base point but in general
    changes the restriction and the sup norm).
    """
    idxs = [space.index(y) for y in subset]
    if not idxs:
        raise EmptySubset("extension needs a nonempty subset")
    for k, i in enumerate(idxs):
        if i in idxs[:k]:
            raise SpaceError(f"the subset names {space.labels[i]!r} twice")
    if isinstance(g, Mapping):
        gvals = [g[space.labels[i]] for i in idxs]
    else:
        gvals = list(g)
        if len(gvals) != len(idxs):
            raise SpaceError("one value per subset point required")
    gvals = [space.num(v) for v in gvals]

    lip = _max_slope(space, dict(zip(idxs, gvals)), combinations(idxs, 2))
    bound = max(abs(v) for v in gvals)

    out = []
    for x in range(space.n):
        v = min(gv + lip * space.dist[x][yi] for gv, yi in zip(gvals, idxs))
        out.append(max(-bound, min(bound, v)))
    f = LipFunction(space, out)
    return f.rebase() if rebase else f


@dataclass(frozen=True)
class PeakingCertificate:
    """A unit-slope witness concentrated on one pair.

    phi_pq is 1, the Lipschitz constant is 1, every quotient on pairs
    avoiding p is at most 1 - alpha in absolute value, and quotients on
    pairs through p (other than (p,q)) stay strictly below 1.
    """

    function: LipFunction
    p: str
    q: str
    alpha: Num
    c: Num  # the largest admissible alpha: min(1, min_r excess/d(r,q))
    phi_pq: Num
    lip_constant: Num
    off_peak_max: Num  # max |phi| over pairs avoiding p
    near_peak_max: Num  # max |phi| over pairs (p,x), x != q


def peaking_margin(
    space: FiniteMetricSpace, p: Union[int, str], q: Union[int, str]
) -> Num:
    """c = min(1, min over r of excess(r;p,q)/d(r,q)); zero iff a strict
    middle point exists, as the classifier kernel finds them."""
    pi, qi = space.pair(p, q)
    (scan,) = _scan_pairs(space, pairs=[(pi, qi)])
    if scan.middles:
        return space.num(0)
    return min([space.num(1)] + [
        space.excess_raw(ri, pi, qi) / space.dist[ri][qi]
        for ri in range(space.n)
        if ri not in (pi, qi)
    ])


def peaking_candidate(
    space: FiniteMetricSpace,
    p: Union[int, str],
    q: Union[int, str],
    alpha=None,
) -> PeakingCertificate:
    """Build the function with value d(p,q) at p and (1-alpha) d(x,q)
    elsewhere, rebased, and certify its peaking behavior at (p,q).

    Requires 0 < alpha < c where c is the peaking margin of the pair;
    alpha defaults to c/2. Fails with MiddlePointExists when c = 0 and
    AlphaTooLarge when alpha >= c. The certificate fields are recomputed
    from the finished function by brute force over all pairs.
    """
    pi, qi = space.pair(p, q)
    c = peaking_margin(space, pi, qi)
    if c == 0:
        raise MiddlePointExists(
            f"a point lies strictly between {space.labels[pi]!r} and {space.labels[qi]!r}"
        )
    if alpha is None:
        alpha = c / 2
    else:
        alpha = space.num(alpha)
        if alpha <= 0:
            raise BadAlpha("alpha must be positive")
        if alpha >= c:
            raise AlphaTooLarge(f"alpha must be below the peaking margin {c}")

    one = space.num(1)
    vals = []
    for x in range(space.n):
        if x == pi:
            vals.append(space.dist[pi][qi] * one)
        else:
            vals.append((one - alpha) * space.dist[x][qi])
    f = LipFunction(space, vals).rebase()

    others = [x for x in range(space.n) if x != pi]
    off_peak = _max_slope(space, f.values, combinations(others, 2))
    near_peak = _max_slope(space, f.values, [(pi, x) for x in others if x != qi])
    return PeakingCertificate(
        function=f,
        p=space.labels[pi],
        q=space.labels[qi],
        alpha=alpha,
        c=c,
        phi_pq=phi(space, f, pi, qi),
        lip_constant=f.lip_constant,
        off_peak_max=off_peak,
        near_peak_max=near_peak,
    )


@dataclass(frozen=True)
class AttainmentSet:
    """Pairs at which every norm-attaining function of (p,q) must also
    attain its norm, with the slope intervals that were computed: every
    one in full mode or on a float space, else those left to an LP."""

    pair: tuple[str, str]
    members: tuple[tuple[str, str], ...]
    intervals: dict[tuple[str, str], tuple[Num, Num]]


def attainment_set(
    space: FiniteMetricSpace,
    p: Union[int, str],
    q: Union[int, str],
    intervals: str = "lazy",
) -> AttainmentSet:
    """Membership of each ordered pair (x,y) in the attainment set of (p,q).

    A candidate's interval is the range of phi(f,x,y) over the polytope
    {L(f) <= 1, f(e) = 0, phi(f,p,q) = 1}; membership means the interval
    degenerates to +1 or -1 (within the space tolerance in float mode).
    (p,q) and (q,p) are always members. intervals="full" reports every
    interval in closed form (:func:`_path_intervals`) and runs no LP; on
    an exact space, {x,y} is a member iff d(p,x) + d(x,y) + d(y,q) =
    d(p,q). A float space takes the closed form in both modes. On an
    exact space intervals="lazy" bounds a candidate by two exact LPs
    (:func:`_lazy_intervals`, on the integer matrix) and skips them for
    candidates already disqualified by a feasible function produced along
    the way. Both modes return identical members, and the intervals lazy
    mode reports equal those of full mode; lazy mode checks that each one
    does, and raises LPFailure if not.

    Each route gives a bound as an integer numerator over the raw integer
    d(x,y). On an exact space (x,y) is a member when hi <= lo and
    |hi| >= d(x,y), and each value is built once, as Fraction(num, d);
    on a float space it is num / d, which int division rounds correctly,
    and membership is decided on the floats within the tolerance. A
    reversed entry is the negated interval, so a float -0.0 survives.
    """
    if intervals not in ("lazy", "full"):
        raise ValueError("intervals must be 'lazy' or 'full'")
    pi, qi = space.pair(p, q)

    exact = space.mode == EXACT
    if intervals == "full" or not exact:
        interval = _path_intervals(space, pi, qi)
    else:
        interval = _lazy_intervals(space, pi, qi)
    lab, one, m = space.labels, space.num(1), space._int_matrix[1]
    tol = space.rel_tol
    out_intervals = {(lab[pi], lab[qi]): (one, one), (lab[qi], lab[pi]): (-one, -one)}
    members = [(pi, qi), (qi, pi)]
    for i, j in combinations(range(space.n), 2):
        if {i, j} == {pi, qi}:
            continue
        bounds = interval(i, j)
        if bounds is None:
            continue
        lo, hi = bounds
        d = m[i][j]
        if exact:
            member = hi <= lo and abs(hi) >= d
            lo, hi = Fraction(lo, d), Fraction(hi, d)
        else:
            # int true division rounds correctly, as float(Fraction) does
            lo, hi = lo / d, hi / d
            member = hi - lo <= tol and abs(hi) >= 1 - tol
        out_intervals[(lab[i], lab[j])] = (lo, hi)
        out_intervals[(lab[j], lab[i])] = (-hi, -lo)
        if member:
            members.append((i, j))
            members.append((j, i))
    return AttainmentSet(
        pair=(lab[pi], lab[qi]),
        members=tuple((lab[a], lab[b]) for a, b in sorted(members)),
        intervals=out_intervals,
    )


def _closure(space: FiniteMetricSpace) -> list[list[int]]:
    """The shortest-path closure of the space's integer matrix; a float
    space's rational reading may break a triangle, an exact one cannot."""
    _, c = space._int_matrix
    if space.mode != EXACT:
        c = [list(row) for row in c]
        for k, via in enumerate(c):
            for row in c:
                ik = row[k]
                for j, kj in enumerate(via):
                    if ik + kj < row[j]:
                        row[j] = ik + kj
    return c


def _path_intervals(space: FiniteMetricSpace, pi: int, qi: int):
    """Every candidate interval of the attainment polytope of (p,q), in
    closed form on the distances read as exact rationals scaled to ints.

    The constraints f(v) - f(u) <= d(u,v) and, from phi(f,p,q) = 1,
    f(q) - f(p) <= -d(p,q) make max f(y) - f(x) the shortest x-y path
    D(x,y) once the arc p -> q is negated. A shortest simple path takes
    that arc at most once, and its parts before p and after q are paths
    of the plain shortest-path closure c (:func:`_closure`). So
    D(x,y) = min(c(x,y), c(x,p) - d(p,q) + c(q,y)), with d(p,q) read off
    c, so c(q,p) = d(p,q) and the polytope is never empty. The interval
    of phi(f,x,y) is [-D(x,y), D(y,x)] / d(x,y) over the raw integer
    d(x,y); the map (x, y) -> (-D(x,y), D(y,x)) returns the two integer
    numerators, which equal the LP's.
    """
    c = _closure(space)
    d = c[pi][qi]
    to_p, from_q = [row[pi] - d for row in c], c[qi]
    return lambda i, j: (
        -min(c[i][j], to_p[i] + from_q[j]),
        min(c[j][i], to_p[j] + from_q[i]),
    )


def _lazy_intervals(space: FiniteMetricSpace, pi: int, qi: int):
    """On an exact space, the map (x, y) -> LP interval, as the integer
    numerators of its bounds over the integer d(x,y), or None when a
    feasible function seen so far has a slope strictly inside (-1, 1)
    there, which rules (x,y) out without an LP.

    The LPs run in g = f - h, with h(x) = d(x,q) - d(e,q) feasible:
    phi(f,p,q) = 1 merges g(p) and g(q) into one variable and every
    right-hand side is nonnegative, so each bound is one phase-two run
    of ``simplex._ball_phase_two`` on one set of rows, built once by
    ``simplex._BallRows`` and shared by every LP. Distances, h, the
    LP optima and the witnesses are ints over the unit of
    ``space._int_matrix``, so ``dist`` is not read. The seen functions
    start as h and its p-side twin d(e,p) - d(x,p); every LP optimum
    joins them. Each LP interval is checked against the closed form of
    :func:`_path_intervals` by comparing numerators before it is
    returned; a mismatch raises LPFailure.
    """
    n, e = space.n, space.base_index
    dm = space._int_matrix[1]
    h = [dm[x][qi] - dm[e][qi] for x in range(n)]
    # Variables: the shared p/q one first, then the other non-base points
    # in index order (None = fixed 0). Bland's rule makes the optima depend
    # on this order.
    var_of: list[int | None] = [None] * n
    shared = e not in (pi, qi)
    if shared:
        var_of[pi] = var_of[qi] = 0
    for v, x in enumerate((x for x in range(n) if x not in (e, pi, qi)), shared):
        var_of[x] = v
    rows = simplex._BallRows(dm, var_of, h)
    closed = _path_intervals(space, pi, qi)

    witnesses = [h, [dm[e][pi] - dm[x][pi] for x in range(n)]]

    def interval(i: int, j: int):
        d = dm[i][j]
        # d > 0, so a slope is inside (-1, 1) when |w_i - w_j| < d
        if any(abs(w[i] - w[j]) < d for w in witnesses):
            return None
        c = [0] * rows.nv
        if var_of[i] is not None:
            c[var_of[i]] += 1
        if var_of[j] is not None:
            c[var_of[j]] -= 1
        bounds = []
        for maximize in (False, True):
            g, _ = simplex._ball_phase_two(rows, c, maximize)
            w = [h[x] if v is None else g[v] + h[x] for x, v in enumerate(var_of)]
            bounds.append(w[i] - w[j])
            witnesses.append(w)
        if tuple(bounds) != closed(i, j):
            raise simplex.LPFailure("attainment LP bound differs from the closed form")
        return tuple(bounds)

    return interval


def pairing(space: FiniteMetricSpace, coefficients: Sequence, f) -> Num:
    """Duality pairing of a free vector with a Lipschitz function:
    sum_x a_x (f(x) - f(e)) over the non-base points."""
    vals = _values(space, f)
    e = space.base_index
    nonbase, coefficients = _coefficients(space, coefficients)
    return sum(
        space.num(a) * (vals[x] - vals[e]) for a, x in zip(coefficients, nonbase)
    )
