"""Lipschitz functions on a finite space: slopes, extension, peaking,
and norm attainment.

The slope map sends f to the difference quotients
phi(f, x, y) = (f(x) - f(y)) / d(x,y); its sup norm is the Lipschitz
constant. Functions vanishing at the base point pair against free
vectors, and the pairing never exceeds norm times Lipschitz constant.

Norm attainment of a pair (p,q): over all f in the Lipschitz unit ball
with phi(f,p,q) = 1, the achievable values of phi(f,x,y) form an
interval, and (x,y) belongs to the attainment set exactly when that
interval is the single point +1 or -1. Every constraint on such f bounds
a difference f(v) - f(u), so each interval end is a shortest-path length
in the metric with the one edge p -> q weighted -d(p,q): full mode reads
all intervals off one Floyd-Warshall pass on integers. Lazy mode bounds
only the candidates that no feasible function rules out, by exact LPs
over one shared tableau.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence, Union

from . import simplex
from .polytope import _lip_ball_rows
from .space import FiniteMetricSpace, SamePoint, SpaceError

Num = Union[Fraction, float]


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
        if len(values) != space.n:
            raise SpaceError("one value per point required")
        vals = tuple(space.num(v) for v in values)
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
    if isinstance(f, LipFunction):
        return f.values
    if isinstance(f, Mapping):
        return [f[lab] for lab in space.labels]
    return list(f)


def phi(space: FiniteMetricSpace, f, p: Union[int, str], q: Union[int, str]) -> Num:
    """Difference quotient (f(p) - f(q)) / d(p,q); antisymmetric in p,q."""
    pi, qi = space.index(p), space.index(q)
    if pi == qi:
        raise SamePoint("the slope map needs two distinct points")
    vals = _values(space, f)
    return (vals[pi] - vals[qi]) / space.dist[pi][qi]


def lipschitz_constant(space: FiniteMetricSpace, values) -> Num:
    """Largest absolute difference quotient; zero iff values are constant."""
    vals = _values(space, values)
    best = space.num(0)
    for i in range(space.n):
        for j in range(i + 1, space.n):
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
    """Extend g from a nonempty subset to the whole space, preserving both
    the Lipschitz constant and the sup norm.

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
    if isinstance(g, Mapping):
        gvals = [g[space.labels[i]] for i in idxs]
    else:
        gvals = list(g)
        if len(gvals) != len(idxs):
            raise SpaceError("one value per subset point required")
    gvals = [space.num(v) for v in gvals]

    lip = space.num(0)
    for a in range(len(idxs)):
        for b in range(a + 1, len(idxs)):
            quot = abs(gvals[a] - gvals[b]) / space.dist[idxs[a]][idxs[b]]
            if quot > lip:
                lip = quot
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
    middle point exists."""
    pi, qi = space.index(p), space.index(q)
    if pi == qi:
        raise SamePoint("peaking needs two distinct points")
    c = space.num(1)
    for ri in range(space.n):
        if ri in (pi, qi):
            continue
        if space.is_between(ri, pi, qi):
            return space.num(0)
        ratio = space.excess_raw(ri, pi, qi) / space.dist[ri][qi]
        if ratio < c:
            c = ratio
    return c


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
    pi, qi = space.index(p), space.index(q)
    if pi == qi:
        raise SamePoint("peaking needs two distinct points")
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

    zero = space.num(0)
    off_peak = zero
    near_peak = zero
    for i in range(space.n):
        for j in range(i + 1, space.n):
            quot = abs(f.values[i] - f.values[j]) / space.dist[i][j]
            if pi in (i, j):
                if {i, j} != {pi, qi} and quot > near_peak:
                    near_peak = quot
            elif quot > off_peak:
                off_peak = quot
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
    one in full mode, those the lazy shortcut left to an LP otherwise."""

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
    interval, read off one shortest-path pass (:func:`_path_intervals`);
    no LP runs. intervals="lazy" bounds a candidate by two exact LPs and
    skips them for candidates already disqualified by a feasible function
    produced along the way. Both modes return identical members, and
    the intervals lazy mode reports equal those of full mode.
    """
    if intervals not in ("lazy", "full"):
        raise ValueError("intervals must be 'lazy' or 'full'")
    pi, qi = space.index(p), space.index(q)
    if pi == qi:
        raise SamePoint("attainment needs two distinct points")

    tol = 0.0 if space.mode == "exact" else space.rel_tol
    if intervals == "full":
        interval = _path_intervals(space, pi, qi)
    else:
        interval = _lazy_intervals(space, pi, qi, tol)
    candidates = [
        (i, j)
        for i in range(space.n)
        for j in range(i + 1, space.n)
        if {i, j} != {pi, qi}
    ]
    one = space.num(1)

    out_intervals: dict[tuple[str, str], tuple[Num, Num]] = {}
    members: list[tuple[int, int]] = [(pi, qi), (qi, pi)]
    out_intervals[(space.labels[pi], space.labels[qi])] = (one, one)
    out_intervals[(space.labels[qi], space.labels[pi])] = (-one, -one)

    for i, j in candidates:
        bounds = interval(i, j)
        if bounds is None:
            continue
        lo, hi = bounds
        out_intervals[(space.labels[i], space.labels[j])] = (lo, hi)
        out_intervals[(space.labels[j], space.labels[i])] = (-hi, -lo)
        if space.mode == "exact":
            degenerate = lo == hi and abs(hi) == 1
        else:
            degenerate = hi - lo <= tol and abs(hi) >= 1 - tol
        if degenerate:
            members.append((i, j))
            members.append((j, i))

    member_labels = sorted(
        {(space.labels[a], space.labels[b]) for a, b in members},
        key=lambda t: (space.index(t[0]), space.index(t[1])),
    )
    return AttainmentSet(
        pair=(space.labels[pi], space.labels[qi]),
        members=tuple(member_labels),
        intervals=out_intervals,
    )


def _path_intervals(space: FiniteMetricSpace, pi: int, qi: int):
    """Every candidate interval of the attainment polytope of (p,q), from
    one all-pairs shortest-path pass.

    Each constraint is a difference constraint f(v) - f(u) <= w(u,v):
    w(u,v) = d(u,v) for every ordered pair, except that phi(f,p,q) = 1
    adds f(q) - f(p) <= -d(p,q), so w(p,q) = -d(p,q). Over the polytope,
    max f(v) - f(u) is the length D[u][v] of a shortest u-v path, and the
    polytope is empty exactly when some cycle is negative (Cormen et al.,
    Introduction to Algorithms, 3rd ed., section 24.4). Floyd-Warshall
    runs on the distances read as exact rationals and scaled to ints; the
    scale cancels in phi(f,x,y), whose interval is [-D[x][y], D[y][x]]
    over d(x,y). Returns the map (x, y) -> (lo, hi), in the space's
    number mode; the values equal the LP's.
    """
    _, m = space._int_matrix
    n = space.n
    short = [list(row) for row in m]
    short[pi][qi] = -m[pi][qi]
    for k in range(n):
        via = short[k]
        for row in short:
            ik = row[k]
            for j, kj in enumerate(via):
                if ik + kj < row[j]:
                    row[j] = ik + kj
    if any(short[i][i] < 0 for i in range(n)):
        raise simplex.LPFailure(
            f"attainment LP ended {simplex.INFEASIBLE}; the polytope is never empty"
        )
    num = space.num
    return lambda i, j: (
        num(Fraction(-short[i][j], m[i][j])),
        num(Fraction(short[j][i], m[i][j])),
    )


def _lazy_intervals(space: FiniteMetricSpace, pi: int, qi: int, tol: float):
    """The map (x, y) -> LP interval, or None when a feasible function seen
    so far has a slope strictly inside (-1, 1) there, which rules (x,y)
    out without an LP. The 2*tol guard keeps the shortcut conservative in
    float mode."""
    prob = _AttainmentLP(space, pi, qi)
    witnesses: list[tuple[Num, ...]] = [prob.h_primary(), prob.h_secondary()]

    def interval(i: int, j: int):
        if any(abs(_slope(space, w, i, j)) < 1 - 2 * tol for w in witnesses):
            return None
        bounds = prob.interval(i, j)
        witnesses.extend(prob.last_witnesses)
        return bounds

    return interval


def _slope(space: FiniteMetricSpace, values: tuple[Num, ...], i: int, j: int) -> Num:
    return (values[i] - values[j]) / space.dist[i][j]


class _AttainmentLP:
    """Shared LP scaffolding for one attainment-set computation.

    Works in the shifted variable g = f - h where h(x) = d(x,q) - d(e,q),
    a feasible point; the equality phi(f,p,q) = 1 then merges g(p) and
    g(q) into one variable and every right-hand side becomes nonnegative,
    so each bound is a single phase-two run on the one tableau built here.
    """

    def __init__(self, space: FiniteMetricSpace, pi: int, qi: int):
        self.space = space
        self.pi, self.qi = pi, qi
        e = space.base_index
        self.h = tuple(
            Fraction(space.dist[x][qi]) - Fraction(space.dist[e][qi])
            for x in range(space.n)
        )
        # variable ids: one per non-base point, p and q shared; None = fixed 0
        var_of: list[int | None] = [None] * space.n
        nv = 0
        rep = {pi, qi}
        if e in rep:
            shared = None
        else:
            shared = nv
            nv += 1
        for x in range(space.n):
            if x == e:
                var_of[x] = None
            elif x in rep:
                var_of[x] = shared
            else:
                var_of[x] = nv
                nv += 1
        self.var_of = var_of
        self.nv = nv
        a_ub, b_ub = _lip_ball_rows(space, var_of, nv, self.h)
        self.lp = simplex.Tableau(nv, a_ub, b_ub, free=True)
        self.last_witnesses: list[tuple[Num, ...]] = []

    def _to_f(self, g: Sequence[Fraction]) -> tuple[Num, ...]:
        vals = []
        for x in range(self.space.n):
            gx = Fraction(0) if self.var_of[x] is None else g[self.var_of[x]]
            vals.append(gx + self.h[x])
        return tuple(map(self.space.num, vals))

    def interval(self, i: int, j: int) -> tuple[Num, Num]:
        c = [Fraction(0)] * self.nv
        if self.var_of[i] is not None:
            c[self.var_of[i]] += 1
        if self.var_of[j] is not None:
            c[self.var_of[j]] -= 1
        d = Fraction(self.space.dist[i][j])
        dh = self.h[i] - self.h[j]
        self.last_witnesses = []
        bounds = []
        for maximize in (False, True):
            res = self.lp.solve(c, maximize)
            if res.status != simplex.OPTIMAL:
                raise simplex.LPFailure(
                    f"attainment LP ended {res.status}; the polytope is never empty"
                )
            bounds.append((res.objective + dh) / d)
            self.last_witnesses.append(self._to_f(res.x))
        return tuple(map(self.space.num, bounds))

    def h_primary(self) -> tuple[Num, ...]:
        return tuple(map(self.space.num, self.h))

    def h_secondary(self) -> tuple[Num, ...]:
        space, e = self.space, self.space.base_index
        return tuple(
            space.num(-Fraction(space.dist[x][self.pi]) + Fraction(space.dist[e][self.pi]))
            for x in range(space.n)
        )


def pairing(space: FiniteMetricSpace, coefficients: Sequence, f) -> Num:
    """Duality pairing of a free vector with a Lipschitz function:
    sum_x a_x (f(x) - f(e)) over the non-base points."""
    vals = _values(space, f)
    e = space.base_index
    nonbase = [i for i in range(space.n) if i != e]
    if len(coefficients) != len(nonbase):
        raise SpaceError(f"expected {len(nonbase)} coefficients")
    return sum(
        space.num(a) * (vals[x] - vals[e]) for a, x in zip(coefficients, nonbase)
    )
