"""Independent LP oracle for the free-space unit ball over a finite space.

The unit ball of the free space over an n-point space is the convex hull
of the 2*C(n,2) molecule vectors, because the molecules norm the
Lipschitz unit ball: the hull's support function is exactly the
Lipschitz norm. Everything here leans only on that identification plus
exact rational linear programming, so agreement with the geometric
classifier is a genuine cross-check, not a restatement.

Coordinates: an element sum_x a_x (j(x) - j(e)) is stored as the
coefficient vector (a_x) over the non-base points in index order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence, Union

from . import simplex
from .space import EXACT, FiniteMetricSpace, SpaceError, _scaled_ints

MAX_ORACLE_POINTS = 12


class FloatModeUnsupported(SpaceError):
    pass


class DimensionMismatch(SpaceError):
    pass


class NotDistinct(SpaceError):
    pass


class TooManyPoints(SpaceError):
    pass


@dataclass(frozen=True)
class Molecule:
    """The unit vector (j(p) - j(q)) / d(p,q) in free-space coordinates."""

    p: str
    q: str
    vector: tuple[Fraction, ...]


@dataclass(frozen=True)
class FreeVector:
    """A finitely supported element of the free space, as coefficients
    over the non-base points. Norm is zero exactly for the zero vector."""

    coefficients: tuple[Fraction, ...]

    def __len__(self) -> int:
        return len(self.coefficients)

    def __iter__(self):
        return iter(self.coefficients)


@dataclass(frozen=True)
class VertexCertificate:
    vertex: bool
    # vertex: a separating functional phi over non-base points with
    # <phi, u_pq> strictly above <phi, m> for every other molecule m.
    separating: dict[str, Fraction] | None
    margin: Fraction | None
    # non-vertex: convex weights over the other molecules reproducing u_pq.
    weights: dict[tuple[str, str], Fraction] | None


@dataclass(frozen=True)
class DecompositionReport:
    """Split of u_pq through a third point r.

    The vector identity u_pq = w1*u_pr + w2*u_rq with w1 = d(p,r)/d(p,q)
    and w2 = d(r,q)/d(p,q) holds unconditionally; the coefficients form a
    convex combination exactly when r lies between p and q, and their sum
    always equals 1 + excess(r;p,q)/d(p,q).
    """

    p: str
    q: str
    r: str
    w1: Union[Fraction, float]
    w2: Union[Fraction, float]
    coefficient_sum: Union[Fraction, float]
    residual: tuple[Union[Fraction, float], ...]
    is_convex_combination: bool


def _nonbase(space: FiniteMetricSpace) -> list[int]:
    return [i for i in range(space.n) if i != space.base_index]


def _guard(space: FiniteMetricSpace, max_points: int) -> None:
    if space.n > max_points:
        raise TooManyPoints(f"the polytope oracle is guarded at {max_points} points")


def oracle_guard(space: FiniteMetricSpace, max_points: int = MAX_ORACLE_POINTS) -> None:
    """Refuse what the vertex oracle does not decide: float mode, or more than max_points points."""
    if space.mode != EXACT:
        raise FloatModeUnsupported("the polytope oracle requires exact mode")
    _guard(space, max_points)


def _coefficients(space: FiniteMetricSpace, coefficients: Sequence):
    """The non-base points and one coefficient per point; DimensionMismatch otherwise."""
    nonbase = _nonbase(space)
    if len(coefficients) != len(nonbase):
        raise DimensionMismatch(
            f"expected {len(nonbase)} coefficients, got {len(coefficients)}"
        )
    return nonbase, coefficients


def molecule_vector(
    space: FiniteMetricSpace, p: Union[int, str], q: Union[int, str]
) -> Molecule:
    """Coordinates of u_pq over the non-base points, exact in exact mode."""
    pi, qi = space.pair(p, q)
    d = space.dist[pi][qi]
    inv = Fraction(1) / Fraction(d)
    vec = []
    for i in _nonbase(space):
        v = Fraction(0)
        if i == pi:
            v += inv
        if i == qi:
            v -= inv
        vec.append(v)
    return Molecule(p=space.labels[pi], q=space.labels[qi], vector=tuple(vec))


def free_norm(
    space: FiniteMetricSpace,
    coefficients: Sequence,
    with_witness: bool = False,
    max_points: int = MAX_ORACLE_POINTS,
):
    """Norm of sum_x a_x (j(x) - j(e)) by LP duality.

    Maximizes sum a_x f(x) over the Lipschitz unit ball with f(e) = 0;
    exact in exact mode. With with_witness=True also returns the optimal
    f as a label -> value dict for independent re-checking.

    The LP runs on the integer distances of ``space._int_matrix`` and the
    coefficients over their common denominator, by the revised phase two
    of ``simplex._ball_phase_two`` on the rows that ``simplex._BallRows``
    builds, so ``dist`` is not read. Before it returns, the optimum is
    re-verified in exact integers: the witness (0 at e) is 1-Lipschitz,
    and the engine's row multipliers u are a transport plan of equal
    cost, u >= 0, A^T u = a and b.u = a.f, which proves f optimal. A
    failed check raises LPFailure.
    """
    _guard(space, max_points)
    nonbase, coefficients = _coefficients(space, coefficients)
    coeffs = [Fraction(c) for c in coefficients]
    c_den = lcm(*(c.denominator for c in coeffs))
    cost = [c.numerator * (c_den // c.denominator) for c in coeffs]
    unit, dm = space._int_matrix
    pos = {x: k for k, x in enumerate(nonbase)}
    rows = simplex._BallRows(dm, [pos.get(x) for x in range(space.n)])
    g, u = simplex._ball_phase_two(rows, cost, True)  # maximize
    # the rows hold f(e) = 0 and every pair's |f(x) - f(y)| <= d(x,y)
    if any(sum(a * g[v] for v, a in row) > br for row, br in zip(rows, rows.b)):
        raise simplex.LPFailure("free norm witness is not 1-Lipschitz")
    flow = [0] * len(cost)
    for row, ur in zip(rows, u):
        for v, a in row:
            flow[v] += a * ur
    top = sum(c * x for c, x in zip(cost, g))
    if any(ur < 0 for ur in u) or flow != cost or sum(br * ur for br, ur in zip(rows.b, u)) != top:
        raise simplex.LPFailure("free norm dual certificate failed verification")
    value = space.num(Fraction(top, c_den * unit))
    if with_witness:
        witness = {space.labels[x]: Fraction(g[k], unit) for k, x in enumerate(nonbase)}
        return value, witness
    return value


def is_vertex(
    space: FiniteMetricSpace,
    p: Union[int, str],
    q: Union[int, str],
    max_points: int = MAX_ORACLE_POINTS,
) -> VertexCertificate:
    """Is u_pq an extreme point of the molecule hull? Decided by LP.

    Feasibility of expressing u_pq as a convex combination of the other
    molecules (the opposite orientation included) is solved exactly; the
    infeasibility multipliers yield a separating functional, which is
    re-verified by direct arithmetic before being returned; a certificate
    that fails the check raises LPFailure. The LP is in network form:
    column (x, y) is (u_xy; 1) scaled by d(x,y) > 0, the incidence vector
    e_x - e_y over a distance row, so its value is mu_xy = lambda_xy /
    d(x,y) for the weight lambda_xy. A positive column scaling keeps every
    pivot, weight and Farkas multiplier of the unscaled LP. Phase one of
    the revised simplex (``simplex._network_phase_one``) solves it on the
    integer distances of ``space._int_matrix``: the basis inverse is one
    integer adjugate over the basis determinant, updated by exact
    Bareiss row operations, and each column prices from the integer dual
    row, so no dense row is built and ``dist`` is not read. The
    combination is checked in Fractions, and the separating functional on
    integers, over the common distance denominator.
    """
    oracle_guard(space, max_points)
    pi, qi = space.pair(p, q)
    n, e = space.n, space.base_index
    unit, dm = space._int_matrix
    # one column per other molecule u_xy, lexicographic by index pair
    others = [(x, y) for x in range(n) for y in range(n) if x != y and (x, y) != (pi, qi)]
    res = simplex._network_phase_one(unit, dm, e, others, pi, qi)
    if res.status == simplex.OPTIMAL:
        target = [0] * n
        target[pi] = Fraction(unit, dm[pi][qi])
        target[qi] = -target[pi]
        flow = [0] * n
        lam = {}
        for (x, y), mu in zip(others, res.x):
            if mu:
                flow[x] += mu
                flow[y] -= mu
                lam[x, y] = mu * Fraction(dm[x][y], unit)
        flow[e] = target[e]  # the base carries no coordinate
        if flow != target or sum(lam.values()) != 1 or any(w < 0 for w in lam.values()):
            raise simplex.LPFailure("combination certificate failed verification")
        weights = {(space.labels[x], space.labels[y]): w for (x, y), w in lam.items()}
        return VertexCertificate(
            vertex=False, separating=None, margin=None, weights=weights
        )
    # The multipliers y satisfy y.col <= 0 for every column, which is
    # d(x,y) > 0 times (u_xy; 1), and y.(u_pq; 1) > 0, so phi = y[:-1],
    # extended by phi(e) = 0, has a slope (phi(p) - phi(q)) / d(p,q)
    # above every other slope (phi(x) - phi(y)) / d(x,y); re-verified
    # here exactly, the margin being the least gap. With phi = g / F and
    # d = D / L on integers g and D, a slope is (g(x) - g(y)) / D(x,y)
    # times L / F > 0, so the largest other slope is found by
    # cross-multiplication (D > 0 off the diagonal).
    phi = list(res.farkas[:-1])
    f = phi[:e] + [0] + phi[e:]
    f_den, (g,) = _scaled_ints([f])
    top, bot = g[pi] - g[qi], dm[pi][qi]
    hi, hi_d = -top, bot  # u_qp is always among the others
    for x, y in others:
        s = g[x] - g[y]
        if s * hi_d > hi * dm[x][y]:
            hi, hi_d = s, dm[x][y]
    # t - max slope: the least gap, over the positive denominator F*D*D'
    margin = Fraction(unit * (top * hi_d - hi * bot), f_den * bot * hi_d)
    if margin <= 0:
        raise simplex.LPFailure("Farkas certificate failed verification")
    labels = [space.labels[i] for i in _nonbase(space)]
    return VertexCertificate(
        vertex=True,
        separating=dict(zip(labels, phi)),
        margin=margin,
        weights=None,
    )


def decomposition_check(
    space: FiniteMetricSpace,
    p: Union[int, str],
    q: Union[int, str],
    r: Union[int, str],
) -> DecompositionReport:
    """Verify u_pq = (d(p,r)/d(p,q)) u_pr + (d(r,q)/d(p,q)) u_rq componentwise."""
    pi, qi, ri = space.index(p), space.index(q), space.index(r)
    if len({pi, qi, ri}) != 3:
        raise NotDistinct("decomposition needs three pairwise distinct points")
    dpq = Fraction(space.dist[pi][qi])
    w1 = Fraction(space.dist[pi][ri]) / dpq
    w2 = Fraction(space.dist[ri][qi]) / dpq
    u_pq = molecule_vector(space, pi, qi).vector
    u_pr = molecule_vector(space, pi, ri).vector
    u_rq = molecule_vector(space, ri, qi).vector
    residual = tuple(
        space.num(t - (w1 * a + w2 * b)) for t, a, b in zip(u_pq, u_pr, u_rq)
    )
    # in exact mode this is w1 + w2 == 1; in float mode it applies the
    # betweenness rule the classifier uses
    convex = space.is_between(ri, pi, qi)
    return DecompositionReport(
        p=space.labels[pi],
        q=space.labels[qi],
        r=space.labels[ri],
        w1=space.num(w1),
        w2=space.num(w2),
        coefficient_sum=space.num(w1 + w2),
        residual=residual,
        is_convex_combination=convex,
    )
