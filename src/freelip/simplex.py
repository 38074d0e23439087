"""Exact linear programming over the rationals.

Three primal simplex engines with Bland's rule (anti-cycling), each
exact on Python ints. Pivot choices, and therefore every result, equal
those of the textbook Fraction tableau; Fraction appears only where
values enter and leave the solver, so feasibility and optimality
verdicts are exact.

The dense tableau (:class:`Tableau`, :func:`solve_nonneg`,
:func:`solve_free`) is the public general LP and the tests' reference
for the other two engines; no library LP runs on it. It is
fraction-free (Edmonds 1967; Bareiss, Math. Comp. 22, 1968): a row is a
list of ints over one positive row denominator, kept in lowest terms,
and a pivot replaces every row with a nonzero in the pivot column by a
dense update. It is built once per constraint system (rows scaled to ints,
slacks and artificials laid out, phase one run) and copied per
objective for phase two.

The vertex oracle's feasibility LP is a network LP (Ahuja, Magnanti and
Orlin, Network Flows, 1993): each column is the incidence vector of an
arc x -> y over a last row holding d(x,y). :func:`_network_phase_one`
runs phase one of it as a revised simplex on integers. With the
distance row scaled by the common distance denominator, every column
is integer, and the basis inverse is kept as one integer adjugate over
one determinant D = det B > 0, together with the right-hand side and
the dual row. Each pivot is one Bareiss step on all of them: row r
becomes (row * a - f * pivot row) / D, an exact division, with no gcd
and no per-row denominator. The point rows are totally unimodular, so
D is at most the sum of the basis's distance entries. A column prices
in O(1) from the dual row, the entering column is built from its three
nonzeros, and the pivots are the dense tableau's.

The LPs over the Lipschitz ball, ``polytope.free_norm`` and lazy
``lipfun.attainment_set``, have rows +-(e_x - e_y) and +-e_x, a network
matrix, so every basis inverse is an integer matrix and every pivot
element is 1. :func:`_ball_phase_two` runs their phase two as a revised
simplex on ints alone, with no row denominator and no gcd: it keeps the
basic columns, the tight rows and the inverse of the square block
between them (at most n - 1 wide), and takes the dense free tableau's
pivots. :class:`_BallRows` builds the rows, their right-hand sides and
the index of each variable's rows once per row set, for every LP solved
on it, and an entering column is built and applied on its nonzero rows
alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

ZERO = Fraction(0)

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


class LPFailure(Exception):
    """Internal solver failure; indicates a bug, never a user error."""


@dataclass(frozen=True)
class LPResult:
    status: str
    objective: Fraction | None = None
    x: tuple[Fraction, ...] | None = None
    # Infeasible case: row multipliers y with y.A <= 0 componentwise,
    # y.b > 0, and y_i <= 0 on inequality rows (certificate of a Farkas
    # alternative for the system A_ub x <= b_ub, A_eq x = b_eq, x >= 0).
    farkas: tuple[Fraction, ...] | None = None


def _exact(v) -> int | Fraction:
    """Ints and Fractions as they are; anything else as an exact Fraction."""
    return v if isinstance(v, (int, Fraction)) else Fraction(v)


def _int_row(values: Sequence) -> tuple[list[int], int]:
    """The values as integers over one positive denominator, the LCM of theirs."""
    vals = [_exact(v) for v in values]
    den = lcm(*{v.denominator for v in vals})
    return [v.numerator * (den // v.denominator) for v in vals], den


def _pivot(tab: list[list[int]], den: list[int], basis: list[int], pr: int, pc: int) -> None:
    # Fraction-free: the pivot row becomes prow / a, every other row with
    # f != 0 becomes (row * a - f * prow) / (den * a), reduced by its gcd.
    # Each row holds its denominator at its basic column and is in lowest
    # terms, so prow / a already is. Rows are replaced, never written
    # into, so a shallow copy of a prepared tableau leaves it intact.
    prow = tab[pr]
    a = prow[pc]
    if a < 0:
        prow = [-v for v in prow]
        a = -a
    tab[pr] = prow
    den[pr] = a
    for r, row in enumerate(tab):
        f = row[pc]
        if f and r != pr:
            trow = [v * a - f * pv for v, pv in zip(row, prow)]
            d = den[r] * a
            g = gcd(d, *trow)
            if g > 1:
                trow = [v // g for v in trow]
                d //= g
            tab[r] = trow
            den[r] = d
    basis[pr] = pc


def _run(tab: list[list[int]], den: list[int], basis: list[int],
         cost: list[int], blocked: set[int]) -> str:
    # Bland: entering = lowest-index column with negative reduced cost;
    # leaving = min ratio, ties broken by lowest basic index. Reduced
    # costs are scaled by the LCM of the costed basic rows' denominators.
    while True:
        basic = set(basis)
        cb = [(r, cost[bi]) for r, bi in enumerate(basis) if cost[bi]]
        common = 1
        for r, _ in cb:
            common = lcm(common, den[r])
        weighted = [(tab[r], cr * (common // den[r])) for r, cr in cb]
        enter = -1
        for j in range(len(cost)):
            if j in blocked or j in basic:
                continue
            red = cost[j] * common
            for trow, w in weighted:
                red -= w * trow[j]
            if red < 0:
                enter = j
                break
        if enter < 0:
            return OPTIMAL
        # ratio T[r][rhs] / T[r][enter]: den[r] cancels, so compare
        # tab[r][-1] / tab[r][enter] by cross-multiplication
        leave = -1
        best_b = best_a = 0
        for r, trow in enumerate(tab):
            a = trow[enter]
            if a > 0:
                lhs, rhs_ = trow[-1] * best_a, best_b * a
                if leave < 0 or lhs < rhs_ or (lhs == rhs_ and basis[r] < basis[leave]):
                    best_b, best_a = trow[-1], a
                    leave = r
        if leave < 0:
            return UNBOUNDED
        _pivot(tab, den, basis, leave, enter)


class Tableau:
    """The system a_ub x <= b_ub, a_eq x = b_eq over n columns, x >= 0, or
    x free with free=True (x = x+ - x-). Built once per system: rows scaled
    to ints, slacks and artificials laid out, phase one and the artificial
    drive-out run. solve() runs phase two per objective on a copy.
    """

    def __init__(self, n: int, a_ub: Sequence[Sequence] = (), b_ub: Sequence = (),
                 a_eq: Sequence[Sequence] = (), b_eq: Sequence = (), free: bool = False):
        self.n, self.free = n, free
        nx = 2 * n if free else n
        # Each constraint [a | b] as ints over a positive denominator; the
        # negated column half of a free system has the same LCM.
        rows = [_int_row([*a, b]) for a, b in zip(a_ub, b_ub, strict=True)]
        n_ub = len(rows)
        rows += [_int_row([*a, b]) for a, b in zip(a_eq, b_eq, strict=True)]
        for ints, _ in rows:
            if len(ints) != n + 1:
                raise LPFailure("row length does not match objective length")
            if free:
                ints[n:n] = [-v for v in ints[:n]]
        m = len(rows)
        flipped = [ints[-1] < 0 for ints, _ in rows]

        # Columns: structural, then one slack per ub row, then artificials on
        # rows lacking a unit start (equalities and flipped inequalities).
        art_rows = [i for i in range(m) if i >= n_ub or flipped[i]]
        art_col: list[int | None] = [None] * m
        for k, i in enumerate(art_rows):
            art_col[i] = nx + n_ub + k
        ncols = nx + n_ub + len(art_rows)
        art_set = set(range(nx + n_ub, ncols))

        # Row r of the tableau T is the int list tab[r] over den[r] > 0, the
        # right-hand side last: T[r][j] == tab[r][j] / den[r].
        tab: list[list[int]] = []
        den: list[int] = []
        for i, (ints, d) in enumerate(rows):
            if flipped[i]:
                ints = [-v for v in ints]
            trow = ints[:nx] + [0] * (ncols - nx) + ints[nx:]
            if i < n_ub:
                trow[nx + i] = -d if flipped[i] else d
            if art_col[i] is not None:
                trow[art_col[i]] = d
            tab.append(trow)
            den.append(d)
        start = [nx + i if art_col[i] is None else art_col[i] for i in range(m)]
        self.tab, self.den, self.basis = tab, den, list(start)
        self.ncols, self.art_set = ncols, art_set
        self.infeasible: LPResult | None = None
        if not art_set:
            return

        basis = self.basis
        if _run(tab, den, basis, [int(j in art_set) for j in range(ncols)], set()) != OPTIMAL:
            raise LPFailure("phase one cannot be unbounded")
        # basic values stay nonnegative, so the artificial sum is positive
        # exactly when one artificial is
        art_basic = [r for r, bi in enumerate(basis) if bi in art_set]
        if any(tab[r][-1] > 0 for r in art_basic):
            # Duals from the unit start columns: T[:, e_i] = B^-1 e_i, summed
            # over the artificial rows as ints over the LCM of their dens.
            common = lcm(*(den[r] for r in art_basic))
            weighted = [(tab[r], common // den[r]) for r in art_basic]
            y = [sum(trow[j] * w for trow, w in weighted) for j in start]
            farkas = tuple(Fraction(-v if f else v, common) for v, f in zip(y, flipped))
            self.infeasible = LPResult(INFEASIBLE, farkas=farkas)
            return
        # Drive remaining artificials out of the basis; drop redundant rows.
        r = 0
        while r < len(tab):
            if basis[r] in art_set:
                for j in range(ncols):
                    if j not in art_set and tab[r][j] != 0:
                        _pivot(tab, den, basis, r, j)
                        break
                else:
                    del tab[r], den[r], basis[r]
                    continue
            r += 1

    def solve(self, c: Sequence, maximize: bool = False) -> LPResult:
        """Optimize c.x over the system: phase two on a copy of the tableau."""
        n = self.n
        if len(c) != n:
            raise LPFailure("objective length does not match the column count")
        if self.infeasible is not None:
            return self.infeasible
        cvec = [_exact(v) for v in c]
        cost, _ = _int_row(cvec)
        if self.free:
            cost += [-v for v in cost]
        if maximize:
            cost = [-v for v in cost]
        nx = len(cost)
        # A shallow copy suffices: _pivot replaces rows and never mutates one.
        tab, den, basis = list(self.tab), list(self.den), list(self.basis)
        if _run(tab, den, basis, cost + [0] * (self.ncols - nx), self.art_set) == UNBOUNDED:
            return LPResult(UNBOUNDED)
        x = [ZERO] * nx
        for r, bi in enumerate(basis):
            if bi < nx:
                x[bi] = Fraction(tab[r][-1], den[r])
        if self.free:
            x = [x[j] - x[n + j] for j in range(n)]
        obj = sum((cv * xv for cv, xv in zip(cvec, x) if cv and xv), ZERO)
        return LPResult(OPTIMAL, objective=obj, x=tuple(x))


def solve_nonneg(c: Sequence, a_ub: Sequence[Sequence] = (), b_ub: Sequence = (),
                 a_eq: Sequence[Sequence] = (), b_eq: Sequence = (),
                 maximize: bool = False) -> LPResult:
    """Optimize c.x subject to a_ub x <= b_ub, a_eq x = b_eq, x >= 0."""
    return Tableau(len(c), a_ub, b_ub, a_eq, b_eq).solve(c, maximize)


def solve_free(c: Sequence, a_ub: Sequence[Sequence] = (), b_ub: Sequence = (),
               a_eq: Sequence[Sequence] = (), b_eq: Sequence = (),
               maximize: bool = False) -> LPResult:
    """Same LP with x unrestricted in sign (internally x = x+ - x-)."""
    return Tableau(len(c), a_ub, b_ub, a_eq, b_eq, free=True).solve(c, maximize)


def _network_pivot(rows: list[list[int]], basis: list[int], pr: int, pc: int,
                   col: list[int], det: int) -> int:
    # Bareiss: the entering column is col / det, and col[pr] > 0 is the new
    # determinant. Row pr stays; every other row, the objective row too,
    # becomes (row * a - col[r] * prow) / det, an exact division.
    prow, a = rows[pr], col[pr]
    for r, f in enumerate(col):
        if r != pr and (f or a != det):
            rows[r] = [(v * a - f * pv) // det for v, pv in zip(rows[r], prow)]
    basis[pr] = pc
    return a


def _network_phase_one(unit: int, dm: Sequence[Sequence[int]], e: int,
                       arcs: Sequence[tuple[int, int]], p: int, q: int) -> LPResult:
    """Feasibility of sum_k mu_k (e_x - e_y; d(x,y)) = ((e_p - e_q) / d(p,q); 1),
    mu >= 0, over the arcs k = (x, y) and d = dm / unit, by phase one alone.

    The rows are the points but the base e in index order, then the
    distance row; the row of q is negated, since its right-hand side is
    negative. The distance row is scaled by unit and the right-hand side
    by t_den, the denominator of 1/d(p,q) in lowest terms, so column
    (x, y) is (+-1 incidence; dm[x][y]) and the system is integer. The
    artificials cost unit on a point row and 1 on the distance row: the
    phase-one objective times unit, which keeps every reduced-cost sign
    and ratio. The basis inverse is adj(B) / det B with det B > 0, kept
    as one integer row per constraint, [adj(B) | adj(B) b], plus the
    objective row c_B [adj(B) | adj(B) b], whose first entries are the
    phase-one duals times det B. :func:`_network_pivot` updates all of
    them by one Bareiss step. Column (x, y) prices from two duals and
    the distance row's dual times dm[x][y], and a basic column prices to
    exactly 0. The point rows are totally unimodular, so det B is at
    most the sum of the distance entries of the basis. Bland's rule
    picks the lowest-index column with a negative reduced cost, the arcs
    before the nonbasic artificials, and the least ratio, ties to the
    lowest basic column, as :class:`Tableau` does. Phase one fixes x and
    the Farkas vector, so the dense engine's drive-out pivots, which
    move neither, are not taken.
    """
    m, na = len(dm), len(arcs)
    weighted = [(x, y, dm[x][y]) for x, y in arcs]
    row_of = [z - (z > e) if z != e else -1 for z in range(m)]  # -1: e has no row
    g = gcd(unit, dm[p][q])
    t, t_den = unit // g, dm[p][q] // g  # 1 / d(p,q) in lowest terms
    flipped = row_of[q]
    # each point's row and its sign in the negated system, zero at e
    lead = [(r, -1 if r == flipped else 1) if r >= 0 else (0, 0) for r in row_of]
    rows = [[int(i == r) for i in range(m)] + [0] for r in range(m)]
    rows[-1][m] = unit * t_den
    for r in (row_of[p], flipped):
        if r >= 0:
            rows[r][m] = t
    cost = [unit] * (m - 1) + [1]
    rows.append(cost + [sum(c * row[m] for c, row in zip(cost, rows))])
    basis = list(range(na, na + m))
    det = 1
    while True:
        y = rows[m]
        point = [y[r] * s for r, s in lead]
        yd = y[m - 1]
        for k, (x, z, d) in enumerate(weighted):
            if point[x] - point[z] + yd * d > 0:
                enter = k
                (rx, sx), (rz, sz) = lead[x], lead[z]
                col = [row[rx] * sx - row[rz] * sz + row[m - 1] * d for row in rows]
                break
        else:
            # artificial i prices to cost[i] - y[i] / det; the entry of a
            # column in the objective row is minus its reduced cost times det
            enter = next((i for i in range(m) if y[i] > cost[i] * det), -1)
            if enter < 0:
                break
            col = [row[enter] for row in rows]
            col[m] -= cost[enter] * det
            enter += na
        # ratio rhs / col: det cancels, so compare by cross-multiplication
        leave = -1
        best_b = best_a = 0
        for r in range(m):
            a = col[r]
            if a > 0:
                b = rows[r][m]
                lhs, rhs_ = b * best_a, best_b * a
                if leave < 0 or lhs < rhs_ or (lhs == rhs_ and basis[r] < basis[leave]):
                    best_b, best_a, leave = b, a, r
        if leave < 0:
            raise LPFailure("phase one cannot be unbounded")
        det = _network_pivot(rows, basis, leave, enter, col, det)
    if y[m] > 0:  # an artificial is basic at a positive value
        farkas = [Fraction(s * y[r], det * unit) for r, s in lead if s]
        return LPResult(INFEASIBLE, farkas=(*farkas, Fraction(yd, det)))
    mu = [ZERO] * na
    for r, bi in enumerate(basis):
        if bi < na:
            mu[bi] = Fraction(rows[r][m], det * t_den)
    return LPResult(OPTIMAL, objective=ZERO, x=tuple(mu))


class _BallRows(list):
    """The rows of |f(x) - f(y)| <= d(x,y) over the variables g = f - h,
    on the integer distances dm and h over one unit, each row as its
    nonzeros, (variable, +-1) pairs, with b, the right-hand sides, nv,
    the number of variables, and occ, the rows of each variable as
    (row, +-1) pairs. Built once per row set, for every LP solved on it.

    Point x reads variable var_of[x] (None: fixed at 0); h defaults to
    zero. Each pair i < j gives its two orientations, in index order;
    pairs whose row vanishes are left out.
    """

    __slots__ = ("b", "nv", "occ")

    def __init__(self, dm: Sequence[Sequence[int]], var_of: Sequence[int | None],
                 h: Sequence[int] | None = None):
        super().__init__()
        self.b: list[int] = []
        for i, vi in enumerate(var_of):
            for j in range(i + 1, len(var_of)):
                vj = var_of[j]
                if vi != vj:  # else both are fixed, or p and q share a variable
                    row = [(v, a) for v, a in ((vi, 1), (vj, -1)) if v is not None]
                    dh = 0 if h is None else h[i] - h[j]
                    self.extend((row, [(v, -a) for v, a in row]))
                    self.b += [dm[i][j] - dh, dm[i][j] + dh]
        self.nv = 1 + max((v for v in var_of if v is not None), default=-1)
        self.occ: list[list[tuple[int, int]]] = [[] for _ in range(self.nv)]
        for r, row in enumerate(self):
            for v, a in row:
                self.occ[v].append((r, a))


def _ball_pivot(rows: Sequence[Sequence[tuple[int, int]]], basic: list[tuple[int, int]],
                tight: list[int], inv: list[list[int]], dg: list[int],
                enter: tuple[int, int], leave: tuple[int, int]) -> None:
    # enter and leave are (variable, sign) for a column x+ (sign 1) or x-
    # (sign -1); a slack is (its position in tight, 0) when it enters and
    # (its row, 0) when it leaves. lead is the leaving variable's row of
    # the basis inverse, over the tight rows and a leaving slack's row:
    # s * inv[i] for x = s * g, and e_r - a_r.inv for the slack
    # b_r - a_r.g. The pivot element is 1, so the entering column's row
    # is lead times its sign, and each other basic g moves by dg times
    # lead. An entering slack's row drops out of the inverse.
    out, s = leave
    if s:
        i = [k for k, _ in basic].index(out)
        lead = [s * v for v in inv[i]]
        del basic[i], inv[i]
    else:
        at = {k: row for (k, _), row in zip(basic, inv)}
        lead = [0] * len(tight)
        for v, a in rows[out]:
            if v in at:
                lead = [x - a * y for x, y in zip(lead, at[v])]
        lead.append(1)
        tight.append(out)
        for row in inv:
            row.append(0)
    for i, (k, _) in enumerate(basic):
        if dg[k]:
            inv[i] = [x + dg[k] * y for x, y in zip(inv[i], lead)]
    k, sigma = enter
    if sigma:
        basic.append(enter)
        inv.append([sigma * y for y in lead])
    else:
        del tight[k]
        for row in inv:
            del row[k]


def _ball_phase_two(rows: _BallRows, cost: Sequence[int],
                    maximize: bool = False) -> tuple[list[int], list[int]]:
    """Optimize cost.g subject to a_r.g <= b_r for every row r, g free in
    the rows' nv variables, by phase two from the all-slack basis; every
    b_r >= 0.

    Row r is its nonzeros, (variable, +-1) pairs: the rows of
    |f(x) - f(y)| <= d(x,y), a network matrix, which is totally
    unimodular, so every basis inverse is an integer matrix and every
    pivot element is 1; an entering column with an entry above 1 raises
    LPFailure. b is ints, say over a unit; g then is too. The state is the
    basic x+/x- columns, the tight rows (nonbasic slacks), the integer
    inverse of the square A[tight, basic], one row per basic column and
    updated in place by :func:`_ball_pivot`, and the values g and b - Ag.
    Pivots are those of :class:`Tableau` with free=True on the same rows:
    Bland's lowest-index entering column in its layout (x+, then x-, then
    the slacks by row), where a basic column prices to exactly 0, and the
    least ratio, ties to the lowest basic column. The row set
    (:class:`_BallRows`) carries b and the index of each variable's rows,
    made once for all the LPs on it. The entering
    column's slack entries, A.dg, come from that index on the rows of
    dg's support alone, and only those slacks move.

    Returns g and the row multipliers u >= 0, zero off the tight rows,
    with u.A = cost and u.b = cost.g when maximizing (-cost and -cost.g
    when minimizing): the dual optimum that proves g optimal.
    """
    if maximize:
        cost = [-v for v in cost]
    nv, occ = rows.nv, rows.occ
    basic: list[tuple[int, int]] = []
    tight: list[int] = []
    inv: list[list[int]] = []
    g, slack = [0] * nv, list(rows.b)
    while True:
        # w: the duals of the tight rows, cost_basic . inv; z = w.A
        w = [sum(cost[k] * row[j] for (k, _), row in zip(basic, inv)) for j in range(len(tight))]
        z = [0] * nv
        for r, y in zip(tight, w):
            if y:
                for v, a in rows[r]:
                    z[v] += a * y
        # reduced costs: cost - z at x+, z - cost at x-, -w at a slack;
        # dg: the change of g per unit of the entering column
        dg = [0] * nv
        enter = next(((k, 1) for k in range(nv) if cost[k] < z[k]), None) \
            or next(((k, -1) for k in range(nv) if cost[k] > z[k]), None)
        if enter:
            k, sigma = enter
            dg[k] = sigma
            at = dict(occ[k])
            a_k = [at.get(t, 0) for t in tight]
            for (kb, _), row in zip(basic, inv):
                dg[kb] = -sigma * sum(x * y for x, y in zip(row, a_k))
        else:
            free = [(r, j) for j, (r, y) in enumerate(zip(tight, w)) if y > 0]
            if not free:
                u = [0] * len(rows)
                for r, y in zip(tight, w):
                    u[r] = -y
                return g, u
            j = min(free)[1]
            enter = (j, 0)
            for (kb, _), row in zip(basic, inv):
                dg[kb] = -row[j]
        # the entering column: -dg at a basic x+, dg at a basic x-, A.dg at
        # a slack, which is 0 or -1 on the tight rows. Ratio test by value
        # and then the dense layout's column: x+ k, x- nv + k, slack 2 nv + r
        cands = [(s * g[kb], kb if s > 0 else nv + kb, (kb, s), -s * dg[kb])
                 for kb, s in basic if s * dg[kb] < 0]
        col: dict[int, int] = {}  # the slack rows' entries, on the rows of dg's support
        for v, d in enumerate(dg):
            if d:
                for r, a in occ[v]:
                    col[r] = col.get(r, 0) + a * d
        cands += [(slack[r], 2 * nv + r, (r, 0), a) for r, a in col.items() if a > 0]
        if not cands:
            raise LPFailure("the Lipschitz ball LP cannot be unbounded")
        if any(cand[3] != 1 for cand in cands):
            raise LPFailure("an entry of the entering column is above 1")
        theta, _, leave, _ = min(cands)
        if theta:
            g = [x + theta * d for x, d in zip(g, dg)]
            for r, a in col.items():
                slack[r] -= theta * a
        _ball_pivot(rows, basic, tight, inv, dg, enter, leave)
