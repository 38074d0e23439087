"""Exact linear programming over the rationals.

A dense-tableau primal simplex with Bland's rule (anti-cycling), used as
the engine for the polytope oracle and the norm-attainment computations.
The tableau is fraction-free (Edmonds 1967; Bareiss, Math. Comp. 22,
1968): each row is a list of Python ints over one positive row
denominator, kept in lowest terms. Pivot choices, and therefore every
result, equal those of the textbook Fraction tableau; Fraction appears
only where values enter and leave the solver, so feasibility and
optimality verdicts are exact. Problems here are tiny (tens of rows), so
clarity wins over sparse cleverness.
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
    den = 1
    for v in vals:
        den = lcm(den, v.denominator)
    return [v.numerator * (den // v.denominator) for v in vals], den


def solve_nonneg(
    c: Sequence,
    a_ub: Sequence[Sequence] = (),
    b_ub: Sequence = (),
    a_eq: Sequence[Sequence] = (),
    b_eq: Sequence = (),
    maximize: bool = False,
) -> LPResult:
    """Optimize c.x subject to a_ub x <= b_ub, a_eq x = b_eq, x >= 0."""
    n = len(c)
    cvec = [_exact(v) for v in c]

    # Each constraint [a | b] as ints over a positive denominator.
    rows: list[tuple[list[int], int]] = []
    kinds: list[str] = []
    for kind, a_rows, b_vals in (("ub", a_ub, b_ub), ("eq", a_eq, b_eq)):
        for a, b in zip(a_rows, b_vals, strict=True):
            rows.append(_int_row([*a, b]))
            kinds.append(kind)
    m = len(rows)
    for ints, _ in rows:
        if len(ints) != n + 1:
            raise LPFailure("row length does not match objective length")

    flipped = [ints[-1] < 0 for ints, _ in rows]

    # Columns: structural, then one slack per ub row, then artificials on
    # rows lacking a unit start (equalities and flipped inequalities).
    ncols = n
    slack_col: list[int | None] = [None] * m
    for i in range(m):
        if kinds[i] == "ub":
            slack_col[i] = ncols
            ncols += 1
    art_col: list[int | None] = [None] * m
    for i in range(m):
        if kinds[i] == "eq" or flipped[i]:
            art_col[i] = ncols
            ncols += 1
    art_set = {j for j in art_col if j is not None}

    # Row r of the tableau T is the int list tab[r] over den[r] > 0, the
    # right-hand side last: T[r][j] == tab[r][j] / den[r].
    tab: list[list[int]] = []
    den: list[int] = []
    for i, (ints, d) in enumerate(rows):
        if flipped[i]:
            ints = [-v for v in ints]
        trow = ints[:n] + [0] * (ncols - n) + ints[n:]
        sc = slack_col[i]
        if sc is not None:
            trow[sc] = -d if flipped[i] else d
        ac = art_col[i]
        if ac is not None:
            trow[ac] = d
        tab.append(trow)
        den.append(d)

    basis = [art_col[i] if art_col[i] is not None else slack_col[i] for i in range(m)]

    def pivot(pr: int, pc: int) -> None:
        # Fraction-free: the pivot row becomes prow / a, every other row
        # (row * a - f * prow) / (den * a) reduced by its gcd. Each row holds
        # its denominator at its basic column and is in lowest terms, so
        # prow / a already is.
        prow = tab[pr]
        a = prow[pc]
        if a < 0:
            prow = [-v for v in prow]
            a = -a
        tab[pr] = prow
        den[pr] = a
        for r in range(len(tab)):
            if r == pr:
                continue
            f = tab[r][pc]
            if f:
                trow = [tv * a - f * pv for tv, pv in zip(tab[r], prow)]
                d = den[r] * a
                g = gcd(d, *trow)
                if g > 1:
                    trow = [v // g for v in trow]
                    d //= g
                tab[r] = trow
                den[r] = d
        basis[pr] = pc

    def run(cost: list[int], blocked: set[int]) -> str:
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
            for j in range(ncols):
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
            pivot(leave, enter)

    if art_set:
        cost1 = [0] * ncols
        for j in art_set:
            cost1[j] = 1
        if run(cost1, blocked=set()) != OPTIMAL:
            raise LPFailure("phase one cannot be unbounded")
        # basic values stay nonnegative, so the artificial sum is positive
        # exactly when one artificial is
        if any(tab[r][-1] > 0 for r, bi in enumerate(basis) if bi in art_set):
            # Duals from the unit probe columns: T[:, e_i] = B^-1 e_i.
            y = []
            for i in range(m):
                probe = art_col[i] if art_col[i] is not None else slack_col[i]
                yi = ZERO
                for r, bi in enumerate(basis):
                    if bi in art_set:
                        yi += Fraction(tab[r][probe], den[r])
                y.append(yi)
            farkas = tuple(-y[i] if flipped[i] else y[i] for i in range(m))
            return LPResult(INFEASIBLE, farkas=farkas)
        # Drive remaining artificials out of the basis; drop redundant rows.
        r = 0
        while r < len(tab):
            if basis[r] in art_set:
                for j in range(ncols):
                    if j not in art_set and tab[r][j] != 0:
                        pivot(r, j)
                        break
                else:
                    del tab[r], den[r], basis[r]
                    continue
            r += 1

    cost2, _ = _int_row(cvec)
    if maximize:
        cost2 = [-v for v in cost2]
    status = run(cost2 + [0] * (ncols - n), blocked=art_set)
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED)
    x = [ZERO] * n
    for r, bi in enumerate(basis):
        if bi < n:
            x[bi] = Fraction(tab[r][-1], den[r])
    obj = sum((cv * xv for cv, xv in zip(cvec, x)), ZERO)
    return LPResult(OPTIMAL, objective=obj, x=tuple(x))


def solve_free(
    c: Sequence,
    a_ub: Sequence[Sequence] = (),
    b_ub: Sequence = (),
    a_eq: Sequence[Sequence] = (),
    b_eq: Sequence = (),
    maximize: bool = False,
) -> LPResult:
    """Same LP with x unrestricted in sign (internally x = x+ - x-)."""
    n = len(c)
    c2 = [_exact(v) for v in c]
    c2 += [-v for v in c2]
    ub2 = [[*a, *(-_exact(v) for v in a)] for a in a_ub]
    eq2 = [[*a, *(-_exact(v) for v in a)] for a in a_eq]
    res = solve_nonneg(c2, ub2, b_ub, eq2, b_eq, maximize=maximize)
    if res.status != OPTIMAL:
        return res
    assert res.x is not None
    x = tuple(res.x[j] - res.x[n + j] for j in range(n))
    return LPResult(OPTIMAL, objective=res.objective, x=x)


def feasible_combination(a_eq: Sequence[Sequence], b_eq: Sequence) -> LPResult:
    """Feasibility of a_eq x = b_eq, x >= 0 (phase one only)."""
    n = len(a_eq[0]) if a_eq else 0
    return solve_nonneg([ZERO] * n, a_eq=a_eq, b_eq=b_eq)
