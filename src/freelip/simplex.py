"""Exact linear programming over the rationals.

A dense-tableau primal simplex with Bland's rule (anti-cycling), used as
the engine for the polytope oracle and the norm-attainment computations.
The tableau is fraction-free (Edmonds 1967; Bareiss, Math. Comp. 22,
1968): each row is a list of Python ints over one positive row
denominator, kept in lowest terms. Pivot choices, and therefore every
result, equal those of the textbook Fraction tableau; Fraction appears
only where values enter and leave the solver, so feasibility and
optimality verdicts are exact. A tableau is built once per constraint
system (rows scaled to ints, slacks and artificials laid out, phase one
run) and copied per objective for phase two. A pivot touches only what
it changes: the pivot row's nonzero entries are listed once, and every
other row is scaled by the pivot entry and updated on those columns
alone; the free tableaus of the Lipschitz ball are mostly zeros.
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
    # _exact inlined on exact types: a bool or a subclass takes the Fraction
    # path, which gives the same numerator and denominator
    vals = [v if type(v) is int or type(v) is Fraction else Fraction(v) for v in values]
    den = lcm(*{v.denominator for v in vals})
    return [v.numerator * (den // v.denominator) for v in vals], den


def _pivot(tab: list[list[int]], den: list[int], basis: list[int], pr: int, pc: int) -> None:
    # Fraction-free: the pivot row becomes prow / a, every other row
    # (row * a - f * prow) / (den * a) reduced by its gcd. Each row holds
    # its denominator at its basic column and is in lowest terms, so
    # prow / a already is. f * prow is subtracted on prow's nonzero
    # columns only. Rows are replaced, never written into, so a shallow
    # copy of a prepared tableau leaves the prepared rows intact.
    prow = tab[pr]
    a = prow[pc]
    if a < 0:
        prow = [-v for v in prow]
        a = -a
    tab[pr] = prow
    den[pr] = a
    nonzero = [(j, pv) for j, pv in enumerate(prow) if pv]
    for r, row in enumerate(tab):
        f = row[pc]
        if f and r != pr:
            trow = row.copy() if a == 1 else [v * a for v in row]
            for j, pv in nonzero:
                trow[j] -= f * pv
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


def feasible_combination(a_eq: Sequence[Sequence], b_eq: Sequence) -> LPResult:
    """Feasibility of a_eq x = b_eq, x >= 0 (phase one only)."""
    n = len(a_eq[0]) if a_eq else 0
    return solve_nonneg([ZERO] * n, a_eq=a_eq, b_eq=b_eq)
