"""Shared test fixtures: random metric spaces with exact arithmetic.

Random matrices are repaired into metrics by shortest-path closure
(Floyd-Warshall), which preserves rationality and positivity. Aligned
triples are injected by adjoining a metric midpoint of an existing pair
through the one-point shortest-path extension, which keeps the triangle
inequality intact.

The brute-force references at the end decide betweenness, strict
middles, metric segments, the min excess ratio, the concavity modulus,
pair verdicts and aligned triples point by point, without the
classifier kernel (``freelip.space._scan_pairs``) that the library
routes all of these through. Their float betweenness keeps the library's
former rule, which rechecked a snowflake's excess inside a band above
the tolerance at 34 digits; the library now decides by the tolerance
alone and must agree. ``reference_solve_nonneg`` is the textbook
Fraction tableau that the integer dense tableau must match pivot for
pivot, ``reference_is_vertex`` the vertex oracle on dense molecule
vectors, ``reference_vertex_lp`` the oracle's network-form LP on the
dense tableau, which the revised phase one
(``freelip.simplex._network_phase_one``) must match,
``reference_ball_lp`` the dense free tableau on the Lipschitz-ball rows
over ``dist`` (``_lip_ball_rows``), which the revised phase two of
``free_norm`` and lazy attainment (``freelip.simplex._ball_phase_two``)
must match on the rows of ``freelip.simplex._BallRows``,
``reference_full_attainment`` the full attainment intervals by one pair
of LPs per candidate on ``_AttainmentLP``, the lazy LP of
``freelip.lipfun._lazy_intervals`` on that dense tableau,
``reference_intervals_text`` the ``intervals`` text that the
attainment command printed through the generic writer, keyed by
``reference_pair_key``,
``reference_spiral_points`` the spiral generator's pairwise alignment
test, ``reference_admissible_b`` the l2 generator's blind bisection for
b_n, and ``reference_cloud_matrix`` the Fraction distance matrix of a
point cloud.
"""

from __future__ import annotations

import json
import math
import random
import re
from fractions import Fraction
from typing import Sequence

from mpmath import mp

from freelip import simplex, validate
from freelip.classify import PairVerdict, _notes
from freelip.formats import number_to_json
from freelip.lipfun import Num, _closure
from freelip.space import (
    EXACT,
    FiniteMetricSpace,
    ModulusEntry,
    ModulusTable,
    SamePoint,
    _default_eps_grid,
    _eps_values,
)


def closure(matrix):
    n = len(matrix)
    d = [row[:] for row in matrix]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                via = d[i][k] + d[k][j]
                if via < d[i][j]:
                    d[i][j] = via
    return d


def random_exact_matrix(rng: random.Random, n: int, denominators=(1, 1, 2, 3)):
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = Fraction(rng.randint(2, 24), rng.choice(denominators))
            m[i][j] = m[j][i] = v
    return closure(m)


def labels_for(n: int):
    return [f"x{i}" for i in range(n)]


def random_exact_space(rng: random.Random, n: int, base: int = 0):
    return validate(random_exact_matrix(rng, n), labels_for(n), base=base, mode="exact")


def inject_midpoint(matrix, rng: random.Random):
    """Adjoin a point m strictly between a random pair (i, j); distances
    to the rest come from the shortest-path extension through i and j."""
    n = len(matrix)
    i, j = rng.sample(range(n), 2)
    t = Fraction(rng.choice([1, 1, 2, 3]), 4)
    di = t * matrix[i][j]
    dj = (1 - t) * matrix[i][j]
    row = []
    for x in range(n):
        if x == i:
            row.append(di)
        elif x == j:
            row.append(dj)
        else:
            row.append(min(di + matrix[i][x], dj + matrix[j][x]))
    out = [matrix[r][:] + [row[r]] for r in range(n)]
    out.append(row + [Fraction(0)])
    return out, (i, j, n)


def random_space_with_midpoint(rng: random.Random, n: int, base: int = 0):
    matrix, (i, j, m) = inject_midpoint(random_exact_matrix(rng, n - 1), rng)
    return (
        validate(matrix, labels_for(n), base=base, mode="exact"),
        (f"x{i}", f"x{j}", f"x{m}"),
    )


def random_float_space(rng: random.Random, n: int, base: int = 0):
    m = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = rng.uniform(1.0, 10.0)
            m[i][j] = m[j][i] = v
    return validate(closure(m), labels_for(n), base=base, mode="float")


def scaled(space, c):
    """The same space with every distance multiplied by c."""
    matrix = [[v * c for v in row] for row in space.dist]
    return validate(
        matrix, space.labels, base=space.base_index, mode=space.mode,
        rel_tol=space.rel_tol,
    )


def permuted(space, perm):
    """Relabeled copy: point k of the new space is point perm[k] of the old."""
    n = space.n
    matrix = [[space.dist[perm[a]][perm[b]] for b in range(n)] for a in range(n)]
    labels = [space.labels[perm[a]] for a in range(n)]
    return validate(
        matrix, labels, base=labels.index(space.base_label), mode=space.mode,
        rel_tol=space.rel_tol,
    )


EQUILATERAL = validate(
    [[0, 1, 1], [1, 0, 1], [1, 1, 0]], ["a", "b", "c"], base="a", mode="exact"
)

# d(a,b) = 2 via the middle point c
CHAIN = validate(
    [[0, 2, 1], [2, 0, 1], [1, 1, 0]], ["a", "b", "c"], base="a", mode="exact"
)

# base point e at distance 1 from both ends of a tight pair
VEE = validate(
    [[0, 1, 1], [1, 0, 2], [1, 2, 0]], ["e", "a", "b"], base="e", mode="exact"
)


# -- brute-force references ---------------------------------------------


def _linearly_between(coords, ri, pi, qi) -> bool:
    """Exact test: r = p + t(q-p) for some rational t in [0,1]."""
    rp = [a - b for a, b in zip(coords[ri], coords[pi])]
    qp = [a - b for a, b in zip(coords[qi], coords[pi])]
    for a in range(len(rp)):
        for b in range(a + 1, len(rp)):
            if rp[a] * qp[b] != rp[b] * qp[a]:
                return False
    num = sum(a * b for a, b in zip(rp, qp))
    den = sum(b * b for b in qp)
    if den == 0:
        return False  # p == q cannot happen in a validated space
    t = num / den
    if not 0 <= t <= 1:
        return False
    # Collinearity of all 2x2 minors plus a matching projection pins r.
    return all(rv == t * qv for rv, qv in zip(rp, qp))


# Float excesses below this fraction of the scale are rechecked at
# RECHECK_DPS digits when the space is a snowflake of a known base.
RECHECK_REL_MARGIN = 1e-6
RECHECK_DPS = 34  # ~2x IEEE double


def _highprec_distance(space, i, j):
    if space.coords is not None and space.coord_norm == "l2":
        sq = sum((a - b) ** 2 for a, b in zip(space.coords[i], space.coords[j]))
        return mp.sqrt(mp.mpf(sq.numerator) / mp.mpf(sq.denominator))
    v = space.dist[i][j]
    if isinstance(v, Fraction):
        return mp.mpf(v.numerator) / mp.mpf(v.denominator)
    return mp.mpf(v)


def highprec_excess(space, ri, pi, qi):
    """The excess of a snowflake recomputed at RECHECK_DPS digits from
    its base space and exponent (``meta["holder"]``), or None for a
    space without that provenance."""
    holder = space.meta.get("holder") if space.meta else None
    if holder is None:
        return None
    base, al = holder["base"], holder["alpha"]
    with mp.workdps(RECHECK_DPS):
        a = mp.mpf(al.numerator) / mp.mpf(al.denominator)
        return (
            _highprec_distance(base, ri, pi) ** a
            + _highprec_distance(base, ri, qi) ** a
            - _highprec_distance(base, pi, qi) ** a
        )


def brute_force_is_between(space, r, p, q) -> bool:
    """Does r lie (weakly) between p and q? Decided from the excess of
    this one triple: zero in exact mode, collinearity of exact l2
    coordinates, else within the float tolerance, with a snowflake's
    excess inside the recheck band recomputed at high precision."""
    ri, pi, qi = space.index(r), space.index(p), space.index(q)
    if pi == qi:
        raise SamePoint("betweenness needs two distinct endpoints")
    if ri == pi or ri == qi:
        return True
    if space.mode == EXACT:
        return space.excess_raw(ri, pi, qi) == 0
    if space.coords is not None and space.coord_norm == "l2":
        return _linearly_between(space.coords, ri, pi, qi)
    e = float(space.excess_raw(ri, pi, qi))
    if e <= space.abs_tol:
        return True
    if e < RECHECK_REL_MARGIN * float(space.scale):
        hp = highprec_excess(space, ri, pi, qi)
        if hp is not None:
            return hp <= mp.mpf(float(space.scale)) * mp.mpf(space.rel_tol) ** 2
    return False


def brute_force_metric_segment(space, p, q):
    pi, qi = space.index(p), space.index(q)
    if pi == qi:
        raise SamePoint("segment needs two distinct endpoints")
    return tuple(
        space.labels[ri]
        for ri in range(space.n)
        if brute_force_is_between(space, ri, pi, qi)
    )


def brute_force_strict_middles(space, p, q):
    pi, qi = space.index(p), space.index(q)
    if pi == qi:
        raise SamePoint("betweenness needs two distinct endpoints")
    return tuple(
        space.labels[ri]
        for ri in range(space.n)
        if ri not in (pi, qi) and brute_force_is_between(space, ri, pi, qi)
    )


def brute_force_min_excess_ratio(space, p, q):
    pi, qi = space.index(p), space.index(q)
    if pi == qi:
        raise SamePoint("pair must consist of distinct points")
    best = None
    witness = None
    for ri in range(space.n):
        if ri in (pi, qi):
            continue
        denom = min(space.dist[ri][pi], space.dist[ri][qi])
        ratio = space.excess_raw(ri, pi, qi) / denom
        if brute_force_is_between(space, ri, pi, qi):
            ratio = Fraction(0) if space.mode == EXACT else 0.0
        if best is None or ratio < best:
            best, witness = ratio, space.labels[ri]
    if best is None:
        return math.inf, None
    return best, witness


def brute_force_modulus(space, p, q, eps_grid):
    pi, qi = space.index(p), space.index(q)
    if pi == qi:
        raise SamePoint("modulus needs two distinct endpoints")
    entries = []
    for eps_n in _eps_values(space, eps_grid):
        best = None
        witness = None
        for ri in range(space.n):
            if space.dist[ri][pi] >= eps_n and space.dist[ri][qi] >= eps_n:
                val = space.excess_raw(ri, pi, qi)
                if best is None or val < best:
                    best, witness = val, ri
        if best is None:
            entries.append(ModulusEntry(eps=eps_n, delta=math.inf, witness=None))
        else:
            entries.append(
                ModulusEntry(eps=eps_n, delta=best, witness=space.labels[witness])
            )
    return ModulusTable(p=space.labels[pi], q=space.labels[qi], entries=tuple(entries))


def brute_force_classify_pair(space, p, q, eps_grid=None):
    pi, qi = space.index(p), space.index(q)
    if pi == qi:
        raise SamePoint("pair must consist of distinct points")
    middles = brute_force_strict_middles(space, pi, qi)
    ratio, _ = brute_force_min_excess_ratio(space, pi, qi)
    grid = eps_grid if eps_grid is not None else _default_eps_grid(space, pi, qi)
    modulus = brute_force_modulus(space, pi, qi, grid)
    witness = middles[0] if middles else None
    return PairVerdict(
        pair=(space.labels[pi], space.labels[qi]),
        is_extreme=witness is None,
        witness_middle=witness,
        min_ratio=ratio,
        modulus=modulus,
        notes=_notes(witness),
    )


def brute_force_aligned_triples(space):
    """Reference scan: every triple of points, each of its three points
    tried as the middle, sorted by index."""
    out = []
    n = space.n
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                for mid, e1, e2 in ((i, j, k), (j, i, k), (k, i, j)):
                    if brute_force_is_between(space, mid, e1, e2):
                        out.append((space.labels[mid], space.labels[e1], space.labels[e2]))
                        break
    out.sort(key=lambda t: tuple(space.index(x) for x in t))
    return tuple(out)


_ZERO = Fraction(0)
_ONE = Fraction(1)


def _frac(v) -> Fraction:
    return v if isinstance(v, Fraction) else Fraction(v)


def reference_solve_nonneg(
    c: Sequence,
    a_ub: Sequence[Sequence] = (),
    b_ub: Sequence = (),
    a_eq: Sequence[Sequence] = (),
    b_eq: Sequence = (),
    maximize: bool = False,
) -> simplex.LPResult:
    """Reference LP: the textbook Fraction tableau with the same Bland
    pivots as ``freelip.simplex.solve_nonneg``, which must return equal
    results. Optimizes c.x subject to a_ub x <= b_ub, a_eq x = b_eq, x >= 0."""
    n = len(c)
    cvec = [_frac(v) for v in c]

    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    kinds: list[str] = []
    for a, b in zip(a_ub, b_ub, strict=True):
        rows.append([_frac(v) for v in a])
        rhs.append(_frac(b))
        kinds.append("ub")
    for a, b in zip(a_eq, b_eq, strict=True):
        rows.append([_frac(v) for v in a])
        rhs.append(_frac(b))
        kinds.append("eq")
    m = len(rows)
    for row in rows:
        if len(row) != n:
            raise simplex.LPFailure("row length does not match objective length")

    flipped = [False] * m
    for i in range(m):
        if rhs[i] < 0:
            rows[i] = [-v for v in rows[i]]
            rhs[i] = -rhs[i]
            flipped[i] = True

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

    tab = [[_ZERO] * ncols for _ in range(m)]
    for i in range(m):
        trow = tab[i]
        for j, v in enumerate(rows[i]):
            trow[j] = v
        sc = slack_col[i]
        if sc is not None:
            trow[sc] = -_ONE if flipped[i] else _ONE
        ac = art_col[i]
        if ac is not None:
            trow[ac] = _ONE

    basis = [art_col[i] if art_col[i] is not None else slack_col[i] for i in range(m)]
    b = rhs[:]

    def pivot(pr: int, pc: int) -> None:
        prow = tab[pr]
        inv = _ONE / prow[pc]
        if inv != _ONE:
            prow = [v * inv for v in prow]
            tab[pr] = prow
            b[pr] *= inv
        bpr = b[pr]
        for r in range(len(tab)):
            if r == pr:
                continue
            f = tab[r][pc]
            if f:
                trow = tab[r]
                tab[r] = [tv - f * pv for tv, pv in zip(trow, prow)]
                b[r] -= f * bpr
        basis[pr] = pc

    def run(cost: list[Fraction], blocked: set[int]) -> str:
        # Bland: entering = lowest-index column with negative reduced cost;
        # leaving = min ratio, ties broken by lowest basic index.
        while True:
            cb = [(r, cost[bi]) for r, bi in enumerate(basis) if cost[bi]]
            enter = -1
            for j in range(ncols):
                if j in blocked or j in basis:
                    continue
                red = cost[j]
                for r, cr in cb:
                    red -= cr * tab[r][j]
                if red < 0:
                    enter = j
                    break
            if enter < 0:
                return simplex.OPTIMAL
            leave = -1
            best: Fraction | None = None
            for r in range(len(tab)):
                a = tab[r][enter]
                if a > 0:
                    ratio = b[r] / a
                    if best is None or ratio < best or (ratio == best and basis[r] < basis[leave]):
                        best = ratio
                        leave = r
            if leave < 0:
                return simplex.UNBOUNDED
            pivot(leave, enter)

    if art_set:
        cost1 = [_ZERO] * ncols
        for j in art_set:
            cost1[j] = _ONE
        if run(cost1, blocked=set()) != simplex.OPTIMAL:
            raise simplex.LPFailure("phase one cannot be unbounded")
        infeas = sum((b[r] for r, bi in enumerate(basis) if bi in art_set), _ZERO)
        if infeas > 0:
            # Duals from the unit probe columns: tab[:, e_i] = B^-1 e_i.
            y = []
            for i in range(m):
                probe = art_col[i] if art_col[i] is not None else slack_col[i]
                yi = _ZERO
                for r, bi in enumerate(basis):
                    if bi in art_set:
                        yi += tab[r][probe]
                y.append(yi)
            farkas = tuple(-y[i] if flipped[i] else y[i] for i in range(m))
            return simplex.LPResult(simplex.INFEASIBLE, farkas=farkas)
        # Drive remaining artificials out of the basis; drop redundant rows.
        r = 0
        while r < len(tab):
            if basis[r] in art_set:
                for j in range(ncols):
                    if j not in art_set and tab[r][j] != 0:
                        pivot(r, j)
                        break
                else:
                    del tab[r], b[r], basis[r]
                    continue
            r += 1

    cost2 = [_ZERO] * ncols
    for j in range(n):
        cost2[j] = -cvec[j] if maximize else cvec[j]
    status = run(cost2, blocked=art_set)
    if status == simplex.UNBOUNDED:
        return simplex.LPResult(simplex.UNBOUNDED)
    x = [_ZERO] * n
    for r, bi in enumerate(basis):
        if bi < n:
            x[bi] = b[r]
    obj = sum((cv * xv for cv, xv in zip(cvec, x)), _ZERO)
    return simplex.LPResult(simplex.OPTIMAL, objective=obj, x=tuple(x))


def count_calls(monkeypatch, module, name: str, limit: int | None = None) -> list[int]:
    """Count the calls of ``module.name`` for the rest of the test; the
    count is the one item of the returned list. Past ``limit`` calls the
    next one raises AssertionError, so an engine that loops fails its
    ledger at the pinned total plus one instead of running forever."""
    calls = [0]
    fn = getattr(module, name)

    def counting(*args):
        calls[0] += 1
        if limit is not None and calls[0] > limit:
            raise AssertionError(f"{name} called more than {limit} times")
        return fn(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


def count_run_pivots(monkeypatch) -> list[int]:
    """Count the dense tableau's pivots inside ``freelip.simplex._run``, as
    :func:`count_calls`: those of phase one and phase two, without the
    drive-out pivots that ``Tableau`` takes after phase one."""
    calls, inside = [0], [False]
    pivot, run = simplex._pivot, simplex._run

    def counting_pivot(*args):
        if inside[0]:
            calls[0] += 1
        return pivot(*args)

    def counting_run(*args):
        inside[0] = True
        try:
            return run(*args)
        finally:
            inside[0] = False

    monkeypatch.setattr(simplex, "_pivot", counting_pivot)
    monkeypatch.setattr(simplex, "_run", counting_run)
    return calls


def reference_vertex_lp(unit, dm, e, arcs, p, q) -> simplex.LPResult:
    """``freelip.simplex._network_phase_one`` on the dense tableau: one
    incidence column e_x - e_y per arc (x, y) over the rows of the points
    but e, a last row of distances dm / unit, and the target
    ((e_p - e_q) / d(p,q); 1), solved by ``simplex.solve_nonneg`` with a
    zero objective, each row over its own denominator. The revised phase
    one scales the distance row by unit and the target by the
    denominator of 1 / d(p,q), prices its artificials at unit on a point
    row and 1 on the distance row (the phase-one objective times unit),
    and keeps the basis inverse as one integer adjugate over det B,
    updated, with the right-hand side and the dual row, by one exact
    Bareiss division per entry; det B stays at most the sum of the
    basis's distance entries. None of that moves a reduced-cost sign or
    a ratio, so it must take this tableau's phase-one pivots and return
    an equal result: x as the right-hand side over det B times that
    denominator, the Farkas vector as the dual row over det B, and over
    det B times unit on the point rows."""
    n = len(dm)
    a_eq = [[0] * len(arcs) for _ in range(n)]
    for k, (x, y) in enumerate(arcs):
        a_eq[x][k] = 1
        a_eq[y][k] = -1
    del a_eq[e]
    a_eq.append([Fraction(dm[x][y], unit) for x, y in arcs])
    target = [_ZERO] * n
    target[p] = Fraction(unit, dm[p][q])
    target[q] = -target[p]
    return simplex.solve_nonneg([_ZERO] * len(arcs), a_eq=a_eq, b_eq=target[:e] + target[e + 1:] + [_ONE])


def reference_is_vertex(space, p, q):
    """Reference vertex oracle on dense molecule vectors: the constraint
    columns are the coordinates of every other molecule u_xy (ordered
    pairs x != y, lexicographic by index) with a 1 appended. Convex
    weights and the separating functional are re-checked with Fraction
    dot products. ``freelip.polytope.is_vertex`` scales column (x, y) by
    d(x,y), which leaves incidence columns over a row of distances, solves
    that network LP by the revised phase one, checks its certificates on
    integers, and must return an equal certificate after the same
    phase-one pivots; the drive-out pivots that this tableau takes after
    phase one move neither the weights nor the multipliers."""
    from freelip.polytope import VertexCertificate, molecule_vector

    pi, qi = space.index(p), space.index(q)
    others = [
        molecule_vector(space, i, j)
        for i in range(space.n)
        for j in range(space.n)
        if i != j and (i, j) != (pi, qi)
    ]
    target = molecule_vector(space, pi, qi).vector
    a_eq = [[m.vector[k] for m in others] for k in range(len(target))]
    a_eq.append([_ONE] * len(others))
    res = simplex.solve_nonneg([_ZERO] * len(others), a_eq=a_eq, b_eq=list(target) + [_ONE])

    def dot(a, b):
        return sum((x * y for x, y in zip(a, b)), _ZERO)

    if res.status == simplex.OPTIMAL:
        combo = [sum((w * m.vector[k] for m, w in zip(others, res.x)), _ZERO) for k in range(len(target))]
        if tuple(combo) != target or sum(res.x) != 1 or any(w < 0 for w in res.x):
            raise simplex.LPFailure("combination certificate failed verification")
        weights = {(m.p, m.q): w for m, w in zip(others, res.x) if w != 0}
        return VertexCertificate(vertex=False, separating=None, margin=None, weights=weights)
    phi = list(res.farkas[:-1])
    margin = min(dot(phi, target) - dot(phi, m.vector) for m in others)
    if margin <= 0:
        raise simplex.LPFailure("Farkas certificate failed verification")
    labels = [lab for i, lab in enumerate(space.labels) if i != space.base_index]
    return VertexCertificate(vertex=True, separating=dict(zip(labels, phi)), margin=margin, weights=None)


def _lip_ball_rows(
    space: FiniteMetricSpace,
    var_of: Sequence[int | None],
    nv: int,
    h: Sequence[Fraction] | None = None,
):
    """Rows of |f(x) - f(y)| <= d(x,y) over nv variables g = f - h, as
    dense rows over ``dist`` for the reference tableau.

    Point x reads variable var_of[x] (None: fixed at 0); h defaults to
    zero. Pairs whose row vanishes are left out. The library builds the
    same rows as integer nonzeros (``freelip.simplex._BallRows``).
    """
    a_ub: list[list[int]] = []
    b_ub: list[Fraction] = []
    for i in range(space.n):
        for j in range(i + 1, space.n):
            row = [0] * nv
            if var_of[i] is not None:
                row[var_of[i]] += 1
            if var_of[j] is not None:
                row[var_of[j]] -= 1
            if any(row):
                d = Fraction(space.dist[i][j])
                dh = 0 if h is None else h[i] - h[j]
                a_ub.append(row)
                b_ub.append(d - dh)
                a_ub.append([-v for v in row])
                b_ub.append(d + dh)
    return a_ub, b_ub


def reference_ball_lp(space, var_of, nv: int, h=None) -> simplex.Tableau:
    """The dense free tableau on :func:`_lip_ball_rows`, which the revised
    phase two (``freelip.simplex._ball_phase_two``) on the integer rows of
    ``freelip.simplex._BallRows`` must match result for result and pivot
    for pivot."""
    return simplex.Tableau(nv, *_lip_ball_rows(space, var_of, nv, h), free=True)


class _AttainmentLP:
    """Shared LP scaffolding for one attainment-set computation.

    Works in the shifted variable g = f - h where h(x) = c(x,q) - c(e,q),
    c the shortest-path closure (``freelip.lipfun._closure``) that the
    library reads the pair distance from; h is feasible, and on an exact
    space c is the matrix itself. The equality phi(f,p,q) = 1 then merges
    g(p) and g(q) into one variable and every right-hand side becomes
    nonnegative, so each bound is a single phase-two run on the one
    tableau built here.
    """

    def __init__(self, space: FiniteMetricSpace, pi: int, qi: int):
        self.space = space
        e = space.base_index
        unit, c = space._int_matrix[0], _closure(space)
        self.h = tuple(Fraction(c[x][qi] - c[e][qi], unit) for x in range(space.n))
        # variable ids: the shared one of p and q first (unless one is the
        # base), then one per other non-base point; None = fixed 0
        var_of: list[int | None] = [None] * space.n
        nv = int(e not in (pi, qi))
        if nv:
            var_of[pi] = var_of[qi] = 0
        for x in range(space.n):
            if x not in (e, pi, qi):
                var_of[x] = nv
                nv += 1
        self.var_of, self.nv = var_of, nv
        self.lp = reference_ball_lp(space, var_of, nv, self.h)

    def interval(self, i: int, j: int) -> tuple[Num, Num]:
        c = [Fraction(0)] * self.nv
        if self.var_of[i] is not None:
            c[self.var_of[i]] += 1
        if self.var_of[j] is not None:
            c[self.var_of[j]] -= 1
        d = Fraction(self.space.dist[i][j])
        dh = self.h[i] - self.h[j]
        bounds = []
        for maximize in (False, True):
            res = self.lp.solve(c, maximize)
            if res.status != simplex.OPTIMAL:
                raise simplex.LPFailure(
                    f"attainment LP ended {res.status}; the polytope is never empty"
                )
            bounds.append((res.objective + dh) / d)
        return tuple(map(self.space.num, bounds))


def reference_full_attainment(space, p, q):
    """``attainment_set(space, p, q, intervals="full")`` as two exact LPs
    per candidate pair on the shared attainment tableau
    (:class:`_AttainmentLP`). The library reads the same intervals in
    closed form and must return an equal set."""
    from freelip.lipfun import AttainmentSet

    pi, qi = space.index(p), space.index(q)
    lab = space.labels
    prob = _AttainmentLP(space, pi, qi)
    tol = 0.0 if space.mode == EXACT else space.rel_tol
    one = space.num(1)
    intervals = {(lab[pi], lab[qi]): (one, one), (lab[qi], lab[pi]): (-one, -one)}
    members = {(pi, qi), (qi, pi)}
    for i in range(space.n):
        for j in range(i + 1, space.n):
            if {i, j} == {pi, qi}:
                continue
            lo, hi = prob.interval(i, j)
            intervals[(lab[i], lab[j])] = (lo, hi)
            intervals[(lab[j], lab[i])] = (-hi, -lo)
            if space.mode == EXACT:
                degenerate = lo == hi and abs(hi) == 1
            else:
                degenerate = hi - lo <= tol and abs(hi) >= 1 - tol
            if degenerate:
                members |= {(i, j), (j, i)}
    return AttainmentSet(
        pair=(lab[pi], lab[qi]),
        members=tuple((lab[a], lab[b]) for a, b in sorted(members)),
        intervals=intervals,
    )


def reference_pair_key(x: str, y: str) -> str:
    """The key "x,y" of a pair in a JSON payload: each backslash and each
    comma of a label escaped by a backslash."""
    return ",".join(re.sub(r"[\\,]", r"\\\g<0>", label) for label in (x, y))


def reference_intervals_text(result) -> str:
    """The ``intervals`` object of ``freelip attainment --json`` for an
    AttainmentSet, as the CLI printed it through a dict and the generic
    writer: keys by :func:`reference_pair_key`, bounds by
    ``number_to_json``."""
    return json.dumps(
        {
            reference_pair_key(x, y): [number_to_json(lo), number_to_json(hi)]
            for (x, y), (lo, hi) in result.intervals.items()
        },
        sort_keys=True,
        indent=2,
    )


def reference_collinear(a, b, c) -> bool:
    """Exact orientation test: cross(b - a, c - a) == 0."""
    return (b[0] - a[0]) * (c[1] - a[1]) == (b[1] - a[1]) * (c[0] - a[0])


def reference_spiral_points(lam: Fraction, depth: int, seed, one_sided: bool):
    """The spiral generator with the pairwise alignment test: a candidate
    is drawn again when it is collinear with any pair of placed points.
    ``freelip.generators._spiral_points`` decides the same predicate with
    one slope set per candidate and must place the same points."""
    from freelip.generators import (
        _GRID, _PERP_LO, _PERP_SPAN, _TANG_MAX, REJECTION_BUDGET, RejectionBudgetExceeded,
    )

    rng = random.Random(seed)
    pts = {"p": (Fraction(0), Fraction(0)), "q": (Fraction(1), Fraction(0))}

    def sample(center_x: Fraction, radius: Fraction):
        for _ in range(REJECTION_BUDGET):
            gamma = _PERP_LO + _PERP_SPAN * Fraction(rng.randrange(_GRID), _GRID)
            s = _TANG_MAX * Fraction(rng.randrange(-_GRID, _GRID + 1), _GRID)
            sign = 1 if rng.random() < 0.5 else -1
            cand = (center_x + s * radius, sign * gamma * radius)
            existing = list(pts.values())
            if any(
                reference_collinear(cand, existing[a], existing[b])
                for a in range(len(existing))
                for b in range(a + 1, len(existing))
            ):
                continue
            return cand
        raise RejectionBudgetExceeded("could not place a non-collinear point")

    for n in range(1, depth + 1):
        radius = lam ** (2 * n)
        if not one_sided:
            pts[f"p{n}"] = sample(lam**n, radius)
        pts[f"q{n}"] = sample(1 - lam**n, radius)
    return pts


def reference_admissible_b(a: Fraction, lam: Fraction) -> Fraction:
    """b_n of the l2 family by 64 blind bisection steps on [0, 1] over
    Fractions, each testing the certified bound against 1 - 2^-40; 0 when
    no step passes. ``freelip.generators._admissible_b`` searches from a
    float seed on integers and must end on the same b."""
    from freelip.generators import L2_MARGIN, _FIXED, _power_sum_bound

    cap = (1 - L2_MARGIN) * (1 << _FIXED)
    lo, hi = Fraction(0), Fraction(1)
    for _ in range(64):
        mid = (lo + hi) / 2
        if _power_sum_bound(a, lam, mid) < cap:
            lo = mid
        else:
            hi = mid
    return lo


def reference_cloud_matrix(points, norm="l2"):
    """Every ordered pair's distance from Fraction coordinate differences:
    sum or max |x - y| under l1 or linf, and sqrt(float(squared
    distance)) under l2. ``freelip.space.from_points`` computes them on
    integers over one denominator and must return equal matrices."""

    def dist(a, b):
        diff = [x - y for x, y in zip(a, b)]
        if norm == "l1":
            return sum(abs(v) for v in diff)
        if norm == "linf":
            return max((abs(v) for v in diff), default=Fraction(0))
        return math.sqrt(float(sum(v * v for v in diff)))

    return [[dist(a, b) for b in points.values()] for a in points.values()]
