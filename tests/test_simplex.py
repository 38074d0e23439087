"""The exact simplex against hand solutions, scipy, its own certificates,
and the textbook Fraction tableau it replaced."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from freelip import simplex
from support import reference_solve_nonneg


def test_basic_max():
    # max x + y st x <= 2, y <= 3, x + y <= 4
    res = simplex.solve_nonneg(
        [1, 1],
        a_ub=[[1, 0], [0, 1], [1, 1]],
        b_ub=[2, 3, 4],
        maximize=True,
    )
    assert res.status == simplex.OPTIMAL
    assert res.objective == 4


def test_equality_and_phase_one():
    # min x + y st x + 2y = 3, x,y >= 0 -> x=0, y=3/2
    res = simplex.solve_nonneg([1, 1], a_eq=[[1, 2]], b_eq=[3])
    assert res.status == simplex.OPTIMAL
    assert res.objective == F(3, 2)
    assert res.x == (F(0), F(3, 2))


def test_infeasible_with_farkas():
    # x + y <= 1 and x + y = 3 cannot hold together
    res = simplex.solve_nonneg(
        [0, 0], a_ub=[[1, 1]], b_ub=[1], a_eq=[[1, 1]], b_eq=[3]
    )
    assert res.status == simplex.INFEASIBLE
    y = res.farkas
    # y.A <= 0 componentwise and y.b > 0; inequality multiplier nonpositive
    rows = [[F(1), F(1)], [F(1), F(1)]]
    b = [F(1), F(3)]
    for col in range(2):
        assert sum(y[r] * rows[r][col] for r in range(2)) <= 0
    assert sum(y[r] * b[r] for r in range(2)) > 0
    assert y[0] <= 0


def test_unbounded():
    res = simplex.solve_nonneg([-1], a_ub=[[-1]], b_ub=[0])
    assert res.status == simplex.UNBOUNDED


# Beale's classic cycling instance; Bland's rule must terminate.
BEALE_C = [F(-3, 4), F(150), F(-1, 50), F(6)]
BEALE_A_UB = [
    [F(1, 4), F(-60), F(-1, 25), F(9)],
    [F(1, 2), F(-90), F(-1, 50), F(3)],
    [F(0), F(0), F(1), F(0)],
]
BEALE_B_UB = [F(0), F(0), F(1)]


def test_degenerate_cycling_guard():
    res = simplex.solve_nonneg(BEALE_C, BEALE_A_UB, BEALE_B_UB)
    assert res.status == simplex.OPTIMAL
    assert res.objective == F(-1, 20)


def test_free_variables():
    # max x st |x| <= 5 with x free
    res = simplex.solve_free([1], a_ub=[[1], [-1]], b_ub=[5, 5], maximize=True)
    assert res.objective == 5
    res = simplex.solve_free([1], a_ub=[[1], [-1]], b_ub=[5, 5], maximize=False)
    assert res.objective == -5


@pytest.mark.parametrize("seed", range(20))
def test_random_against_scipy(seed):
    scipy_opt = pytest.importorskip("scipy.optimize")
    rng = random.Random(seed)
    n = rng.randint(2, 5)
    m = rng.randint(2, 6)
    c = [F(rng.randint(-5, 5)) for _ in range(n)]
    a_ub = [[F(rng.randint(-4, 4)) for _ in range(n)] for _ in range(m)]
    b_ub = [F(rng.randint(1, 9)) for _ in range(m)]  # x=0 feasible
    res = simplex.solve_nonneg(c, a_ub, b_ub, maximize=False)
    ref = scipy_opt.linprog(
        [float(v) for v in c],
        A_ub=[[float(v) for v in row] for row in a_ub],
        b_ub=[float(v) for v in b_ub],
        bounds=[(0, None)] * n,
        method="highs",
    )
    if res.status == simplex.OPTIMAL:
        assert ref.status == 0
        assert abs(float(res.objective) - ref.fun) < 1e-8
    elif res.status == simplex.UNBOUNDED:
        assert ref.status == 3


WIDE = tuple(range(1, 13))


@st.composite
def lps(draw):
    """Small LPs with entry denominators 1..12: ub and eq rows, negative
    right-hand sides, and equality rows s*row_i + row_j made from earlier
    ones, so phase one leaves a redundant row to delete."""
    n = draw(st.integers(1, 5))
    entry = st.builds(F, st.integers(-6, 6), st.sampled_from(WIDE))
    row = st.lists(entry, min_size=n, max_size=n)
    a_ub = draw(st.lists(row, max_size=4))
    b_ub = draw(st.lists(entry, min_size=len(a_ub), max_size=len(a_ub)))
    a_eq = draw(st.lists(row, max_size=3))
    b_eq = draw(st.lists(entry, min_size=len(a_eq), max_size=len(a_eq)))
    for _ in range(draw(st.integers(0, 2)) if a_eq else 0):
        i, j = draw(st.integers(0, len(a_eq) - 1)), draw(st.integers(0, len(a_eq) - 1))
        s = draw(entry.filter(bool))
        a_eq.append([s * u + v for u, v in zip(a_eq[i], a_eq[j])])
        b_eq.append(s * b_eq[i] + b_eq[j])
    return draw(row), a_ub, b_ub, a_eq, b_eq, draw(st.booleans())


@settings(max_examples=300, deadline=None)
@given(lps())
@example((BEALE_C, BEALE_A_UB, BEALE_B_UB, [], [], False))
@example((BEALE_C, BEALE_A_UB, BEALE_B_UB, [], [], True))
# redundant equality: the artificial of row 2 stays basic at zero, no
# structural column can replace it, and the row is deleted
@example(([1, 2], [], [], [[1, 1], [2, 2]], [3, 6], False))
# the drive-out pivots on a negative entry, whose row must change sign
@example(
    ([-2, F(6, 11)], [[F(-5, 7), 1]], [0], [[F(-1, 3), F(2, 11)], [F(-1, 12), F(1, 22)]], [0, 0], True)
)
# infeasible with a flipped inequality: Farkas multipliers on both kinds
@example(([0, 0], [[1, 1], [-1, 0]], [1, -2], [[1, -1]], [F(1, 7)], False))
# unbounded after a phase one
@example(([-1, 0], [[-1, 1]], [-1], [], [], False))
def test_solve_nonneg_equals_reference_tableau(lp):
    c, a_ub, b_ub, a_eq, b_eq, maximize = lp
    got = simplex.solve_nonneg(c, a_ub, b_ub, a_eq, b_eq, maximize=maximize)
    ref = reference_solve_nonneg(c, a_ub, b_ub, a_eq, b_eq, maximize=maximize)
    assert got == ref
    assert repr(got) == repr(ref)


def reference_solve_free(c, a_ub, b_ub, a_eq, b_eq, maximize):
    """The reference tableau on the doubled columns x = x+ - x-, mapped back."""
    n = len(c)
    res = reference_solve_nonneg(
        [*c, *(-F(v) for v in c)],
        [[*a, *(-F(v) for v in a)] for a in a_ub],
        b_ub,
        [[*a, *(-F(v) for v in a)] for a in a_eq],
        b_eq,
        maximize=maximize,
    )
    if res.status != simplex.OPTIMAL:
        return res
    x = tuple(res.x[j] - res.x[n + j] for j in range(n))
    return simplex.LPResult(simplex.OPTIMAL, objective=res.objective, x=x)


ENTRY = st.builds(F, st.integers(-6, 6), st.sampled_from(WIDE))
INFEASIBLE_LP = ([0, 0], [[1, 1], [-1, 0]], [1, -2], [[1, -1]], [F(1, 7)], False)
REDUNDANT_LP = ([1, 2], [], [], [[1, 1], [2, 2]], [3, 6], False)
OBJECTIVES = st.lists(
    st.tuples(st.lists(ENTRY, min_size=5, max_size=5), st.booleans()), min_size=2, max_size=3
)


@settings(max_examples=200, deadline=None)
@given(lps(), OBJECTIVES, st.booleans(), st.randoms(use_true_random=False))
# infeasible: every solve returns the one stored Farkas certificate
@example(INFEASIBLE_LP, [([1, 2, 0, 0, 0], True)] * 2, False, random.Random(0))
@example(INFEASIBLE_LP, [([1, 2, 0, 0, 0], True)] * 2, True, random.Random(0))
# the redundant equality row is deleted at build time
@example(REDUNDANT_LP, [([-1, 1, 0, 0, 0], True)] * 2, False, random.Random(1))
@example(REDUNDANT_LP, [([-1, 1, 0, 0, 0], False)] * 2, True, random.Random(1))
def test_one_tableau_equals_fresh_reference_per_objective(lp, more, free, rng):
    # A shared tableau must answer each objective, in either sense and in
    # any order, exactly as a fresh solve would: a pivot that wrote into a
    # prepared row would change the later answers.
    c, a_ub, b_ub, a_eq, b_eq, maximize = lp
    n = len(c)
    objectives = [(c, maximize)] + [(obj[:n], mx) for obj, mx in more]
    objectives += [(obj, not mx) for obj, mx in objectives]
    rng.shuffle(objectives)
    tab = simplex.Tableau(n, a_ub, b_ub, a_eq, b_eq, free=free)
    prepared = [list(row) for row in tab.tab]
    reference = reference_solve_free if free else reference_solve_nonneg
    farkas = set()
    for obj, mx in objectives:
        got = tab.solve(obj, mx)
        ref = reference(obj, a_ub, b_ub, a_eq, b_eq, maximize=mx)
        assert got == ref
        assert repr(got) == repr(ref)
        if got.status == simplex.INFEASIBLE:
            farkas.add(got.farkas)
        assert tab.tab == prepared
    assert len(farkas) <= 1


def test_tableau_rejects_a_wrong_objective_length():
    tab = simplex.Tableau(2, a_ub=[[1, 1]], b_ub=[1])
    with pytest.raises(simplex.LPFailure, match="objective length"):
        tab.solve([1, 2, 3])
