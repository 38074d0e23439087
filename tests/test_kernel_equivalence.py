"""The one-pass classifier kernel against brute-force references.

`classify_all`, `aligned_triples` and the per-pair functions
(`strict_middles`, `metric_segment`, `min_excess_ratio`,
`concavity_modulus`, `classify_pair` and float `is_between`) all run on
the kernel `freelip.space._scan_pairs` or its betweenness rule. Each must
give what the point-by-point reference of the same name in `support`
gives, for both orientations of every pair: the same values, number types
and witnesses, and the same error for the same bad arguments.
"""

import copy
import dataclasses
import functools
import json
import math
import pickle
import random
from fractions import Fraction as F
from itertools import permutations

import pytest
from hypothesis import assume, example, given, settings, strategies as st
from mpmath import mp

import freelip as fl
from freelip import cli, formats
from freelip.formats import number_to_json
from freelip.space import SpaceError, _default_eps_grid, _scan_pairs
from support import (
    CHAIN,
    _linearly_between,
    brute_force_aligned_triples,
    brute_force_classify_pair,
    brute_force_is_between,
    brute_force_metric_segment,
    brute_force_min_excess_ratio,
    brute_force_modulus,
    brute_force_strict_middles,
    closure,
    count_calls,
    highprec_excess,
    inject_midpoint,
    labels_for,
    random_exact_matrix,
    random_float_space,
)

WIDE = tuple(range(1, 13))


def exact_wide(rng, n):
    return fl.validate(random_exact_matrix(rng, n, WIDE), labels_for(n))


def exact_midpoints(rng, n):
    matrix = random_exact_matrix(rng, n - 2, WIDE)
    for _ in range(2):
        matrix, _ = inject_midpoint(matrix, rng)
    return fl.validate(matrix, labels_for(n))


def exact_ties(rng, n):
    m = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            m[i][j] = m[j][i] = F(rng.choice((1, 2, 2, 3)))
    return fl.validate(closure(m), labels_for(n))


def float_plain(rng, n):
    return random_float_space(rng, n)


def float_midpoints(rng, n):
    matrix, _ = inject_midpoint(random_exact_matrix(rng, n - 1, WIDE), rng)
    return fl.validate([[float(v) for v in row] for row in matrix], labels_for(n), mode="float")


def snowflake(rng, n):
    matrix, _ = inject_midpoint(random_exact_matrix(rng, n - 1), rng)
    alpha = rng.choice((F(1, 4), F(1, 2), F(2, 3)))
    return fl.holder_transform(fl.validate(matrix, labels_for(n)), alpha)


def _cloud(rng, n, norm):
    dims = rng.choice((2, 3))
    pts = []
    while len(pts) < n:
        if len(pts) >= 2 and rng.random() < 0.4:
            p, q = rng.sample(pts, 2)
            t = rng.choice((F(1, 4), F(1, 3), F(1, 2), F(3, 2), F(-1, 2)))
            cand = tuple(a + t * (b - a) for a, b in zip(p, q))
        else:
            cand = tuple(F(rng.randint(-6, 6), rng.choice((1, 2, 3))) for _ in range(dims))
        if cand not in pts:
            pts.append(cand)
    doc = {"points": {f"x{i}": [str(c) for c in pt] for i, pt in enumerate(pts)}, "norm": norm}
    return fl.space_from_dict(doc)


def l2_cloud(rng, n):
    return _cloud(rng, n, "l2")


def l1_cloud(rng, n):
    return _cloud(rng, n, "l1")


BUILDERS = (
    exact_wide, exact_midpoints, exact_ties, float_plain, float_midpoints,
    snowflake, l2_cloud, l1_cloud,
)


def custom_grid(space):
    if space.mode == "exact":
        return [F(1, 3), F(7, 5), 2, F(1000)]
    return [0.3, F(7, 5), 2.0, 1e3]


def unsorted_grid(space):
    """Out of order, with a repeated value and one above every distance."""
    if space.mode == "exact":
        return [F(7, 5), F(1, 3), F(10**6), 2, F(1, 3)]
    return [F(7, 5), 0.3, 1e6, 2.0, 0.3]


def assert_same(got, want, *context):
    assert got == want, context
    # repr tells Fraction from float and 0 from 0.0, which == does not
    assert repr(got) == repr(want), context


def assert_per_pair_matches(space, eps_grid=None):
    """Both orientations of every pair; grids are passed as one-shot
    iterators, which must be read once."""
    for p, q in permutations(space.labels, 2):
        pi, qi = space.index(p), space.index(q)
        grid = eps_grid if eps_grid is not None else _default_eps_grid(space, pi, qi)
        got = (
            fl.strict_middles(space, p, q),
            fl.metric_segment(space, p, q),
            fl.min_excess_ratio(space, p, q),
            fl.concavity_modulus(space, p, q, iter(grid)),
            fl.classify_pair(space, p, q, None if eps_grid is None else iter(eps_grid)),
            tuple(space.is_between(r, p, q) for r in range(space.n)),
        )
        want = (
            brute_force_strict_middles(space, p, q),
            brute_force_metric_segment(space, p, q),
            brute_force_min_excess_ratio(space, p, q),
            brute_force_modulus(space, p, q, grid),
            brute_force_classify_pair(space, p, q, eps_grid),
            tuple(brute_force_is_between(space, r, p, q) for r in range(space.n)),
        )
        assert_same(got, want, p, q)


def assert_kernel_matches(space, eps_grid=None):
    report = fl.classify_all(space, eps_grid)
    pairs = [(p, q) for p in range(space.n) for q in range(p + 1, space.n)]
    reference = tuple(brute_force_classify_pair(space, p, q, eps_grid) for p, q in pairs)
    assert_same(report.pair_verdicts, reference)
    triples = brute_force_aligned_triples(space)
    assert report.violating_triples == triples
    assert fl.aligned_triples(space) == triples
    assert report.is_concave == (not triples)
    assert_per_pair_matches(space, eps_grid)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(4, 9), st.sampled_from(BUILDERS))
def test_classify_all_equals_classify_pair(seed, n, build):
    space = build(random.Random(seed), n)
    assert_kernel_matches(space)
    assert_kernel_matches(space, custom_grid(space))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.integers(4, 8), st.sampled_from(BUILDERS))
def test_kernel_ratio_witness_equals_min_excess_ratio(seed, n, build):
    space = build(random.Random(seed), n)
    for scan in _scan_pairs(space):
        ratio, witness = brute_force_min_excess_ratio(space, scan.p, scan.q)
        assert (scan.min_ratio, space.labels[scan.ratio_witness]) == (ratio, witness)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("build", BUILDERS)
def test_kernel_on_an_unsorted_grid_with_a_repeat_and_an_eps_past_every_distance(build, seed):
    space = build(random.Random(seed), 7)
    grid = unsorted_grid(space)
    assert space.num(grid[2]) > space.scale
    assert_kernel_matches(space, grid)
    for v in fl.classify_all(space, grid).pair_verdicts:
        entries = v.modulus.entries
        assert (entries[2].delta, entries[2].witness) == (math.inf, None)
        assert entries[1] == entries[4]


def test_two_point_space():
    space = fl.validate([[0, F(3, 2)], [F(3, 2), 0]], ["e", "x"])
    assert_kernel_matches(space)
    assert_kernel_matches(space, [F(1, 2)])


def test_snowflake_recheck_band():
    # r sits 1e-9 from p on the segment pq. After the 3/4 snowflake its
    # excess is about 2e-7 of the scale: above the float tolerance but
    # inside the band where the reference rule rechecks at high precision.
    band = 1e-6
    t = F(1, 10**9)
    base = fl.validate([[0, 1, t], [1, 0, 1 - t], [t, 1 - t, 0]], ["p", "q", "r"])
    space = fl.holder_transform(base, F(3, 4))
    assert band * space.scale > space.excess_raw(2, 0, 1) > space.abs_tol
    assert_kernel_matches(space)
    assert fl.classify_all(space).is_concave


def snowflake_chain(rel_tol, gaps, bump, alpha):
    """The alpha-snowflake of points on a line at the given gaps, every
    distance raised by bump: an exact base when rel_tol is None, else
    its float rounding validated with rel_tol."""
    xs = [F(0)]
    for gap in gaps:
        xs.append(xs[-1] + gap)
    n = len(xs)
    matrix = [[0 if i == j else abs(x - y) + bump for j, y in enumerate(xs)] for i, x in enumerate(xs)]
    if rel_tol is None:
        base = fl.validate(matrix, labels_for(n))
    else:
        matrix = [[float(v) for v in row] for row in matrix]
        base = fl.validate(matrix, labels_for(n), mode="float", rel_tol=rel_tol)
    return fl.holder_transform(base, alpha)


def band_triples(space, band=1e-6):
    """Triples (r, p, q), p < q, whose float excess lies above the
    tolerance and below band times the scale."""
    top = band * space.scale
    return [
        (r, p, q)
        for p in range(space.n)
        for q in range(p + 1, space.n)
        for r in range(space.n)
        if r not in (p, q) and space.abs_tol < space.excess_raw(r, p, q) < top
    ]


# (base rel_tol or None for an exact base, gaps, bump, alpha)
BAND_EXAMPLES = [
    (None, (F(1, 10**9), 1), 0, F(3, 4)),
    (None, (F(1, 10**12), 1), 0, F(1, 2)),
    (None, (F(1, 10**7), 1), 0, 1 - F(1, 10)),
    (1e-9, (F(1, 10**8), 1), F(1, 10**8), 1 - F(1, 10**12)),
    (1e-12, (F(1, 10**9), 1), 0, F(3, 4)),
    (1e-15, (1, 1, 1), F(1, 10**9), 1 - F(1, 10**40)),
    (1e-15, (1, 1), F(1, 10**14), 1 - F(1, 10**40)),
]


@st.composite
def chain_params(draw):
    rel_tol = draw(st.sampled_from((None, 1e-9, 1e-12, 1e-15)))
    # a float base needs every gap above its zero-distance tolerance
    finest = 14 if rel_tol is None else round(-math.log10(rel_tol)) - 2
    gaps = draw(st.lists(
        st.builds(lambda m, k: F(m, 10**k), st.integers(1, 9), st.integers(0, finest)),
        min_size=1, max_size=4,
    ))
    bump = draw(st.sampled_from((0, *(F(1, 10**k) for k in range(3, 41)))))
    k = draw(st.integers(1, 40))
    alpha = draw(st.one_of(
        st.just(F(1, 10**min(k, 5))),
        st.builds(lambda c, s: c + s * F(1, 10**k), st.sampled_from((F(1, 2), F(3, 4))),
                  st.sampled_from((-1, 0, 1))),
        st.just(1 - F(1, 10**k)),
    ))
    # the snowflake has no distance within its own zero-distance tolerance
    # (holder_transform rejects such a space)
    shortest = float((min(gaps) + bump) / (sum(gaps) + bump)) ** float(alpha)
    assume(shortest > 2 * (rel_tol or fl.space.DEFAULT_REL_TOL))
    return rel_tol, tuple(gaps), bump, alpha


def with_band_examples(test):
    for params in BAND_EXAMPLES:
        test = example(params)(test)
    return test


@pytest.mark.parametrize("params", BAND_EXAMPLES)
def test_band_examples_reach_the_band(params):
    assert band_triples(snowflake_chain(*params))


@with_band_examples
@settings(max_examples=200, deadline=None)
@given(chain_params())
def test_snowflake_band_excess_clears_the_recheck_bound(params):
    # The reference rule rechecks a snowflake excess in the band at 34
    # digits and calls it "between" at or below rel_tol**2 * scale. For
    # rel_tol >= 1e-15 the precise excess of every triple in the band
    # stays above that bound, so the tolerance alone gives its verdicts.
    space = snowflake_chain(*params)
    bound = mp.mpf(float(space.scale)) * mp.mpf(space.rel_tol) ** 2
    for r, p, q in band_triples(space):
        assert highprec_excess(space, r, p, q) > bound
        assert not space.is_between(r, p, q)


def test_sub_ulp_rel_tol_snowflake_follows_the_tolerance():
    # Below one ulp of the scale the float base itself breaks the triangle
    # inequality within its tolerance: the 34-digit excess of x1 over
    # (x0, x3) is negative while its float excess (1.6e-16 of the scale)
    # is above the tolerance. The reference rule's recheck calls x1 a
    # middle; the tolerance alone does not.
    space = snowflake_chain(1e-23, (F(37, 30), F(25, 23), F(41)), 0, 1 - F(6, 10**17))
    assert (1, 0, 3) in band_triples(space)
    assert highprec_excess(space, 1, 0, 3) < 0
    assert brute_force_is_between(space, 1, 0, 3)
    assert not space.is_between(1, 0, 3)
    assert fl.strict_middles(space, 0, 3) == ()


def test_float_tolerance_edge():
    # scale 1000, so the tolerance is 1e-6: r (excess 5e-7) is a middle
    # of p and q, t (excess 1.5e-6) is not
    space = fl.validate(
        [[0, 1, 0.5, 0.25, 1000], [1, 0, 0.5 + 5e-7, 0.75 + 1.5e-6, 1000],
         [0.5, 0.5 + 5e-7, 0, 0.25 + 2e-6, 1000], [0.25, 0.75 + 1.5e-6, 0.25 + 2e-6, 0, 1000],
         [1000] * 4 + [0]],
        ["p", "q", "r", "t", "s"], mode="float",
    )
    assert fl.strict_middles(space, "p", "q") == ("r",)
    assert_kernel_matches(space)


def test_excess_equal_to_the_tolerance_is_between():
    # powers of two: the excess of r is exactly the tolerance 2**-20
    space = fl.validate(
        [[0, 1, 0.5, 1024], [1, 0, 0.5 + 2**-20, 1024], [0.5, 0.5 + 2**-20, 0, 1024],
         [1024] * 3 + [0]],
        ["p", "q", "r", "s"], mode="float", rel_tol=2**-30,
    )
    assert space.excess_raw(2, 0, 1) == space.abs_tol
    assert space.is_between("r", "p", "q")
    # the kernel's inline test agrees
    (scan,) = _scan_pairs(space, pairs=[(0, 1)])
    assert (scan.middles, scan.min_ratio, scan.ratio_witness) == ((2,), 0.0, 2)
    assert_kernel_matches(space)


def test_l2_near_collinear_point():
    # r is off the line pq, with an excess far below the float tolerance:
    # exact coordinates, not the tolerance, decide
    doc = {"points": {"p": ["0", "0"], "q": ["1", "0"], "m": ["1/2", "0"],
                      "r": ["1/2", "1/1000000"]}, "norm": "l2"}
    space = fl.space_from_dict(doc)
    assert space.excess_raw(3, 0, 1) <= space.abs_tol
    assert space.is_between("m", "p", "q") and not space.is_between("r", "p", "q")
    assert fl.strict_middles(space, "p", "q") == ("m",)
    assert_kernel_matches(space)


def test_spiral_and_l2_family():
    assert_kernel_matches(fl.gen_planar_spiral(F(1, 2), 5, seed=3))
    assert_kernel_matches(fl.gen_l2_nonholder(None, None, 6))


# -- the certified float filter of l2 clouds -----------------------------


def assert_filter_is_exact(space):
    """The filtered test equals the exact reference on every (r, p, q),
    both on the space and on a copy without the squared distances that
    from_points may have seeded, which computes its own."""
    copy = dataclasses.replace(space)
    assert "_l2_squares" not in copy.__dict__
    assert copy._l2_squares == space._l2_squares
    for sp in (space, copy):
        between_for = sp._l2_between_for
        for p, q in permutations(range(sp.n), 2):
            between = between_for(p, q)
            for r in range(sp.n):
                if r != p and r != q:
                    want = _linearly_between(sp.coords, r, p, q)
                    assert between(r) == want, (sp.labels[r], sp.labels[p], sp.labels[q])


_coordinate = st.builds(F, st.integers(-4, 4), st.integers(1, 4))


@st.composite
def filter_clouds(draw):
    """Rational clouds of 1 to 4 dimensions with points on, and 1/den off,
    segments of others, den up to 10**100, scaled by 1, by 2**-520
    (distances below 2**-511) or by (10**200 + 1) / 10**200 (squared
    distances past the float range), as a mapping of label to point."""
    dims = draw(st.integers(1, 4))
    point = st.tuples(*[_coordinate] * dims)
    base = draw(st.lists(point, min_size=2, max_size=5, unique=True))
    pts = list(base)
    for _ in range(draw(st.integers(0, 4))):
        p, q = draw(st.sampled_from(base)), draw(st.sampled_from(base))
        t = draw(st.sampled_from([F(0), F(1, 3), F(1, 2), F(1), F(-1, 2), F(3, 2)]))
        den = 10 ** draw(st.integers(0, 100))
        off = draw(st.tuples(*[st.integers(-1, 1)] * dims))
        pts.append(tuple(a + t * (b - a) + F(o, den) for a, b, o in zip(p, q, off)))
    scale = draw(st.sampled_from([F(1), F(1, 2**520), F(10**200 + 1, 10**200)]))
    pts = list(dict.fromkeys(tuple(c * scale for c in pt) for pt in pts))
    return dict(zip(labels_for(len(pts)), pts))


@settings(max_examples=150, deadline=None)
@given(filter_clouds())
def test_l2_filter_equals_the_exact_betweenness(points):
    # validate takes the coordinates with a placeholder matrix, so the
    # filter computes the squared distances; from_points hands over its
    # own, where it accepts the cloud
    n = len(points)
    matrix = [[0.0 if i == j else 1.0 for j in range(n)] for i in range(n)]
    assert_filter_is_exact(fl.validate(matrix, list(points), mode="float", coords=points, coord_norm="l2"))
    try:
        cloud = fl.space.from_points(points, rel_tol=0)
    except fl.ValidationError:
        return  # a distance rounds to 0.0, overflows or breaks a triangle
    assert "_l2_squares" in cloud.__dict__
    assert_filter_is_exact(cloud)


def test_l2_filter_leaves_coinciding_points_to_the_exact_test():
    # validate takes coordinates as given, and two labels may share one
    # point; the filter has no bound there, and the exact test answers
    # as it did before the filter: every point lies between two that
    # coincide, and a point between itself and any other
    coords = {"p": [0, 0], "q": [0, 0], "r": [3, 4], "s": [3, 4], "t": [6, 8]}
    matrix = [[0.0 if i == j else 1.0 for j in range(5)] for i in range(5)]
    space = fl.validate(matrix, list(coords), mode="float", coords=coords, coord_norm="l2")
    assert space.is_between("r", "p", "q") and space.is_between("t", "r", "s")
    assert space.is_between("r", "s", "p") and space.is_between("r", "s", "t")
    assert not space.is_between("p", "r", "t")


def grid_cloud():
    """The 3 x 3 integer grid under l2: eight aligned triples."""
    return fl.space_from_dict({"points": {f"g{i}{j}": [i, j] for i in range(3) for j in range(3)}})


L2_SPACES = {
    "spiral 4": lambda: fl.gen_planar_spiral(F(1, 2), 4, seed=0),
    "spiral 6": lambda: fl.gen_planar_spiral(F(1, 2), 6, seed=0),
    "spiral 8": lambda: fl.gen_planar_spiral(F(1, 2), 8, seed=0),
    "l2 8": lambda: fl.gen_l2_nonholder(None, None, 8),
    "l2 16": lambda: fl.gen_l2_nonholder(None, None, 16),  # sixteen dimensions
    "grid": grid_cloud,
}


@pytest.mark.parametrize("name", L2_SPACES)
def test_l2_filter_on_the_families_and_a_grid(name):
    assert_filter_is_exact(L2_SPACES[name]())


# The exact collinearity tests that classify_all runs. Before the filter
# it ran one for every third point of every pair: 360, 1,092, 2,448 and
# 252 on the families, 4,152 in all, and 252 on the grid. Now only points
# whose float excess is within the rounding bound get one.
COLLINEAR_LEDGER = {"spiral 4": 0, "spiral 6": 0, "spiral 8": 0, "l2 8": 0, "grid": 8}


def test_collinearity_ledger(monkeypatch):
    spaces = {name: L2_SPACES[name]() for name in COLLINEAR_LEDGER}
    calls = count_calls(monkeypatch, fl.space, "_l2_collinear")
    counts = {}
    for name, space in spaces.items():
        calls[0] = 0
        fl.classify_all(space)
        counts[name] = calls[0]
    assert counts == COLLINEAR_LEDGER


def test_a_classified_l2_cloud_pickles():
    # classify_all caches the l2 filter, a nested function, on the space;
    # pickling dropped nothing and failed. A space compares by identity,
    # so the copy is compared by repr and by what it classifies.
    space = fl.gen_planar_spiral(F(1, 2), 4, seed=0)
    report = fl.classify_all(space)
    assert space._l2_between_for is not None
    copied = pickle.loads(pickle.dumps(space))
    assert "_l2_between_for" not in vars(copied)
    assert repr(copied) == repr(space)
    assert fl.classify_all(copied) == report == fl.classify_all(space)
    assert copied._l2_between_for is not None


def test_c0_family():
    space = fl.gen_c0_counterexample(8)
    assert_kernel_matches(space)
    assert_kernel_matches(space, custom_grid(space))


def _raised(fn, *args):
    try:
        fn(*args)
    except SpaceError as exc:
        return type(exc)
    return None


def test_errors_match_references():
    # SamePoint before UnknownLabel only when both labels exist; the grid
    # is checked (BadGrid) after the pair
    pairs = (("a", "a"), ("a", "zz"), ("zz", "a"), ("zz", "zz"), ("yy", "zz"), (0, 3), ("a", "b"))
    for fn, ref in (
        (fl.strict_middles, brute_force_strict_middles),
        (fl.metric_segment, brute_force_metric_segment),
        (fl.min_excess_ratio, brute_force_min_excess_ratio),
    ):
        for pair in pairs[:-1]:
            assert _raised(fn, CHAIN, *pair) == _raised(ref, CHAIN, *pair) is not None
    for fn, ref in (
        (fl.concavity_modulus, brute_force_modulus),
        (fl.classify_pair, brute_force_classify_pair),
    ):
        for pair in pairs:
            for grid in ([], [0], [F(1, 2), -1]):
                got = _raised(fn, CHAIN, *pair, iter(grid))
                assert got == _raised(ref, CHAIN, *pair, grid) is not None
    for triple in (("c", "a", "a"), ("zz", "a", "b"), ("c", "a", "zz"), ("zz", "a", "a")):
        assert _raised(CHAIN.is_between, *triple) == _raised(
            brute_force_is_between, CHAIN, *triple
        ) is not None


# -- the lazy report and the CLI's printing from the scans ----------------


def eager_report(space):
    """The report built record by record from the per-pair functions."""
    pairs = [(p, q) for p in range(space.n) for q in range(p + 1, space.n)]
    triples = fl.aligned_triples(space)
    return fl.ConcavityReport(
        pair_verdicts=tuple(fl.classify_pair(space, p, q) for p, q in pairs),
        is_concave=not triples,
        violating_triples=triples,
    )


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("build", [exact_midpoints, float_midpoints, l2_cloud])
def test_lazy_report_behaves_as_the_eager_one(build, seed):
    space = build(random.Random(seed), 7)
    eager = eager_report(space)

    def lazy():
        return fl.classify_all(space)

    assert lazy() == eager and eager == lazy()
    assert repr(lazy()) == repr(eager)
    assert hash(lazy()) == hash(eager)
    assert dataclasses.asdict(lazy()) == dataclasses.asdict(eager)
    assert dataclasses.replace(lazy()) == eager
    assert dataclasses.replace(lazy(), is_concave=None) == dataclasses.replace(eager, is_concave=None)
    assert copy.copy(lazy()) == eager
    assert copy.deepcopy(lazy()) == eager
    assert pickle.loads(pickle.dumps(lazy())) == eager
    report = lazy()
    assert report.pair_verdicts is report.pair_verdicts
    assert pickle.loads(pickle.dumps(report)) == eager
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.pair_verdicts = ()
    with pytest.raises(AttributeError):
        report.no_such_field


def verdict_entry(v):
    """A public verdict as classify --json prints a pair, formatted here."""
    return {
        "p": v.pair[0],
        "q": v.pair[1],
        "extreme": v.is_extreme,
        "witness": v.witness_middle,
        "min_ratio": number_to_json(v.min_ratio),
        "modulus": [[number_to_json(e.eps), number_to_json(e.delta)] for e in v.modulus.entries],
        "notes": list(v.notes),
    }


def as_text(obj):
    return json.dumps(obj, sort_keys=True)


def classify_pairs(capsys, *argv):
    assert cli.main(["classify", *argv, "--json"]) == 0
    return json.loads(capsys.readouterr().out)["payload"]["pairs"]


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("build", BUILDERS)
def test_cli_pairs_equal_the_formatted_public_verdicts(build, seed, tmp_path, capsys):
    path = tmp_path / "space.json"
    path.write_text(json.dumps(formats.space_to_dict(build(random.Random(seed), 6))))
    space = fl.load_space(str(path))  # what the CLI reads, float rounding included
    got = classify_pairs(capsys, str(path))
    want = [verdict_entry(v) for v in eager_report(space).pair_verdicts]
    # compared as text, in which 1 and 1.0 differ
    assert as_text(got) == as_text(want)
    for p, q in permutations(space.labels, 2):
        (got,) = classify_pairs(capsys, str(path), "--pair", p, q)
        assert as_text(got) == as_text(verdict_entry(fl.classify_pair(space, p, q)))


@st.composite
def relabelled_spaces(draw):
    """A space of 2 to 7 points under labels drawn from all of text: below
    4 points a random exact metric or its float rounding, else one of
    the BUILDERS."""
    n = draw(st.integers(2, 7))
    rng = random.Random(draw(st.integers(0, 10**6)))
    if n < 4:
        matrix = random_exact_matrix(rng, n, WIDE)
        space = draw(st.sampled_from((
            fl.validate(matrix, labels_for(n)),
            fl.validate([[float(v) for v in row] for row in matrix], labels_for(n), mode="float"),
        )))
    else:
        space = draw(st.sampled_from(BUILDERS))(rng, n)
    labels = draw(st.lists(st.text(), min_size=n, max_size=n, unique=True))
    coords = None if space.coords is None else dict(zip(labels, space.coords))
    return fl.validate(
        space.dist, labels, mode=space.mode, rel_tol=space.rel_tol,
        coords=coords, coord_norm=space.coord_norm,
    )


# two points: the ratio and every delta print as "inf"
TWO_POINTS = [[0, 3], [3, 0]], ['"\\\x00é', "\u2028"]


@example(fl.validate(*TWO_POINTS))
@example(fl.validate(*TWO_POINTS, mode="float"))
@settings(max_examples=100, deadline=None)
@given(relabelled_spaces())
def test_rendered_pairs_equal_the_stdlib_dump_of_the_verdicts(space):
    # pairs sits where the envelope puts it: in payload, in the envelope
    entries = [verdict_entry(v) for v in eager_report(space).pair_verdicts]
    rendered = formats._Rendered(functools.partial(cli._put_pairs, _scan_pairs(space)))
    got = formats.dumps_pretty({"payload": {"pairs": rendered, "space_digest": "d"}, "tool": "t"})
    want = json.dumps({"payload": {"pairs": entries, "space_digest": "d"}, "tool": "t"},
                      sort_keys=True, indent=2)
    assert got == want
