"""The one-pass classifier kernel against brute-force references.

`classify_all`, `aligned_triples` and the per-pair functions
(`strict_middles`, `metric_segment`, `min_excess_ratio`,
`concavity_modulus`, `classify_pair` and float `is_between`) all run on
the kernel `freelip.space._scan_pairs` or its betweenness rule. Each must
give what the point-by-point reference of the same name in `support`
gives, for both orientations of every pair: the same values, number types
and witnesses, and the same error for the same bad arguments.
"""

import random
from fractions import Fraction as F
from itertools import permutations

from hypothesis import given, settings, strategies as st

import freelip as fl
from freelip.space import SpaceError, _default_eps_grid, _scan_pairs
from support import (
    CHAIN,
    brute_force_aligned_triples,
    brute_force_classify_pair,
    brute_force_is_between,
    brute_force_metric_segment,
    brute_force_min_excess_ratio,
    brute_force_modulus,
    brute_force_strict_middles,
    closure,
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


def test_two_point_space():
    space = fl.validate([[0, F(3, 2)], [F(3, 2), 0]], ["e", "x"])
    assert_kernel_matches(space)
    assert_kernel_matches(space, [F(1, 2)])


def test_snowflake_recheck_band():
    # r sits 1e-9 from p on the segment pq. After the 3/4 snowflake its
    # excess is about 2e-7 of the scale: above the float tolerance but
    # inside the band where the high-precision recheck decides.
    t = F(1, 10**9)
    base = fl.validate([[0, 1, t], [1, 0, 1 - t], [t, 1 - t, 0]], ["p", "q", "r"])
    space = fl.holder_transform(base, F(3, 4))
    assert fl.space.RECHECK_REL_MARGIN * space.scale > space.excess_raw(2, 0, 1) > space.abs_tol
    assert_kernel_matches(space)
    assert fl.classify_all(space).is_concave


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
    pairs = (("a", "a"), ("a", "zz"), ("zz", "a"), ("zz", "zz"), (0, 3), ("a", "b"))
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
    for triple in (("c", "a", "a"), ("zz", "a", "b"), ("c", "a", "zz")):
        assert _raised(CHAIN.is_between, *triple) == _raised(
            brute_force_is_between, CHAIN, *triple
        ) is not None
