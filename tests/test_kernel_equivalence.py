"""The one-pass classifier kernel against the per-pair reference functions.

`classify_all` must return, for every pair, the same verdict as
`classify_pair` (same values, number types and witnesses), and
`aligned_triples` the same list as a brute-force scan of all triples.
"""

import random
from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

import freelip as fl
from freelip.space import _scan_pairs
from support import (
    brute_force_aligned_triples,
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


def assert_kernel_matches(space, eps_grid=None):
    report = fl.classify_all(space, eps_grid)
    reference = [
        fl.classify_pair(space, p, q, eps_grid)
        for p in range(space.n)
        for q in range(p + 1, space.n)
    ]
    assert report.pair_verdicts == tuple(reference)
    # repr tells Fraction from float and 0 from 0.0, which == does not
    assert repr(report.pair_verdicts) == repr(tuple(reference))
    triples = brute_force_aligned_triples(space)
    assert report.violating_triples == triples
    assert fl.aligned_triples(space) == triples
    assert report.is_concave == (not triples)


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
        ratio, witness = fl.min_excess_ratio(space, scan.p, scan.q)
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


def test_spiral_and_l2_family():
    assert_kernel_matches(fl.gen_planar_spiral(F(1, 2), 5, seed=3))
    assert_kernel_matches(fl.gen_l2_nonholder(None, None, 6))
