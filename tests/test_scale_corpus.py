"""The scale corpus: exact spaces of 33 to 121 points, past the vertex
oracle's 12, where every verdict of the classifier kernel meets two
deciders that share nothing with its loop.

* The integer two-hop check, on every pair: with the diagonal of the
  integer matrix D set above every sum of two entries, u_pq is extreme
  iff ``min(map(add, D[p], D[q])) > D[p][q]``.
* The Lipschitz side, on a seeded sample of pairs: u_pq is extreme iff
  its full attainment set is {(p,q),(q,p)}.

The random matrices are closed by shortest paths on integers (a closure
on Fractions takes seconds at these sizes); l2 clouds stay out, since
the integer matrix of a cloud is the rational reading of its float
distances, not its exact geometry.
"""

import math
import random
from operator import add

import pytest

import freelip as fl
from freelip.space import _scan_pairs


def _closed(m: list[list[int]]) -> list[list[int]]:
    """The shortest-path closure of a symmetric integer matrix, one row
    of the pivot k at a time."""
    m = [row[:] for row in m]
    for k in range(len(m)):
        via = m[k]
        for i, row in enumerate(m):
            m[i] = list(map(min, row, map(row[k].__add__, via)))
    return m


def _random_matrix(rng: random.Random, n: int) -> list[list[int]]:
    # multiples of 4, so a midpoint at a quarter of a distance is an integer
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            m[i][j] = m[j][i] = 4 * rng.randint(2, 24)
    return _closed(m)


def _with_midpoint(m: list[list[int]], rng: random.Random):
    """m with a point adjoined strictly between a random pair (i, j), its
    distances to the rest by the shortest-path extension through i and j,
    and that pair."""
    i, j = rng.sample(range(len(m)), 2)
    di = m[i][j] * rng.choice([1, 1, 2, 3]) // 4
    dj = m[i][j] - di
    new = [min(di + a, dj + b) for a, b in zip(m[i], m[j])]
    return [row + [v] for row, v in zip(m, new)] + [new + [0]], (i, j)


def _corpus():
    """(name, space, integer matrix, pairs that must be in the sample)."""
    rng = random.Random(20170)
    out = []
    for n in (40, 80, 120):
        m = _random_matrix(rng, n)
        out.append((f"random-{n}", m, []))
        with_mid, pair = _with_midpoint(m, rng)
        out.append((f"midpoint-{n + 1}", with_mid, [pair]))
    spaces = [
        (name, fl.validate(m, [f"x{i}" for i in range(len(m))]), m, must)
        for name, m, must in out
    ]
    c0 = fl.gen_c0_counterexample(32)
    unit = math.lcm(*(v.denominator for row in c0.dist for v in row))
    spaces.append(("c0-32", c0, [[int(v * unit) for v in row] for row in c0.dist], []))
    return spaces


CORPUS = _corpus()


@pytest.mark.parametrize("name, space, m, must", CORPUS, ids=[c[0] for c in CORPUS])
def test_kernel_two_hop_and_attainment_agree(name, space, m, must):
    n = len(m)
    d = [row[:] for row in m]
    above = 2 * max(map(max, d)) + 1
    for i in range(n):
        d[i][i] = above
    extreme = {}
    for scan in _scan_pairs(space):
        p, q = scan.p, scan.q
        extreme[p, q] = not scan.middles
        assert extreme[p, q] == (min(map(add, d[p], d[q])) > d[p][q]), (p, q)
    assert len(extreme) == n * (n - 1) // 2
    assert not any(extreme[min(p, q), max(p, q)] for p, q in must)
    # the sample: the injected pair, and two pairs of each verdict the space has
    rng = random.Random(n)
    sample = list(must)
    for verdict in (True, False):
        pairs = sorted(pair for pair, v in extreme.items() if v is verdict)
        sample += rng.sample(pairs, min(2, len(pairs)))
    for p, q in sample:
        if rng.random() < 0.5:
            p, q = q, p
        x, y = space.labels[p], space.labels[q]
        members = set(fl.attainment_set(space, x, y, intervals="full").members)
        assert (members == {(x, y), (y, x)}) == extreme[min(p, q), max(p, q)], (x, y)
