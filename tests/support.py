"""Shared test fixtures: random metric spaces with exact arithmetic.

Random matrices are repaired into metrics by shortest-path closure
(Floyd-Warshall), which preserves rationality and positivity. Aligned
triples are injected by adjoining a metric midpoint of an existing pair
through the one-point shortest-path extension, which keeps the triangle
inequality intact.
"""

from __future__ import annotations

import random
from fractions import Fraction

from freelip import validate


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


def brute_force_aligned_triples(space):
    """Reference scan: every triple of points, each of its three points
    tried as the middle, sorted by index."""
    out = []
    n = space.n
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                for mid, e1, e2 in ((i, j, k), (j, i, k), (k, i, j)):
                    if space.is_between(mid, e1, e2):
                        out.append((space.labels[mid], space.labels[e1], space.labels[e2]))
                        break
    out.sort(key=lambda t: tuple(space.index(x) for x in t))
    return tuple(out)
