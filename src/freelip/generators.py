"""Finite truncations of the reference example families.

Three families recur throughout the test surface of this package:

* a planar double spiral around a unit pair (p, q): points p_n -> p and
  q_n -> q in balls of radius lambda**(2n) at p + lambda**n (q-p) and its
  mirror, with exact rational coordinates; a candidate is drawn again if it
  meets a placed point or sees two at one exact slope, so no triple is
  aligned at any depth while the excess ratios decay;
* a sup-norm family {e, p, q_n} whose excesses are exactly 2/n: no point
  ever lies between p and e, yet the concavity modulus collapses as the
  truncation deepens (the finite shadow of a non-compact counterexample);
* a Euclidean family {0, e1, r_n} that is concave but, by construction,
  cannot be a snowflake of any metric: its distances violate the triangle
  inequality after being raised to a power 1/alpha > some lambda_n; its
  defining inequality is certified on integers, rounded up at every step.

All generators are deterministic in (parameters, seed), nest across
depths (the depth-N space is a prefix of the depth-M one for N < M), and
emit spaces that pass validation. The spiral and Euclidean families build
their spaces with ``space.from_points``, as the point-cloud reader does.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from .space import FiniteMetricSpace, SpaceError, from_points, validate
from .space import holder_transform  # noqa: F401  perfbench/tracing.py wraps it here
from .classify import BadDepth, UnknownFamily, _family_depths

REJECTION_BUDGET = 1000
L2_MARGIN = Fraction(1, 2**40)
_B_BITS = 64  # each b_n is a multiple of 2**-_B_BITS
_SEED_BRACKET = 16  # units of 2**-_B_BITS on each side of the float seed
_FIXED = 256  # fractional bits of the l2 certificate's fixed point
_EXP_BITS = 128  # bits kept of a non-dyadic exponent
# the l2 certificate: the fixed-point bound must stay below this
_L2_CAP = math.ceil((1 - L2_MARGIN) * (1 << _FIXED))


class BadLambda(SpaceError):
    pass


class BadSequences(SpaceError):
    pass


class ConstraintUnsatisfiable(SpaceError):
    pass


class RejectionBudgetExceeded(SpaceError):
    pass


@dataclass(frozen=True)
class FamilySpec:
    """A named generator family with parameters; generate(depth) yields
    the finite truncation and probe_label(p, q, n) names the n-th probe
    point of the ordered anchor pair (p, q), or None when that side of
    the family is empty."""

    family: str
    params: Mapping = field(default_factory=dict)

    def generate(self, depth: int) -> FiniteMetricSpace:
        return self._entry()[0](self.params, depth)

    def probe_label(self, p: str, q: str, n: int) -> str | None:
        return self._entry()[1](self.params, p, q, n)

    def _entry(self):
        try:
            return _FAMILIES[self.family]
        except KeyError:
            raise UnknownFamily(f"unknown family id {self.family!r}") from None


# -- planar spiral ------------------------------------------------------

# In-ball sampling window, as fractions of the ball radius lambda**(2n):
# the offset perpendicular to the pq axis sits in a thin annulus and the
# tangential offset stays small. Any choice inside the open ball would be
# admissible; pinning the geometry keeps the excess ratios of different
# depths comparable, so decay factors across depths reflect lambda alone
# rather than sampling luck.
_PERP_LO = Fraction(70, 100)
_PERP_SPAN = Fraction(5, 1000)
_TANG_MAX = Fraction(2, 100)
_GRID = 2**20


def _aligned_with(c, pts) -> bool:
    """Whether c coincides with one of the points or sees two of them at
    one slope: c is collinear with two. All points are integer pairs (the
    spiral's points scaled to one grid), and a slope is the reduced pair
    (dy, dx) with dx > 0, or None for a vertical line."""
    cx, cy = c
    slopes = set()
    for x, y in pts:
        dx, dy = x - cx, y - cy
        if dx:
            g = math.gcd(dx, dy) if dx > 0 else -math.gcd(dx, dy)
            slope = (dy // g, dx // g)
        elif dy:
            slope = None
        else:
            return True
        if slope in slopes:
            return True
        slopes.add(slope)
    return False


def _spiral_points(lam: Fraction, depth: int, seed, one_sided: bool):
    if not 0 < lam < 1:
        raise BadLambda("lambda must be a rational strictly between 0 and 1")
    if depth < 1:
        raise BadDepth("depth must be at least 1")
    rng = random.Random(seed)
    p = (Fraction(0), Fraction(0))
    q = (Fraction(1), Fraction(0))
    pts: dict[str, tuple[Fraction, Fraction]] = {"p": p, "q": q}
    # Every coordinate is a multiple of 1/unit: centres lie over Q^n and
    # radii over Q^2n (Q the denominator of lambda, n <= depth), offsets
    # over 50 * _GRID and 200 * _GRID. The alignment test runs on the
    # integer images.
    unit = lam.denominator ** (2 * depth) * 1000 * _GRID
    grid = [(0, 0), (unit, 0)]

    def sample(center_x: Fraction, radius: Fraction) -> tuple[Fraction, Fraction]:
        for _ in range(REJECTION_BUDGET):
            gamma = _PERP_LO + _PERP_SPAN * Fraction(rng.randrange(_GRID), _GRID)
            s = _TANG_MAX * Fraction(rng.randrange(-_GRID, _GRID + 1), _GRID)
            sign = 1 if rng.random() < 0.5 else -1
            cand = (center_x + s * radius, sign * gamma * radius)
            image = tuple(v.numerator * (unit // v.denominator) for v in cand)
            if not _aligned_with(image, grid):
                grid.append(image)
                return cand
        raise RejectionBudgetExceeded(
            "could not place a non-collinear point; try another seed"
        )

    for n in range(1, depth + 1):
        radius = lam ** (2 * n)
        if not one_sided:
            pts[f"p{n}"] = sample(lam**n, radius)
        pts[f"q{n}"] = sample(1 - lam**n, radius)
    return pts


def _spiral_space(family: str, lam, depth: int, seed, one_sided: bool) -> FiniteMetricSpace:
    """The spiral truncation as a space based at p, with its provenance."""
    lam = Fraction(lam)
    pts = _spiral_points(lam, depth, seed, one_sided)
    meta = {"family": family, "lambda": str(lam), "seed": seed}
    return from_points(pts, base="p", meta=meta)


def gen_planar_spiral(lam, depth: int, seed=0) -> FiniteMetricSpace:
    """Both accumulating sequences; labels p, q, p1, q1, ..., pN, qN."""
    return _spiral_space("planar_spiral", lam, depth, seed, one_sided=False)


def gen_planar_spiral_one_sided(lam, depth: int, seed=0) -> FiniteMetricSpace:
    """Only the q-side sequence; p is an isolated endpoint."""
    return _spiral_space("planar_spiral_one_sided", lam, depth, seed, one_sided=True)


# -- sup-norm counterexample family -------------------------------------


def gen_c0_counterexample(depth: int) -> FiniteMetricSpace:
    """Points e, p and q_n for 2 <= n <= depth with sup-norm distances.

    Closed forms (q_n has a unit first coordinate and a lone 1 + 1/n
    coordinate in direction n): d(e,p) = 2, d(q_n,e) = d(q_n,p) = 1 + 1/n,
    and d(q_n,q_m) = 1 + 1/min(n,m). Exact mode.
    """
    if depth < 2:
        raise BadDepth("depth must be at least 2")
    labels = ["e", "p"] + [f"q{n}" for n in range(2, depth + 1)]
    zero, two = Fraction(0), Fraction(2)
    gap = [1 + Fraction(1, n) for n in range(2, depth + 1)]
    # row q_n: d(q_n, q_m) = 1 + 1/min(n, m), the gap of m below n and of n above
    matrix = [[zero, two] + gap, [two, zero] + gap] + [
        [g, g] + gap[:i] + [zero] + [g] * (len(gap) - i - 1) for i, g in enumerate(gap)
    ]
    return validate(
        matrix,
        labels,
        base="e",
        mode="exact",
        meta={"family": "c0_counterexample", "depth": depth},
    )


# -- Euclidean concave non-snowflake family ------------------------------


def _exponent_digits(e: Fraction, below_one: bool) -> tuple[int, int, int]:
    """The exponent e as (whole, numerator, bits): e = whole + numerator / 2**bits.

    A non-dyadic e is first cut to _EXP_BITS bits in the direction that
    can only raise x**e: down for a base x below 1, up from x = 1.
    """
    if e.denominator & (e.denominator - 1):
        cut = e * (1 << _EXP_BITS)
        e = Fraction(math.floor(cut) if below_one else math.ceil(cut), 1 << _EXP_BITS)
    whole, frac = divmod(e, 1)
    return whole, frac.numerator, frac.denominator.bit_length() - 1


def _power_bound_int(num: int, den: int, digits: tuple[int, int, int]) -> int:
    """An integer U with (num/den)**e <= U / 2**_FIXED, e given by its digits.

    num/den is rounded up to fixed point. Then x**e is x**whole times the
    nested integer square roots x**(2**-i) for the set bits i of the
    fraction (Brent and Zimmermann, Modern Computer Arithmetic, 2010,
    section 1.5), every step rounded up, so U never falls as num/den grows.
    """
    whole, numerator, bits = digits
    one = 1 << _FIXED
    s = -(-num * one // den)
    u = one
    for _ in range(whole):
        u = -(-u * s >> _FIXED)
    for i in range(bits - 1, -1, -1):
        s = 1 + math.isqrt((s << _FIXED) - 1)
        if numerator >> i & 1:
            u = -(-u * s >> _FIXED)
    return u


def _power_bound(x: Fraction, e: Fraction) -> int:
    """An integer U with x**e <= U / 2**_FIXED, for rational x > 0 and e > 0."""
    return _power_bound_int(x.numerator, x.denominator, _exponent_digits(e, x < 1))


def _power_sum_bound(a: Fraction, lam: Fraction, b: Fraction) -> int:
    """An integer U with (a^2+b^2)^(lam/2) + ((1-a)^2+b^2)^(lam/2) <= U / 2**_FIXED."""
    return _power_bound(a**2 + b**2, lam / 2) + _power_bound((1 - a) ** 2 + b**2, lam / 2)


def _float_seed(a: Fraction, lam: Fraction) -> float:
    """The float root b in [0, 1] of
    (a^2+b^2)^(lam/2) + ((1-a)^2+b^2)^(lam/2) = 1 - L2_MARGIN, by bisection.

    The second power is written 1 + expm1(lam/2 * log1p(-2a + a^2 + b^2)),
    so that its digits next to 1 survive. May raise OverflowError or
    ValueError (a huge exponent, a rounded to 1).
    """
    af, half, margin = float(a), float(lam) / 2, float(L2_MARGIN)
    lo, hi = 0.0, 1.0
    for _ in range(_B_BITS):
        mid = (lo + hi) / 2
        sq = af * af + mid * mid
        if sq**half + math.expm1(half * math.log1p(sq - 2 * af)) + margin < 0:
            lo = mid
        else:
            hi = mid
    return lo


def _admissible_b(a: Fraction, lam: Fraction) -> int:
    """The largest k < 2**_B_BITS for which b = k / 2**_B_BITS passes the
    cap test of gen_l2_nonholder, or 0 when no k >= 1 does. The bases are
    a^2 + b^2 and (1-a)^2 + b^2 over the common denominator den."""
    top = 1 << _B_BITS
    digits = {below: _exponent_digits(lam / 2, below) for below in (False, True)}
    a_den2 = a.denominator**2
    den = a_den2 << 2 * _B_BITS
    near = a.numerator**2 << 2 * _B_BITS
    far = (a.denominator - a.numerator) ** 2 << 2 * _B_BITS

    def passes(k: int) -> bool:
        if k <= 0 or k >= top:
            return k <= 0
        x, y = near + k * k * a_den2, far + k * k * a_den2
        bound_x = _power_bound_int(x, den, digits[x < den])
        return bound_x + _power_bound_int(y, den, digits[y < den]) < _L2_CAP

    try:
        seed = round(_float_seed(a, lam) * top)
    except (OverflowError, ValueError):
        seed = top // 2

    def edge(sign: int, verdict: bool) -> int:
        width = _SEED_BRACKET
        while passes(seed + sign * width) != verdict:
            width <<= 8
        return min(max(seed + sign * width, 0), top)

    lo, hi = edge(-1, True), edge(1, False)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if passes(mid):
            lo = mid
        else:
            hi = mid
    return lo


def gen_l2_nonholder(
    a_seq: Sequence | None, lam_seq: Sequence | None, depth: int
) -> FiniteMetricSpace:
    """Points 0, e1 and r_n = a_n e1 + b_n e_n for 2 <= n <= depth.

    Defaults: a_n = 2^-n and lambda_n = 1 + 2^-n. Each b_n is the largest
    multiple of 2^-64 below 1 whose defining constraint
    (a_n^2+b_n^2)^(lam_n/2) + ((1-a_n)^2+b_n^2)^(lam_n/2) < 1 holds with
    margin at least 2^-40 under an integer upper bound on the left side
    (256-bit fixed point, rounded up at every step), so each b_n is
    certified by construction; the margins under that bound land in the
    space metadata. Distances are Euclidean floats, while the retained
    rational coordinates make alignment tests exact.

    The cap test asks whether that bound stays below 1 - 2^-40. The
    search for b_n starts from the float root of the constraint: it
    brackets that seed by 16 units of 2^-64 on each side, widens each end
    256-fold until the end below passes the cap test and the end above
    fails it (0 counts as passing, 1 as failing), and bisects inside. The
    bound never falls as b grows: every step rounds up, and a non-dyadic
    exponent is cut so that the bound stays at most 1 for a base below 1
    and at least 1 from 1 up. So the test passes up to one b and fails
    after it, and any bracket ends on the b that a blind 64-step bisection
    of [0, 1] finds; the seed decides only how soon.
    """
    if depth < 2:
        raise BadDepth("depth must be at least 2")
    ns = list(range(2, depth + 1))

    def listed(name: str, seq: Sequence) -> dict[int, Fraction]:
        values = list(seq)
        if len(values) != len(ns):
            raise BadSequences(
                f"{name} needs {len(ns)} values for depth {depth}, got {len(values)}"
            )
        return {n: Fraction(v) for n, v in zip(ns, values)}

    a = {n: Fraction(1, 2**n) for n in ns} if a_seq is None else listed("a_seq", a_seq)
    lam = {n: 1 + Fraction(1, 2**n) for n in ns} if lam_seq is None else listed("lam_seq", lam_seq)
    for n in ns:
        if not 0 < a[n] < 1:
            raise BadSequences("a_n must lie strictly between 0 and 1")
        if lam[n] <= 1:
            raise BadSequences("lambda_n must exceed 1")
    for n, m in zip(ns, ns[1:]):
        if not a[m] < a[n]:
            raise BadSequences("a_n must be strictly decreasing")
        if not lam[m] < lam[n]:
            raise BadSequences("lambda_n must be strictly decreasing")

    one = 1 << _FIXED
    b: dict[int, Fraction] = {}
    margins: dict[str, float] = {}
    for n in ns:
        k = _admissible_b(a[n], lam[n])
        if k == 0:
            raise ConstraintUnsatisfiable(
                f"no admissible b at n={n}; the margin bound cannot be met"
            )
        b[n] = Fraction(k, 1 << _B_BITS)
        total = _power_sum_bound(a[n], lam[n], b[n])
        if not total < _L2_CAP:
            raise ConstraintUnsatisfiable(f"post-hoc recheck failed at n={n}")
        margins[f"r{n}"] = (one - total) / one

    zero = (Fraction(0),) * depth
    pts = {"0": zero, "e1": (Fraction(1),) + zero[1:]}
    for n in ns:
        pts[f"r{n}"] = (a[n],) + zero[1 : n - 1] + (b[n],) + zero[n:]
    meta = {
        "family": "l2_nonholder",
        "depth": depth,
        "margins": margins,
        "lambda_seq": {n: str(lam[n]) for n in ns},
        "a_seq": {n: str(a[n]) for n in ns},
        "b_seq": {n: str(b[n]) for n in ns},
    }
    return from_points(pts, base="0", meta=meta)


# -- family table ------------------------------------------------------


def _spiral(gen):
    return lambda params, depth: gen(params["lam"], depth, params.get("seed", 0))


def _probe(anchor: tuple[str, str], shown: str, forward: str, backward: str | None):
    """Probe labels along an anchor pair: ``forward`` formatted with n for
    the pair in its own order, ``backward`` for the reversed pair."""

    def probe(params, p, q, n):
        if (p, q) == anchor:
            return forward.format(n)
        if (q, p) == anchor:
            return backward and backward.format(n)
        raise UnknownFamily(f"anchor pair must be {shown}, got {(p, q)!r}")

    return probe


# family id -> (generate(params, depth), probe_label(params, p, q, n))
_FAMILIES = {
    "planar_spiral": (
        _spiral(gen_planar_spiral),
        _probe(("p", "q"), "('p','q')", "q{}", "p{}"),
    ),
    "planar_spiral_one_sided": (
        _spiral(gen_planar_spiral_one_sided),
        _probe(("p", "q"), "('p','q')", "q{}", None),
    ),
    "c0_counterexample": (
        lambda params, depth: gen_c0_counterexample(depth),
        _probe(("p", "e"), "{'p','e'}", "q{}", "q{}"),
    ),
    "l2_nonholder": (
        lambda params, depth: gen_l2_nonholder(
            params.get("a_seq"), params.get("lam_seq"), depth
        ),
        _probe(("0", "e1"), "{'0','e1'}", "r{}", "r{}"),
    ),
}


def family_at_depths(spec: FamilySpec, depths: Sequence[int]) -> list[FiniteMetricSpace]:
    """Generate the family at each depth; depths must be increasing.

    The same seed drives every depth, so the shallower spaces are exact
    prefixes (labels and distance sub-matrix) of the deeper ones.
    """
    return [spec.generate(d) for d in _family_depths(spec, depths)]
