"""Extremal classification of molecules over finite metric spaces.

A molecule u_pq is the normalized difference of the evaluation
functionals of two distinct points. On a finite (hence compact) space,
u_pq is an extreme point of the free-space unit ball exactly when no
third point lies strictly between p and q, and extreme and preserved
extreme coincide; a space is concave when that holds for every pair.
The strongly-exposed question is governed by the minimum of
excess(r;p,q) / min(d(p,r), d(q,r)) over third points r: the pair fails
to be strongly exposed exactly when that quantity can be made
arbitrarily small, which on a single finite space collapses to it being
zero.

Limit behavior of infinite families (does the minimum decay to zero as
truncations deepen?) is not decidable from finite data; the diagnostics
here report the decay trend across a depth schedule and flag it against
an explicit threshold. Flags are heuristics, not theorems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .space import (
    FiniteMetricSpace,
    ModulusTable,
    _PairScan,
    _aligned,
    _scan_pairs,
    aligned_triples,  # noqa: F401  re-exported; callers reach it through this module
    concavity_modulus,  # noqa: F401  re-exported, as above
    strict_middles,  # noqa: F401  re-exported, as above
)

DEFAULT_DEPTHS = (4, 8, 16, 32)
DEFAULT_DECAY_THRESHOLD = 0.1


class UnknownFamily(Exception):
    """Raised when an operation needs a generator-backed family and gets
    something else, or the family does not carry the requested points."""


@dataclass(frozen=True)
class PairVerdict:
    """Classification record for an ordered pair of distinct points."""

    pair: tuple[str, str]
    is_extreme: bool
    witness_middle: str | None
    min_ratio: Union[Fraction, float]  # inf when no third point exists
    modulus: ModulusTable
    notes: tuple[str, ...]


@dataclass(frozen=True)
class PropertyZResult:
    holds_at_eps: bool
    witness: str | None
    min_ratio: Union[Fraction, float]


@dataclass(frozen=True)
class ConcavityReport:
    """The verdict of every pair, and whether the space is concave.

    A report from :func:`classify_all` keeps its kernel scans in the
    instance ``__dict__``, outside the fields, and builds
    ``pair_verdicts`` from them the first time it is read. Equality,
    repr, hash, ``asdict``, ``replace``, copies and pickles read the field
    as any other, so a lazy report behaves as one built eagerly.
    """

    pair_verdicts: tuple[PairVerdict, ...]
    is_concave: bool
    violating_triples: tuple[tuple[str, str, str], ...]

    def __getattr__(self, name):
        # reached only for a name missing from the instance dict
        state = self.__dict__
        scans = state.get("_scans") if name == "pair_verdicts" else None
        if scans is None:
            if name in state:  # built meanwhile by another thread
                return state[name]
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        verdicts = state.setdefault(name, tuple(_verdict(s) for s in scans))
        state.pop("_scans", None)
        return verdicts


@dataclass(frozen=True)
class DepthRecord:
    depth: int
    min_ratio: Union[Fraction, float]
    strongly_exposed: bool


@dataclass(frozen=True)
class ExposureTrend:
    pair: tuple[str, str]
    records: tuple[DepthRecord, ...]
    limit_property_z_flag: bool
    threshold: float


@dataclass(frozen=True)
class SequenceRecord:
    n: int
    excess: float
    ratio: float  # excess over the distance from the probe to the second point


@dataclass(frozen=True)
class SequenceDiagnostics:
    pair: tuple[str, str]
    records: tuple[SequenceRecord, ...]
    monotone_decreasing: bool
    decay_factor: float | None  # last ratio / first ratio
    flag: bool
    threshold: float


def min_excess_ratio(
    space: FiniteMetricSpace, p: Union[int, str], q: Union[int, str]
) -> tuple[Union[Fraction, float], str | None]:
    """min over r of excess(r;p,q) / min(d(p,r), d(q,r)), with witness.

    Returns (inf, None) when the space has no third point. The minimum is
    zero exactly when some point lies strictly between p and q, and it is
    the exact threshold below which the eps-form of property (Z) fails.
    """
    pi, qi = space.pair(p, q)
    (scan,) = _scan_pairs(space, pairs=[(pi, qi)])
    witness = scan.ratio_witness
    return scan.min_ratio, None if witness is None else space.labels[witness]


def classify_pair(
    space: FiniteMetricSpace,
    p: Union[int, str],
    q: Union[int, str],
    eps_grid=None,
) -> PairVerdict:
    """Decide whether the molecule of (p,q) is an extreme point.

    On a finite space this is equivalent to the absence of a strict
    middle point, and extreme, preserved extreme, and the uniform-excess
    condition all coincide. The verdict carries the lexicographically
    first middle point when one exists, the modulus table over eps_grid
    (default: quarter, half, and full pair distance), and the exact
    minimum excess ratio that underlies the strongly-exposed question.
    """
    pi, qi = space.pair(p, q)
    (scan,) = _scan_pairs(space, eps_grid, [(pi, qi)])
    return _verdict(scan)


_EXTREME_NOTES = (
    "no point lies strictly between the endpoints: extreme",
    "finite space: extreme and preserved extreme coincide",
)


def _notes(witness: str | None) -> tuple[str, ...]:
    """The notes of a verdict whose first strict middle is witness."""
    if witness is None:
        return _EXTREME_NOTES
    return (
        f"point {witness!r} lies strictly between the endpoints: "
        "the molecule is a proper convex combination, not extreme",
    )


def _verdict(scan: _PairScan) -> PairVerdict:
    labels = scan.labels
    witness = labels[scan.middles[0]] if scan.middles else None
    return PairVerdict(
        pair=(labels[scan.p], labels[scan.q]),
        is_extreme=witness is None,
        witness_middle=witness,
        min_ratio=scan.min_ratio,
        modulus=scan.modulus,
        notes=_notes(witness),
    )


def classify_all(space: FiniteMetricSpace, eps_grid=None) -> ConcavityReport:
    """Verdicts for every unordered pair, plus the concavity verdict.

    Pairs are deduplicated by the antisymmetry u_qp = -u_pq and reported
    in lexicographic index order. One scan of the excess over all
    (p, q, r) yields every verdict, equal to what :func:`classify_pair`
    gives for the pair, and the aligned triples. The scan runs here; the
    verdict records are built from it when ``pair_verdicts`` is first
    read (see :class:`ConcavityReport`).
    """
    scans = _scan_pairs(space, eps_grid)
    triples = _aligned(space, scans)
    report = object.__new__(ConcavityReport)
    report.__dict__.update(is_concave=not triples, violating_triples=triples, _scans=scans)
    return report


def _report_scans(report: ConcavityReport) -> list[_PairScan]:
    """The kernel scans of a report from :func:`classify_all` whose
    verdicts have not been read."""
    return report.__dict__["_scans"]


def property_z(
    space: FiniteMetricSpace,
    p: Union[int, str],
    q: Union[int, str],
    eps,
) -> PropertyZResult:
    """Does some third point r satisfy excess(r;p,q) <= eps * min(d(p,r), d(q,r))?

    Returns the verdict at this eps together with the exact threshold
    min_ratio below which the answer flips to no. On a finite space the
    full property (every eps > 0 admits such an r) holds exactly when
    min_ratio is zero, i.e. when a strict middle point exists.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    ratio, witness = min_excess_ratio(space, p, q)
    holds = ratio <= eps
    return PropertyZResult(
        holds_at_eps=holds,
        witness=witness if holds else None,
        min_ratio=ratio,
    )


def _require_family(family) -> None:
    if not hasattr(family, "generate") or not hasattr(family, "probe_label"):
        raise UnknownFamily(f"not a generator-backed family: {family!r}")


def _generate_pair(family, p: str, q: str, depth: int):
    """The family's space at depth with the indices of p and q;
    UnknownFamily when it lacks either point."""
    sp = family.generate(depth)
    try:
        return sp, sp.index(p), sp.index(q)
    except Exception as exc:
        raise UnknownFamily(
            f"family does not carry points {p!r},{q!r} at depth {depth}"
        ) from exc


def strongly_exposed_verdict(
    family,
    p: str,
    q: str,
    depths: Sequence[int] = DEFAULT_DEPTHS,
    decay_threshold: float = DEFAULT_DECAY_THRESHOLD,
) -> ExposureTrend:
    """Per-depth strongly-exposed verdicts with a limit-trend flag.

    At each truncation depth the pair is strongly exposed iff its minimum
    excess ratio is positive. The flag marks a decreasing trend (deepest
    value below threshold times the shallowest): the finite-scale shadow
    of losing strong exposure in the limit. A flag is a diagnostic, never
    a proof.
    """
    _require_family(family)
    records = []
    for depth in depths:
        sp, pi, qi = _generate_pair(family, p, q, depth)
        ratio, _ = min_excess_ratio(sp, pi, qi)
        records.append(
            DepthRecord(depth=depth, min_ratio=ratio, strongly_exposed=ratio > 0)
        )
    flag = False
    if len(records) >= 2:
        first, last = records[0].min_ratio, records[-1].min_ratio
        if first not in (0, math.inf) and last != math.inf:
            flag = last < decay_threshold * first
    return ExposureTrend(
        pair=(p, q),
        records=tuple(records),
        limit_property_z_flag=flag,
        threshold=decay_threshold,
    )


def sequence_diagnostics(
    family,
    p: str,
    q: str,
    depths: Sequence[int] = DEFAULT_DEPTHS,
    decay_threshold: float = DEFAULT_DECAY_THRESHOLD,
) -> SequenceDiagnostics:
    """Tabulate excess(probe_n; p, q) / d(probe_n, q) along the family's
    probe sequence for the ordered pair (p, q).

    Decay of this ratio toward zero is the hypothesis under which the
    norm-attainment set of (p,q) acquires a point lying over q, so the
    flag marks candidate pairs whose molecules stay extreme at every
    finite depth yet cannot be strongly exposed in the limit.
    """
    _require_family(family)
    if depths:
        deepest, pi, qi = _generate_pair(family, p, q, max(depths))
    records = []
    for n in depths:
        probe = family.probe_label(p, q, n)
        if probe is None:
            continue
        ri = deepest.index(probe)
        exc_val = float(deepest.excess_raw(ri, pi, qi))
        denom = float(deepest.dist[ri][qi])
        records.append(SequenceRecord(n=n, excess=exc_val, ratio=exc_val / denom))
    ratios = [rec.ratio for rec in records]
    monotone = all(a > b for a, b in zip(ratios, ratios[1:])) and len(ratios) >= 2
    decay = ratios[-1] / ratios[0] if len(ratios) >= 2 and ratios[0] > 0 else None
    flag = decay is not None and decay < decay_threshold
    return SequenceDiagnostics(
        pair=(p, q),
        records=tuple(records),
        monotone_decreasing=monotone,
        decay_factor=decay,
        flag=flag,
        threshold=decay_threshold,
    )
