"""Output checks for benchmark ops.

Every op's output is reduced to a payload digest: the CLI's JSON envelope
without its ``timestamp``, the canonical JSON of a library result, the
written file of ``generate``, or the exit code and stderr of a failed op.
Repeats of an op within a run must give the same digest, and on the
reference seed (and on every seed for ops that do not depend on it) the
digest must match ``reference.json``.

On top of that each kind of op is checked against facts computed here,
independently of freelip:

* exact classification against betweenness decided on integers (the
  matrix scaled by its common denominator), including witnesses, minimum
  excess ratios, the modulus table and the aligned triples;
* float classification against the same float formulas and tolerance;
* snowflakes and spirals, which have no aligned triples by construction;
* the LP oracle: agreement with the classifier, and each certificate
  (convex weights or separating functional) re-verified exactly;
* attainment sets: lazy and full agree, (p, q) and (q, p) are members, so
  are the halves (p, r), (r, q) through every middle point r, and every
  member interval is degenerate at +1 or -1;
* free norms: the witness is 1-Lipschitz and vanishes at the base, its
  pairing equals the norm, molecules have norm 1, and the norm lies
  between the lower bounds of distance functions and the upper bound of
  the triangle inequality.

A check never raises; it returns the list of problems it found.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from itertools import combinations

from workloads import KNOWN_FAILURES, Op


def canonical_digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def output_digest(rc, text: str, err: str) -> str:
    """Digest of what the user sees: the envelope minus its timestamp when
    the op printed one, else the exit code with both streams."""
    if rc == 0:
        try:
            doc = json.loads(text)
        except ValueError:
            doc = None
        if isinstance(doc, dict):
            doc.pop("timestamp", None)
            return canonical_digest(doc)
    return canonical_digest({"rc": rc, "stdout": text, "stderr": err})


def library_text(result) -> str:
    """Canonical text of a library result (free_norm with witness)."""
    value, witness = result
    return json.dumps(
        {"value": _fmt(value), "witness": {k: _fmt(v) for k, v in witness.items()}},
        sort_keys=True,
    )


def _fmt(v) -> str:
    v = Fraction(v)
    return f"{v.numerator}/{v.denominator}"


def _num(s):
    if s == "inf":
        return math.inf
    if isinstance(s, str):
        return Fraction(s)
    return s


def is_known_failure(op: Op, rc, err: str) -> bool:
    expected = KNOWN_FAILURES.get(op.key)
    return expected is not None and rc == expected[0] and err.startswith(expected[1])


def check(op: Op, rc, text: str, err: str, inputs: dict) -> list[str]:
    """Problems with one op's output; empty when it is correct."""
    try:
        if is_known_failure(op, rc, err):
            return []
        if rc != 0:
            return [f"exit {rc}: {err.strip()[:200]}"]
        if op.kind == "free-norm":
            return _check_free_norm(json.loads(text), op.data, inputs[op.data["input"]])
        if op.kind == "generate-holder":
            return _check_holder_file(json.loads(text), inputs[op.data["input"]])
        payload = json.loads(text)["payload"]
        if op.kind == "classify":
            return _check_classify(payload, inputs[op.data["input"]])
        if op.kind == "oracle":
            space = inputs[op.data["input"]]
            return _check_classify(payload, space) + _check_oracle(payload, space)
        if op.kind == "classify-concave":
            return _check_concave(payload, op.data["n"])
        if op.kind == "attainment":
            return _check_attainment(payload, op.data, inputs[op.data["input"]])
        if op.kind == "diagnose":
            return _check_diagnose(payload)
        return [f"no check for kind {op.kind!r}"]
    except Exception as exc:  # a malformed output is a failed op, never a crash
        return [f"check raised {type(exc).__name__}: {exc}"]


def check_pair(full_text: str, lazy_text: str) -> list[str]:
    """Cross-decider check: lazy and full attainment give the same members."""
    try:
        full = json.loads(full_text)["payload"]
        lazy = json.loads(lazy_text)["payload"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable attainment output: {exc}"]
    if full["members"] != lazy["members"]:
        return ["lazy and full attainment members differ"]
    for key, iv in lazy["intervals"].items():
        if full["intervals"].get(key) != iv:
            return [f"lazy interval {key} differs from full"]
    return []


# -- exact and float geometry, decided here ----------------------------------


class _Geometry:
    """Betweenness and excess for one generated space, decided on integers
    (the matrix scaled by its common denominator) in exact mode, and with
    freelip's float formula and tolerance otherwise."""

    def __init__(self, space: dict):
        self.labels = space["labels"]
        self.n = len(self.labels)
        m = space["matrix"]
        self.exact = space["mode"] == "exact"
        if self.exact:
            self.den = math.lcm(*(v.denominator for row in m for v in row))
            self.d = [[v.numerator * (self.den // v.denominator) for v in row] for row in m]
            self.tol = 0
        else:
            self.d = m
            self.tol = 1e-9 * max(v for row in m for v in row)

    def excess(self, r, p, q):
        d = self.d
        return d[r][p] + d[r][q] - d[p][q]

    def between(self, r, p, q) -> bool:
        return self.excess(r, p, q) <= self.tol

    def number(self, x, den=1):
        """Scaled distance units back to the payload's number form."""
        return Fraction(x, self.den * den) if self.exact else x / den


# The default modulus grid is a quarter, a half and all of d(p, q).
_EPS_QUARTERS = (1, 2, 4)


def _check_classify(payload: dict, space: dict) -> list[str]:
    g = _Geometry(space)
    labels, n, d = g.labels, g.n, g.d
    problems = []
    pairs = payload["pairs"]
    expected_pairs = list(combinations(range(n), 2))
    if len(pairs) != len(expected_pairs):
        return [f"{len(pairs)} pair verdicts for {len(expected_pairs)} pairs"]
    for row, (p, q) in zip(pairs, expected_pairs):
        name = f"({labels[p]},{labels[q]})"
        if (row["p"], row["q"]) != (labels[p], labels[q]):
            return [f"pair order: got {row['p']},{row['q']}"]
        others = [r for r in range(n) if r not in (p, q)]
        middles = [r for r in others if g.between(r, p, q)]
        if row["extreme"] != (not middles):
            problems.append(f"{name} extreme={row['extreme']}")
        witness = labels[middles[0]] if middles else None
        if row["witness"] != witness:
            problems.append(f"{name} witness {row['witness']} != {witness}")
        if middles:
            min_ratio = 0
        elif g.exact:  # smallest excess / min distance, by cross-multiplying
            num, den = None, 1
            for r in others:
                a, b = g.excess(r, p, q), min(d[r][p], d[r][q])
                if num is None or a * den < num * b:
                    num, den = a, b
            min_ratio = Fraction(num, den)
        else:
            min_ratio = min(g.excess(r, p, q) / min(d[r][p], d[r][q]) for r in others)
        if _num(row["min_ratio"]) != min_ratio:
            problems.append(f"{name} min_ratio {row['min_ratio']} != {min_ratio}")
        for (eps_s, delta_s), k in zip(row["modulus"], _EPS_QUARTERS):
            if g.exact:
                far = [r for r in range(n) if 4 * d[r][p] >= k * d[p][q] and 4 * d[r][q] >= k * d[p][q]]
                eps = g.number(k * d[p][q], 4)
            else:
                eps = d[p][q] if k == 4 else d[p][q] * (k / 4)
                far = [r for r in range(n) if d[r][p] >= eps and d[r][q] >= eps]
            delta = g.number(min(g.excess(r, p, q) for r in far)) if far else math.inf
            if _num(eps_s) != eps or _num(delta_s) != delta:
                problems.append(f"{name} modulus at eps={eps_s}")
        if len(problems) > 5:
            break
    triples = []
    for i, j, k in combinations(range(n), 3):
        for mid, e1, e2 in ((i, j, k), (j, i, k), (k, i, j)):
            if g.between(mid, e1, e2):
                triples.append([labels[mid], labels[e1], labels[e2]])
                break
    triples.sort(key=lambda t: [labels.index(x) for x in t])
    if payload["aligned_triples"] != triples:
        problems.append("aligned triples differ")
    if payload["concave"] != (not triples):
        problems.append("concavity verdict differs")
    if space.get("midpoint"):
        i, j, _m = space["midpoint"]
        if pairs[expected_pairs.index((min(i, j), max(i, j)))]["extreme"]:
            problems.append("pair with an injected midpoint classified extreme")
    return problems


def _check_concave(payload: dict, n: int) -> list[str]:
    """Snowflakes and spiral truncations have no aligned triples."""
    problems = []
    if len(payload["pairs"]) != n * (n - 1) // 2:
        problems.append(f"{len(payload['pairs'])} pair verdicts for {n} points")
    if payload["concave"] is not True or payload["aligned_triples"]:
        problems.append("strictly concave space reported with aligned triples")
    for row in payload["pairs"]:
        if not row["extreme"] or not _num(row["min_ratio"]) > 0:
            problems.append(f"({row['p']},{row['q']}) not extreme in a concave space")
            break
    return problems


def _check_holder_file(doc: dict, base: dict) -> list[str]:
    labels, m = base["labels"], base["matrix"]
    if doc.get("labels") != labels or doc.get("mode") != "float":
        return ["snowflake file has other labels or mode"]
    for i, row in enumerate(doc["matrix"]):
        for j, v in enumerate(row):
            want = 0.0 if i == j else float(m[i][j]) ** 0.5
            if v != want:
                return [f"snowflake entry ({i},{j}) is {v}, expected {want}"]
    prov = doc.get("provenance", {})
    if prov.get("family") != "holder" or prov.get("alpha") != "1/2":
        return ["snowflake provenance missing"]
    return []


def _molecules(space: dict):
    """Exact molecule vectors over the non-base points (base is point 0)."""
    labels, m = space["labels"], space["matrix"]
    n = len(labels)
    out = {}
    for p in range(n):
        for q in range(n):
            if p != q:
                inv = 1 / m[p][q]
                out[(labels[p], labels[q])] = [Fraction((x == p) - (x == q)) * inv for x in range(1, n)]
    return out


def _check_oracle(payload: dict, space: dict) -> list[str]:
    labels = space["labels"]
    mols = _molecules(space)
    extreme = {(row["p"], row["q"]): row["extreme"] for row in payload["pairs"]}
    rows = payload["oracle"]
    if len(rows) != len(extreme):
        return [f"{len(rows)} oracle rows for {len(extreme)} pairs"]
    problems = []
    for row in rows:
        pair = tuple(row["pair"])
        target = mols[pair]
        if row["vertex"] != extreme[pair] or row["agrees"] is not True:
            problems.append(f"oracle and classifier disagree on {pair}")
            continue
        cert = row["certificate"]
        if row["vertex"]:
            phi = [_num(cert["functional"][lab]) for lab in labels[1:]]
            margin = _num(cert["margin"])
            gaps = [
                sum(f * (t - v) for f, t, v in zip(phi, target, vec))
                for key, vec in mols.items()
                if key != pair
            ]
            if not margin > 0 or min(gaps) != margin:
                problems.append(f"separating functional of {pair} does not verify")
        else:
            weights = {tuple(k.split(",")): _num(w) for k, w in cert["weights"].items()}
            combo = [
                sum(w * mols[key][x] for key, w in weights.items()) for x in range(len(target))
            ]
            if (
                pair in weights
                or any(w < 0 for w in weights.values())
                or sum(weights.values()) != 1
                or combo != target
            ):
                problems.append(f"convex weights of {pair} do not verify")
    return problems


def _check_attainment(payload: dict, data: dict, space: dict) -> list[str]:
    g = _Geometry(space)
    labels = g.labels
    p, q = data["pair"]
    pi, qi = labels.index(p), labels.index(q)
    members = [tuple(m) for m in payload["members"]]
    needed = {(p, q), (q, p)}
    for r in range(g.n):
        if r not in (pi, qi) and g.between(r, pi, qi):
            needed |= {(p, labels[r]), (labels[r], q)}
    problems = [f"{m} missing from the attainment set" for m in sorted(needed - set(members))]
    intervals = payload["intervals"]
    for x, y in members:
        lo, hi = (_num(v) for v in intervals[f"{x},{y}"])
        if lo != hi or abs(hi) != 1:
            problems.append(f"member ({x},{y}) has interval [{lo},{hi}]")
    if data["mode"] == "full":
        n_ordered = g.n * (g.n - 1)
        if len(intervals) != n_ordered:
            problems.append(f"full mode gave {len(intervals)} of {n_ordered} intervals")
        for key, (lo, hi) in intervals.items():
            lo, hi = _num(lo), _num(hi)
            if tuple(key.split(",")) not in members and lo == hi and abs(hi) == 1:
                problems.append(f"degenerate interval {key} outside the members")
            if not -1 <= lo <= hi <= 1:
                problems.append(f"interval {key} = [{lo},{hi}] leaves [-1,1]")
    return problems


def _check_free_norm(result: dict, data: dict, space: dict) -> list[str]:
    labels, m = space["labels"], space["matrix"]
    n = len(labels)
    coeffs = data["coeffs"]  # over the non-base points 1..n-1
    value = Fraction(result["value"])
    f = [Fraction(0)] + [Fraction(result["witness"][lab]) for lab in labels[1:]]
    problems = []
    if any(abs(f[i] - f[j]) > m[i][j] for i, j in combinations(range(n), 2)):
        problems.append("witness is not 1-Lipschitz")
    if sum(a * fx for a, fx in zip(coeffs, f[1:])) != value:
        problems.append("witness pairing differs from the norm")
    if data["molecule"] and value != 1:
        problems.append(f"molecule has norm {value}")
    upper = sum(abs(a) * m[x][0] for a, x in zip(coeffs, range(1, n)))
    lower = max(
        abs(sum(a * (m[x][z] - m[0][z]) for a, x in zip(coeffs, range(1, n)))) for z in range(n)
    )
    if not lower <= value <= upper:
        problems.append(f"norm {value} outside [{lower}, {upper}]")
    return problems


def _check_diagnose(payload: dict) -> list[str]:
    records = payload["exposure"]["records"]
    if [r["depth"] for r in records] != [4, 8, 16, 32]:
        return ["diagnose ran other depths than the CLI default"]
    return []
