"""Loading, serializing, and digesting spaces.

Three input formats are supported:

* JSON matrix object: {"labels": [...], "base": ..., "matrix": [[...]],
  "mode": "exact"|"float", "tolerance": ...}; exact entries may be
  integers or "num/den" strings.
* JSON point cloud: {"points": {label: [coords...]}, "norm":
  "l2"|"linf"|"l1", "base": ...}, built by ``space.from_points`` as the
  generated families are: "linf"/"l1" give exact rational distances,
  "l2" floats (the float square root of the rounded squared distance,
  not always the nearest float), and the rational coordinates are kept
  for exact alignment tests. An optional "tolerance" applies to "l2"; a
  "mode" that disagrees with the norm is an error.
* CSV square matrix with a header row of labels; the base point defaults
  to the first label.

A mode, base or tolerance given to a reader wins over the object's
value, which wins over the default.

Exact numbers serialize canonically as "num/den" strings. The content
digest hashes the canonicalized matrix (labels sorted, entries in
rational normal form), so it is stable across label orderings.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from fractions import Fraction
from typing import Mapping

from .space import EXACT, FLOAT, DEFAULT_REL_TOL, FiniteMetricSpace, from_points, validate


class FormatError(Exception):
    """Unreadable or structurally invalid input (not a metric violation)."""


def parse_number(v):
    """Accept ints, floats, and 'num/den' or decimal strings."""
    if isinstance(v, bool):
        raise FormatError(f"not a number: {v!r}")
    if isinstance(v, (int, Fraction)):
        return Fraction(v)
    if isinstance(v, float):
        return v
    if isinstance(v, str):
        s = v.strip()
        try:
            if "/" in s:
                return Fraction(s)
            if any(c in s for c in ".eE"):
                return float(s)
            return Fraction(s)
        except (ValueError, ZeroDivisionError) as exc:
            raise FormatError(f"not a number: {v!r}") from exc
    raise FormatError(f"not a number: {v!r}")


def number_to_json(v):
    """Canonical JSON form: exact -> 'num/den' string, float -> number."""
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, float):
        if math.isinf(v):
            return "inf"
        return v
    if isinstance(v, int):
        return f"{v}/1"
    return v


def space_from_dict(
    obj: Mapping,
    mode: str | None = None,
    base=None,
    rel_tol: float | None = None,
) -> FiniteMetricSpace:
    """Build a space from a parsed JSON object (matrix or point cloud).

    Each of mode, base and tolerance is the argument when it is given,
    else the object's value, else the default: no mode (the entries or
    the norm decide), index 0, DEFAULT_REL_TOL; a tolerance that is not a
    finite number at least 0 is a FormatError. When both "points" and
    "matrix" are present (as in generated files) the point cloud wins:
    distances are rebuilt from the coordinates and the exact-alignment
    machinery stays available.
    """
    mode = mode if mode is not None else obj.get("mode")
    if mode not in (None, EXACT, FLOAT):
        raise FormatError(f"unknown mode {mode!r}")
    base = base if base is not None else obj.get("base", 0)
    tol = rel_tol if rel_tol is not None else obj.get("tolerance", DEFAULT_REL_TOL)
    try:
        if isinstance(tol, bool):
            raise TypeError  # float(True) is 1.0, but a flag is no tolerance
        rel_tol = float(tol)
    except (TypeError, ValueError):
        raise FormatError(f"'tolerance' must be a number, not {tol!r}") from None
    if not 0 <= rel_tol < math.inf:  # also refuses nan
        raise FormatError(f"'tolerance' must be finite and at least 0, not {tol!r}")
    if "points" in obj:
        return _space_from_cloud(obj, mode, base, rel_tol)
    if "matrix" in obj:
        labels = _array(obj, "labels")
        raw = _array(obj, "matrix")
        if not all(isinstance(row, list) for row in raw):
            raise FormatError("every 'matrix' row must be an array")
        matrix = [[parse_number(v) for v in row] for row in raw]
        if mode is None:
            mode = EXACT if all(isinstance(v, Fraction) for row in matrix for v in row) else FLOAT
        return validate(matrix, [str(x) for x in labels], base=base, mode=mode, rel_tol=rel_tol)
    raise FormatError("JSON object has neither 'matrix' nor 'points'")


def _array(obj: Mapping, key: str) -> list:
    if key not in obj:
        raise FormatError(f"JSON object has no {key!r}")
    if not isinstance(obj[key], list):
        raise FormatError(f"{key!r} must be an array")
    return obj[key]


def _space_from_cloud(obj: Mapping, mode, base, rel_tol: float) -> FiniteMetricSpace:
    """The norm fixes the mode: l2 is float, l1 and linf are exact, and a
    mode that is given must agree. The tolerance is l2's alone."""
    norm = obj.get("norm", "l2")
    if norm not in ("l2", "linf", "l1"):
        raise FormatError(f"unknown norm {norm!r}")
    norm_mode = FLOAT if norm == "l2" else EXACT
    if mode not in (None, norm_mode):
        raise FormatError(f"an {norm} point cloud is {norm_mode}, not {mode}")
    raw_points = obj["points"]
    if not isinstance(raw_points, dict):
        raise FormatError("'points' must be an object of coordinate arrays")
    coords: dict[str, tuple[Fraction, ...]] = {}
    for lab, vec in raw_points.items():
        if not isinstance(vec, list):
            raise FormatError(f"the coordinates of {lab!r} must be an array")
        coords[str(lab)] = tuple(Fraction(parse_number(c)) for c in vec)
    if len({len(vec) for vec in coords.values()}) != 1:
        raise FormatError("all points need the same dimension")
    return from_points(coords, norm, base, rel_tol)


def space_from_csv(
    text: str,
    mode: str | None = None,
    base=None,
    rel_tol: float | None = None,
) -> FiniteMetricSpace:
    rows = [row for row in csv.reader(io.StringIO(text)) if row]
    if not rows:
        raise FormatError("empty CSV")
    labels = [c.strip() for c in rows[0]]
    body = [[c.strip() for c in row] for row in rows[1:]]
    if len(body) != len(labels) or any(len(r) != len(labels) for r in body):
        raise FormatError("CSV body must be square with one row per label")
    return space_from_dict({"labels": labels, "matrix": body}, mode, base, rel_tol)


def load_space(
    path: str,
    fmt: str | None = None,
    mode: str | None = None,
    base=None,
    rel_tol: float | None = None,
) -> FiniteMetricSpace:
    """Load a space from a file; format inferred from the extension."""
    if fmt is None:
        fmt = "csv" if path.lower().endswith(".csv") else "json"
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if fmt == "csv":
        return space_from_csv(text, mode=mode, base=base, rel_tol=rel_tol)
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise FormatError("top-level JSON value must be an object")
    return space_from_dict(obj, mode=mode, base=base, rel_tol=rel_tol)


def space_to_dict(space: FiniteMetricSpace, provenance: Mapping | None = None) -> dict:
    """Standard space JSON; includes coordinates when the space has them."""
    out: dict = {
        "labels": list(space.labels),
        "base": space.base_label,
        "matrix": [[number_to_json(v) for v in row] for row in space.dist],
        "mode": space.mode,
    }
    if space.mode == FLOAT:
        out["tolerance"] = space.rel_tol
    if space.coords is not None:
        out["points"] = {
            lab: [number_to_json(c) for c in vec]
            for lab, vec in zip(space.labels, space.coords)
        }
        out["norm"] = space.coord_norm
    if provenance:
        out["provenance"] = dict(provenance)
    return out


def space_digest(space: FiniteMetricSpace) -> str:
    """SHA-256 of the canonicalized matrix; label-order independent."""
    order = sorted(range(space.n), key=lambda i: space.labels[i])
    canon = {
        "labels": [space.labels[i] for i in order],
        "matrix": [
            [_canon_entry(space.dist[i][j]) for j in order] for i in order
        ],
        "mode": space.mode,
    }
    blob = json.dumps(canon, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _canon_entry(v) -> str:
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    return repr(float(v))
