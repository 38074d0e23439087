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

A matrix whose every entry is an int or a "num/den" string, the form
that :func:`number_to_json` writes, is read as integers unless the mode
is float: each distinct string once, as two ints, reduced; then the
matrix is scaled to integers over the least common multiple of the
denominators. ``validate`` checks those integers as they are, and the
space builds its matrix of Fractions only when ``dist`` is first read.
Any other entry, like a float mode, sends the whole matrix through
:func:`parse_number`; either way the space, its digest and every error
are the same.

Numbers must be finite: an infinite or NaN entry, coordinate or eps is
a FormatError. Exact numbers serialize canonically as "num/den"
strings. The content digest hashes the canonicalized matrix (labels
sorted; an exact entry as "num/den" in lowest terms, a float one by
``float.__repr__``), so it is stable across label orderings.

:func:`dumps_pretty` is the one pretty JSON writer (the CLI's ``--json``
envelope and ``generate``'s space files): the text of
``json.dumps(obj, sort_keys=True, indent=2)``, built without the
pure-Python encoder that ``indent`` selects before CPython 3.13. Each
value is dispatched once, in the stdlib's order of tests. A value that
is a :class:`_Rendered` appends its own text to the writer's list, at
the indent of the line it starts on; ``classify`` prints its pairs and
triples, and ``attainment`` its intervals, that way, one format string
per entry.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import re
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Mapping

from .space import (
    EXACT, FLOAT, DEFAULT_REL_TOL, FiniteMetricSpace, _IntMatrix, from_points, validate,
)


class FormatError(Exception):
    """Unreadable or structurally invalid input (not a metric violation)."""


# "[+-]digits/digits" in ASCII: read as two ints, which Fraction(s) would
# also do, after a longer regular expression
_RATIO = re.compile(r"([+-]?[0-9]+)/([0-9]+)")


def parse_number(v):
    """Accept ints, finite floats, and 'num/den' or decimal strings."""
    # Fraction is tested last: isinstance with an ABC is a slow call on
    # the floats and strings that input files are made of
    if isinstance(v, bool):
        raise FormatError(f"not a number: {v!r}")
    if isinstance(v, float):
        if not math.isfinite(v):
            raise FormatError(f"not a finite number: {v!r}")
        return v
    if isinstance(v, str):
        s = v.strip()
        try:
            ratio = _RATIO.fullmatch(s)
            if ratio:
                return Fraction(int(ratio[1]), int(ratio[2]))
            if any(c in s for c in ".eE"):
                x = float(s)
                if not math.isfinite(x):
                    raise FormatError(f"not a finite number: {v!r}")
                return x
            return Fraction(s)
        except (ValueError, ZeroDivisionError) as exc:
            raise FormatError(f"not a number: {v!r}") from exc
    if isinstance(v, (int, Fraction)):
        return Fraction(v)
    raise FormatError(f"not a number: {v!r}")


def number_to_json(v):
    """Canonical JSON form: exact -> 'num/den' string, float -> number."""
    if isinstance(v, float):  # before the slow ABC test, as in parse_number
        if math.isinf(v):
            return "inf"
        return v
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
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
        matrix = None if mode == FLOAT else _ratio_ints(raw)
        if matrix is not None:
            mode = EXACT  # every entry an int or a ratio string, as parse_number infers
        else:
            matrix = [[parse_number(v) for v in row] for row in raw]
            if mode is None:
                mode = EXACT if all(isinstance(v, Fraction) for row in matrix for v in row) else FLOAT
        return validate(matrix, [str(x) for x in labels], base=base, mode=mode, rel_tol=rel_tol)
    raise FormatError("JSON object has neither 'matrix' nor 'points'")


def _ratio_ints(raw: list) -> _IntMatrix | None:
    """The matrix of a file whose every entry is an int (not a bool) or a
    "num/den" string, read as :func:`parse_number` reads it, reduced, and
    scaled to integers over the least common multiple of the
    denominators: the ``_int_matrix`` of the space it makes. None for any
    other entry, and for an entry that parse_number refuses ("1/0").
    Each distinct string is read once; a symmetric matrix repeats all of
    its entries."""
    ratio = _RATIO.fullmatch
    read: dict[str, tuple[int, int]] = {}  # text -> reduced (num, den)
    try:
        for v in chain.from_iterable(raw):
            if type(v) is str:
                if v not in read:
                    match = ratio(v.strip())
                    if match is None:
                        return None
                    num, den = int(match[1]), int(match[2])
                    if not den:
                        return None
                    g = math.gcd(num, den)
                    read[v] = (num // g, den // g)
            elif type(v) is not int:
                return None
    except ValueError:  # a numeral past int's digit limit
        return None
    unit = math.lcm(*{den for _, den in read.values()})
    scaled = {v: num * (unit // den) for v, (num, den) in read.items()}
    return _IntMatrix(unit, [[v * unit if type(v) is int else scaled[v] for v in row] for row in raw])


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
    if space.mode == EXACT:
        # the reduced n/d of each distinct entry, printed from the integers
        unit, m = space._int_matrix
        text = {
            v: f"{v // g}/{unit // g}"
            for v in set(chain.from_iterable(m)) for g in (math.gcd(v, unit),)
        }
        matrix = [[text[row[j]] for j in order] for row in (m[i] for i in order)]
    else:
        # validate stores a float space's entries as floats
        matrix = [[_float_repr(row[j]) for j in order] for row in (space.dist[i] for i in order)]
    canon = {
        "labels": [space.labels[i] for i in order],
        "matrix": matrix,
        "mode": space.mode,
    }
    blob = json.dumps(canon, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# -- the pretty writer -------------------------------------------------

_int_text = int.__repr__
_float_repr = float.__repr__


class _Rendered:
    """A value that writes its own text: ``put(out, nl)`` appends to the
    writer's output list ``out``, where nl is the newline and indent of
    the line the value starts on. The text must be what
    :func:`dumps_pretty` writes for the value it stands for."""

    __slots__ = ("put",)

    def __init__(self, put):
        self.put = put


def dumps_pretty(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)``, byte for byte.

    Up to CPython 3.12 ``indent`` makes the stdlib use its pure-Python
    encoder, a chain of generators. This writer appends to one list and
    dispatches each value once, by the stdlib's ``isinstance`` tests in
    the stdlib's order (:func:`_put_value`). Values are converted as the
    stdlib converts them: strings by the C
    ``encode_basestring_ascii``, ints by ``int.__repr__``, floats by
    ``float.__repr__`` or as ``NaN``, ``Infinity`` and ``-Infinity``.
    Keys that are str, int, float, bool or None are converted after
    sorting, and a value or key the stdlib refuses raises the same
    TypeError. Unlike the stdlib it does not look for reference cycles:
    a cyclic value raises RecursionError. A :class:`_Rendered` value
    writes its own text.
    """
    out: list[str] = []
    _put_value(obj, out, "\n")
    return "".join(out)


def _float_text(v) -> str:
    if v != v:
        return "NaN"
    if v == math.inf:
        return "Infinity"
    if v == -math.inf:
        return "-Infinity"
    return _float_repr(v)


def _put_value(v, out: list, nl: str) -> None:
    """Append v, any value, in the stdlib's order of tests; nl is the
    newline and indent of the line v starts on."""
    if isinstance(v, str):
        out.append(encode_basestring_ascii(v))
    elif v is None:
        out.append("null")
    elif v is True:
        out.append("true")
    elif v is False:
        out.append("false")
    elif isinstance(v, int):
        out.append(_int_text(v))
    elif isinstance(v, float):
        out.append(_float_text(v))
    elif isinstance(v, (list, tuple)):
        _put_array(v, out, nl)
    elif isinstance(v, dict):
        _put_object(v, out, nl)
    elif isinstance(v, _Rendered):
        v.put(out, nl)
    else:
        raise TypeError(f"Object of type {v.__class__.__name__} is not JSON serializable")


def _key_text(k) -> str:
    if isinstance(k, str):
        return k
    if isinstance(k, float):
        return _float_text(k)
    if k is True:
        return "true"
    if k is False:
        return "false"
    if k is None:
        return "null"
    if isinstance(k, int):
        return _int_text(k)
    raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")


def _put_object(o, out: list, nl: str) -> None:
    if not o:
        out.append("{}")
        return
    inner = nl + "  "
    lead, sep = "{" + inner, "," + inner
    for k, v in sorted(o.items()):
        out.append(lead + encode_basestring_ascii(_key_text(k)) + ": ")
        lead = sep
        _put_value(v, out, inner)
    out.append(nl + "}")


def _put_array(o, out: list, nl: str) -> None:
    if not o:
        out.append("[]")
        return
    inner = nl + "  "
    lead, sep = "[" + inner, "," + inner
    for v in o:
        out.append(lead)
        lead = sep
        _put_value(v, out, inner)
    out.append(nl + "]")
