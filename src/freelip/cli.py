"""Command-line interface.

Subcommands: validate, classify, modulus, generate, attainment, diagnose.
Exit codes: 0 success, 1 parse/usage errors and failed LPs, 2 metric
violations, 3 classifier/oracle disagreement (an internal inconsistency).
Errors print as one "error: ..." line on stderr. Every command returns
its report, ``(exit code, input digest, payload, text)``; under
``--json``, which prints no text, classify leaves the text empty.
:func:`main` loads the space file of validate, classify, modulus and
attainment, so an invalid one gets the same itemized report from each;
it writes the report and maps errors to exit codes. JSON output carries
a report envelope whose payload region is byte-identical across
identical invocations; the timestamp lives outside it.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import time
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from . import __version__
from . import classify as cls
from . import formats, generators, lipfun, polytope, simplex
from .formats import _float_repr, number_to_json
from .space import (
    SpaceError,
    ValidationError,
    _scan_pairs,
    concavity_modulus,
    holder_transform,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_DISAGREEMENT = 3

Report = tuple[int, str | None, dict, str]


def _emit(args, digest: str | None, payload: dict, text: str) -> None:
    if getattr(args, "json", False):
        envelope = {
            "tool": "freelip",
            "version": __version__,
            "command": args.command,
            "input_digest": digest,
            "payload": payload,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        }
        print(formats.dumps_pretty(envelope))
    else:
        print(text)


def _add_input_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("path", help="space file (JSON matrix, JSON point cloud, or CSV)")
    p.add_argument("--format", choices=["json", "csv"], default=None)
    p.add_argument("--mode", choices=["exact", "float"], default=None)
    p.add_argument("--base", default=None, help="base point label")
    p.add_argument("--tolerance", type=float, default=None)


def _add_family_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lambda", dest="lam", default="1/2", help="rational, e.g. 1/2")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--one-sided", action="store_true")


def _invalid_report(err: ValidationError) -> Report:
    lines = ["INVALID"] + ["  " + v.describe() for v in err.violations]
    payload = {
        "valid": False,
        "violations": [
            {
                "kind": v.kind,
                "i": v.i,
                "j": v.j,
                "k": v.k,
                "deficit": number_to_json(v.deficit),
            }
            for v in err.violations
        ],
    }
    return EXIT_INVALID, None, payload, "\n".join(lines)


def cmd_validate(args, space) -> Report:
    payload = {
        "valid": True,
        "points": space.n,
        "mode": space.mode,
        "base": space.base_label,
    }
    text = f"VALID  {space.n} points, mode={space.mode}, base={space.base_label}"
    return EXIT_OK, formats.space_digest(space), payload, text


def _json_number(num, den) -> str:
    """The JSON text of a number in a scan, as number_to_json and the
    writer print its value: an exact num/den (ints, den > 0) as "n/d" in
    lowest terms, a float by float.__repr__ and math.inf as "inf"."""
    if den is not None:
        g = math.gcd(num, den)
        return f'"{num // g}/{den // g}"'
    if num == math.inf:
        return '"inf"'
    return _float_repr(num)


def _put_pairs(scans, out: list, nl: str) -> None:
    """Append the JSON text of the ``pairs`` array, starting on a line of
    newline and indent nl, to the writer's list out (see
    :class:`formats._Rendered`).

    Each entry is the text that ``json.dumps(..., sort_keys=True,
    indent=2)`` gives for the pair's public verdict, printed from the
    kernel scan's own numbers through one format string. The scans have
    the default eps grid of three values, as ``classify`` makes them.
    """
    if not scans:
        out.append("[]")
        return
    i1 = nl + "  "
    i2 = i1 + "  "
    i3 = i2 + "  "
    i4 = i3 + "  "
    row = f"{i3}[{i4}%s,{i4}%s{i3}]"
    entry = (
        f'{{{i2}"extreme": %s,{i2}"min_ratio": %s,{i2}"modulus": [{row},{row},{row}{i2}],'
        f'{i2}"notes": [%s{i2}],{i2}"p": %s,{i2}"q": %s,{i2}"witness": %s{i1}}}'
    )
    extreme_notes = ",".join(i3 + encode_basestring_ascii(note) for note in cls._notes(None))
    labels = [encode_basestring_ascii(label) for label in scans[0].labels]
    num = _json_number
    lead = "[" + i1
    for s in scans:
        if s.middles:
            witness = s.middles[0]
            (note,) = cls._notes(s.labels[witness])
            extreme, notes, witness = "false", i3 + encode_basestring_ascii(note), labels[witness]
        else:
            extreme, notes, witness = "true", extreme_notes, "null"
        unit = s.unit
        (e1, e2, e3), (d1, d2, d3), (at1, at2, at3) = s.eps, s.deltas, s.delta_at
        out.append(lead + entry % (
            extreme, num(s.ratio, s.ratio_den),
            num(*e1), '"inf"' if at1 is None else num(d1, unit),
            num(*e2), '"inf"' if at2 is None else num(d2, unit),
            num(*e3), '"inf"' if at3 is None else num(d3, unit),
            notes, labels[s.p], labels[s.q], witness,
        ))
        lead = "," + i1
    out.append(nl + "]")


def _put_triples(triples, out: list, nl: str) -> None:
    """Append the JSON text of the ``aligned_triples`` array of label
    triples, as :func:`_put_pairs` appends the pairs: one format string
    per triple."""
    if not triples:
        out.append("[]")
        return
    i1 = nl + "  "
    i2 = i1 + "  "
    entry = f"[{i2}%s,{i2}%s,{i2}%s{i1}]"
    text = {label: encode_basestring_ascii(label) for label in set().union(*triples)}
    out.append(
        "[" + i1 + ("," + i1).join(entry % (text[r], text[p], text[q]) for r, p, q in triples) + nl + "]"
    )


def cmd_classify(args, space) -> Report:
    digest = formats.space_digest(space)
    if args.oracle:
        polytope.oracle_guard(space)

    payload = {"space_digest": digest}
    summary = None
    if args.pair:
        scans = _scan_pairs(space, pairs=[space.pair(*args.pair)])
    else:
        summary = cls.classify_all(space)
        scans = cls._report_scans(summary)
        payload["concave"] = summary.is_concave
        payload["aligned_triples"] = formats._Rendered(
            functools.partial(_put_triples, summary.violating_triples)
        )
    payload["pairs"] = formats._Rendered(functools.partial(_put_pairs, scans))
    labels = space.labels

    if args.oracle:
        payload["oracle"] = []
        for s in scans:
            pair = [labels[s.p], labels[s.q]]
            cert = polytope.is_vertex(space, *pair)
            if cert.vertex != (not s.middles):
                disagreement = {
                    "pair": pair,
                    "classifier_extreme": not s.middles,
                    "oracle_vertex": cert.vertex,
                    "classifier_witness": labels[s.middles[0]] if s.middles else None,
                    "oracle_certificate": _cert_payload(cert),
                }
                text = f"DISAGREEMENT on pair {tuple(pair)}"
                return EXIT_DISAGREEMENT, digest, {"disagreement": disagreement}, text
            payload["oracle"].append({
                "pair": pair,
                "vertex": cert.vertex,
                "agrees": True,
                "certificate": _cert_payload(cert),
            })
    if args.json:  # the text is printed only without --json
        return EXIT_OK, digest, payload, ""

    lines = []
    if summary is not None:
        lines.append(f"concave: {summary.is_concave}")
        if summary.violating_triples:
            lines.append("aligned triples (middle, end, end):")
            lines.extend(f"  {t}" for t in summary.violating_triples)
    for s in scans:
        mark = f"NOT extreme (middle {labels[s.middles[0]]})" if s.middles else "extreme"
        # the number as the payload prints it, without JSON's quotes
        ratio = _json_number(s.ratio, s.ratio_den).strip('"')
        lines.append(f"  u[{labels[s.p]},{labels[s.q]}]  {mark}  min_ratio={ratio}")
    if args.oracle:
        lines.append("oracle: all pairs agree")
    return EXIT_OK, digest, payload, "\n".join(lines)


def _cert_payload(cert: polytope.VertexCertificate) -> dict:
    if cert.vertex:
        return {
            "type": "separating_functional",
            "functional": {k: number_to_json(v) for k, v in cert.separating.items()},
            "margin": number_to_json(cert.margin),
        }
    return {
        "type": "convex_weights",
        "weights": {f"{p},{q}": number_to_json(w) for (p, q), w in cert.weights.items()},
    }


def cmd_modulus(args, space) -> Report:
    eps_grid = [formats.parse_number(e) for e in args.eps]
    table = concavity_modulus(space, args.p, args.q, eps_grid)
    payload = {
        "p": table.p,
        "q": table.q,
        "entries": [
            {"eps": number_to_json(e.eps), "delta": number_to_json(e.delta), "witness": e.witness}
            for e in table.entries
        ],
    }
    lines = [f"modulus of ({table.p},{table.q})"] + [
        f"  eps={number_to_json(e.eps)}  delta={number_to_json(e.delta)}  witness={e.witness}"
        for e in table.entries
    ]
    return EXIT_OK, formats.space_digest(space), payload, "\n".join(lines)


def _rational(text: str) -> Fraction:
    """The value of a rational flag, --lambda or --alpha. A zero
    denominator raises ValueError, as any other bad literal does, so
    main reports it on one error line."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


# family argument -> its generator spec, built from the family flags
_FAMILY_SPECS = {
    "c0": lambda args: generators.FamilySpec("c0_counterexample"),
    "spiral": lambda args: generators.FamilySpec(
        "planar_spiral_one_sided" if args.one_sided else "planar_spiral",
        {"lam": _rational(args.lam), "seed": args.seed},
    ),
    "l2": lambda args: generators.FamilySpec("l2_nonholder"),
}


def cmd_generate(args) -> Report:
    if args.family == "holder":
        if args.input is None:
            raise formats.FormatError("generate holder needs --input")
        space = formats.load_space(args.input)
        alpha = _rational(args.alpha)
        out_space = holder_transform(space, alpha)
        provenance = {
            "family": "holder",
            "alpha": str(alpha),
            "input_digest": formats.space_digest(space),
        }
    else:
        spec = _FAMILY_SPECS[args.family](args)
        out_space = spec.generate(args.depth)
        provenance = dict(out_space.meta)
        provenance["depth"] = args.depth
    doc = formats.space_to_dict(out_space, provenance=provenance)
    text = formats.dumps_pretty(doc)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        text = f"wrote {out_space.n} points to {args.out}"
    return EXIT_OK, None, {}, text


def cmd_attainment(args, space) -> Report:
    result = lipfun.attainment_set(space, args.p, args.q, intervals=args.intervals)
    payload = {
        "pair": list(result.pair),
        "members": [list(m) for m in result.members],
        "intervals": {
            f"{x},{y}": [number_to_json(lo), number_to_json(hi)]
            for (x, y), (lo, hi) in sorted(result.intervals.items())
        },
    }
    lines = [f"attainment set of ({result.pair[0]},{result.pair[1]}):"] + [
        f"  ({x},{y})" for x, y in result.members
    ]
    return EXIT_OK, formats.space_digest(space), payload, "\n".join(lines)


def cmd_diagnose(args) -> Report:
    spec = _FAMILY_SPECS[args.family](args)
    p, q = args.pair
    diag = cls.sequence_diagnostics(spec, p, q, args.depths)
    trend = cls.strongly_exposed_verdict(spec, p, q, args.depths)
    payload = {
        "pair": [p, q],
        "sequence": {
            "records": [
                {"n": r.n, "excess": r.excess, "ratio": r.ratio}
                for r in diag.records
            ],
            "monotone_decreasing": diag.monotone_decreasing,
            "decay_factor": diag.decay_factor,
            "flag": diag.flag,
            "threshold": diag.threshold,
        },
        "exposure": {
            "records": [
                {
                    "depth": r.depth,
                    "min_ratio": number_to_json(r.min_ratio),
                    "strongly_exposed": r.strongly_exposed,
                }
                for r in trend.records
            ],
            "limit_property_z_flag": trend.limit_property_z_flag,
            "threshold": trend.threshold,
        },
    }
    lines = [f"diagnostics for ({p},{q}) at depths {list(args.depths)}"]
    for r in diag.records:
        lines.append(f"  n={r.n}  excess={r.excess:.6g}  ratio={r.ratio:.6g}")
    lines.append(
        f"  ratio decay flag: {diag.flag} (factor {diag.decay_factor})"
    )
    for r in trend.records:
        lines.append(
            f"  depth={r.depth}  min_ratio={float(r.min_ratio):.6g}  "
            f"strongly_exposed={r.strongly_exposed}"
        )
    lines.append(f"  limit property-Z flag: {trend.limit_property_z_flag}")
    return EXIT_OK, None, payload, "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freelip",
        description="Extremal structure of the free-space unit ball over finite metric spaces.",
    )
    parser.add_argument("--version", action="version", version=f"freelip {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the metric axioms of a space file")
    _add_input_flags(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("classify", help="extremality verdicts for molecules")
    _add_input_flags(p)
    p.add_argument("--pair", nargs=2, metavar=("P", "Q"))
    p.add_argument("--oracle", action="store_true", help="cross-check against the LP oracle")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("modulus", help="concavity modulus table of a pair")
    _add_input_flags(p)
    p.add_argument("p")
    p.add_argument("q")
    p.add_argument("--eps", nargs="+", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_modulus)

    p = sub.add_parser("generate", help="emit a family truncation as a space file")
    p.add_argument("family", choices=["c0", "spiral", "l2", "holder"])
    p.add_argument("--depth", type=int, default=8)
    _add_family_flags(p)
    p.add_argument("--alpha", default="1/2", help="snowflake exponent (holder)")
    p.add_argument("--input", help="input space for holder")
    p.add_argument("--out", help="output path (stdout if omitted)")
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("attainment", help="norm-attainment set of a pair")
    _add_input_flags(p)
    p.add_argument("p")
    p.add_argument("q")
    p.add_argument("--intervals", choices=["lazy", "full"], default="lazy")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_attainment)

    p = sub.add_parser("diagnose", help="depth-trend diagnostics for a family pair")
    p.add_argument("family", choices=["c0", "spiral", "l2"])
    _add_family_flags(p)
    p.add_argument("--pair", nargs=2, metavar=("P", "Q"), required=True)
    p.add_argument("--depths", nargs="+", type=int, default=cls.DEFAULT_DEPTHS)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_diagnose)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # one per process: argparse objects sit in reference cycles, and every
    # default is immutable, so parsing never changes the shared parser
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; keep 2 reserved for metric violations
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        if "path" not in args:
            report = args.fn(args)
        else:
            try:
                space = formats.load_space(
                    args.path, fmt=args.format, mode=args.mode, base=args.base, rel_tol=args.tolerance
                )
            except ValidationError as err:
                report = _invalid_report(err)
            else:
                report = args.fn(args, space)
        code, digest, payload, text = report
        _emit(args, digest, payload, text)
        return code
    except (
        formats.FormatError, OSError, SpaceError, simplex.LPFailure, cls.UnknownFamily, ValueError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
