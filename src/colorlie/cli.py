"""Batch front-end: JSON in, JSON/DOT out.

Exit codes: 0 success, 1 domain errors (axiom failures, invalid hints,
irrational eigenvalues, ...), 2 I/O or parse errors.  All diagnostics go to
stderr; all data to stdout or the --output file.
"""
from __future__ import annotations

import argparse
import json
import sys

from . import serialize
from .algebra import check_axioms, from_matrices, killing_radical
from .errors import ColorLieError, NotARepresentation
from .families import SoParams, so_cartan_hint, so_pqrs
from .roots import (
    cartan_matrix,
    enhanced_dynkin,
    find_cartan,
    is_self_centralizing,
    positive_and_simple,
    root_decomposition,
    simplicity,
    weyl_order,
)
from .scalars import parse_rational


def _read_json(path: str) -> dict:
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


def _write_text(text: str, path: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _emit_json(doc: dict, path: str) -> None:
    _write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", path)


def _parse_order(text):
    if text is None:
        return None
    return [parse_rational(part) for part in text.split(",")]


def _load_algebra(path: str):
    doc = _read_json(path)
    g = serialize.algebra_from_json(doc)
    hint = serialize.cartan_hint_from_json(doc, g.dim)
    return g, hint


def _root_pipeline(g, hint, order):
    t = find_cartan(g, hint=hint)
    rs = root_decomposition(g, t)
    return positive_and_simple(rs, order=order)


def _load_module(args):
    """The algebra's Cartan hint and the representation named by args,
    certified by is_representation: decompose and the Casimir theorems hold
    only for a color representation."""
    from .reps import is_representation

    g, hint = _load_algebra(args.algebra)
    rep = serialize.representation_from_json(_read_json(args.input), g)
    report = is_representation(rep)
    if not report.ok:
        raise NotARepresentation("; ".join(x for x in report.lines() if "FAIL" in x))
    return hint, rep


def _cmd_validate(args) -> int:
    g, _ = _load_algebra(args.input)
    report = check_axioms(g)
    doc = {"axioms": list(report.lines()), "ok": report.ok}
    if report.ok:
        radical = killing_radical(g)
        doc["killingRadicalDim"] = len(radical)
        doc["basic"] = not radical  # is_basic(g), without a second kernel
    _emit_json(doc, args.output)
    if not report.ok:
        for line in report.lines():
            if "FAIL" in line:
                print(f"validate: {line}", file=sys.stderr)
        return 1
    return 0


def _cmd_roots(args) -> int:
    g, hint = _load_algebra(args.input)
    rs = _root_pipeline(g, hint, _parse_order(args.order))
    enhanced = None
    if is_self_centralizing(rs):
        enhanced = enhanced_dynkin(rs, g)
    _emit_json(serialize.root_system_report(
        rs, enhanced=enhanced, weyl_order=weyl_order(cartan_matrix(rs)),
        verdict=simplicity(g, rs)), args.output)
    return 0


def _cmd_dynkin(args) -> int:
    g, hint = _load_algebra(args.input)
    rs = _root_pipeline(g, hint, _parse_order(args.order))
    ed = enhanced_dynkin(rs, g)
    if args.dot:
        _write_text(serialize.dynkin_dot(ed), args.output)
    else:
        _emit_json(serialize.enhanced_dynkin_report(ed), args.output)
    return 0


def _cmd_rep_decompose(args) -> int:
    """rep-decompose; casimir prints the same components with "central":
    true, since decompose certified invariant components, Omega scalar on
    each, that fill V: so Omega commutes with every pi(e_i), or it raised."""
    from .reps import decompose

    hint, rep = _load_module(args)
    rs = _root_pipeline(rep.algebra, hint, _parse_order(args.order))
    doc = serialize.decomposition_report(decompose(rep, rs))
    if args.verb == "casimir":
        doc = {"central": True, "components": doc["components"]}
    _emit_json(doc, args.output)
    return 0


def _cmd_generate(args) -> int:
    if args.family != "so":
        raise ColorLieError(f"unknown family {args.family!r}")
    params = SoParams(args.p, args.q, args.r, args.s)
    real = so_pqrs(params)
    g = from_matrices(real)
    hint = so_cartan_hint(params)
    _emit_json(serialize.algebra_to_json(g, cartan_hint=hint), args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="colorlie",
        description="Exact computations with Z2xZ2-graded color Lie algebras",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, needs_input=True):
        if needs_input:
            p.add_argument("input", nargs="?", default="-",
                           help="algebra/representation JSON file, or - for stdin")
        p.add_argument("-o", "--output", default="-",
                       help="output file, or - for stdout")

    def pipeline(p):
        common(p)
        p.add_argument("--order", default=None,
                       help="positive-system order: comma-separated rationals")

    p = sub.add_parser("validate", help="axiom + basic-ness report")
    common(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("roots", help="root-system report")
    pipeline(p)
    p.set_defaults(func=_cmd_roots)

    p = sub.add_parser("dynkin", help="enhanced Dynkin diagram")
    pipeline(p)
    p.add_argument("--enhanced", action="store_true",
                   help="accepted for compatibility; diagrams are always enhanced")
    p.add_argument("--dot", action="store_true", help="emit DOT instead of JSON")
    p.set_defaults(func=_cmd_dynkin)

    for verb, text in (("rep-decompose", "complete-reducibility decomposition"),
                       ("casimir", "Casimir centrality + component eigenvalues")):
        p = sub.add_parser(verb, help=text)
        pipeline(p)
        p.add_argument("--algebra", required=True, help="algebra JSON file")
        p.set_defaults(func=_cmd_rep_decompose)

    p = sub.add_parser("generate", help="construct a classical family")
    common(p, needs_input=False)
    p.add_argument("--family", required=True, choices=["so"])
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.set_defaults(func=_cmd_generate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ColorLieError as e:
        print(f"{args.verb}: {e}", file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as e:
        print(f"{args.verb}: input error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
