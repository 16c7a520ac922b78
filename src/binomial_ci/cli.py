"""Command-line front end.

Subcommands: graph, reduce, dual, resultant, hilbert, lefschetz, selftest.
Families load from a file path or inline text (JSON or the text grammar).
Exit codes: 0 success, 1 validation/computation error, 2 usage error.
`--format json` prints sorted, indented JSON, the bytes of
json.dumps(payload, indent=2, sort_keys=True), through one writer,
`_indented`: a dict or mixed list joins its children's texts, a list of
strs or of ints joins their C-encoded texts, and a list of flat dicts is
encoded in C in one call and re-indented at its row seams.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import random
import re
import sys
from itertools import chain
from pathlib import Path

from .algebra import as_fraction
from .dual import CONTRACTION, DIFFERENTIATION, dual_generator, dual_to_json, verify_annihilation
from .family import (
    BinomialFamily,
    CoeffAssignment,
    FamilyError,
    load_family,
    parse_monomial,
    parse_x_polynomial,
    specialize,
)
from .graph import build_graph, graph_cycle_polynomial, graph_to_json, to_dot
from .lefschetz import slp_check
from .oracle import ci_reference, hilbert_function
from .resultant import (
    det_numeric_oracle,
    det_structural,
    det_structural_parts,
    matrix_to_json,
    matrix_to_text,
    resultant_radical,
)
from .rewrite import (
    TO_BASIS,
    certificate,
    certificate_to_json,
    reduce_monomial,
    reduce_polynomial,
    render_certificate,
)
from .selftest import run_selftest


@contextlib.contextmanager
def _int_digits(limit: int):
    """Python's digit limit on int <-> str conversion for the block; 0 lifts it."""
    if not hasattr(sys, "set_int_max_str_digits"):  # a Python without the limit
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def _parsed(parse, *args):
    """parse(*args) under Python's default digit limit, which guards against
    quadratic-time decimal parsing; commands run with it lifted, so exact
    results print in full."""
    with _int_digits(getattr(sys.int_info, "default_max_str_digits", 0)):
        return parse(*args)


def _apply_set(family: BinomialFamily, assignments: list[str]) -> BinomialFamily:
    if not assignments:
        return family
    symbols = {}
    for chunk in assignments:
        for piece in chunk.split(","):
            piece = piece.strip()
            if not piece:
                continue
            name, _, value = piece.partition("=")
            if not value:
                raise FamilyError(f"malformed assignment {piece!r}; expected sym=value")
            name = name.strip()
            if name in symbols:
                raise FamilyError(f"symbol {name!r} is assigned twice")
            symbols[name] = as_fraction(value.strip())
    return specialize(family, CoeffAssignment.of(family.n, **symbols))


def _load_family(args) -> BinomialFamily:
    """The --family source, a file path or inline text, with --set applied."""
    try:
        is_file = Path(args.family).is_file()
    except OSError:  # inline text can exceed path-name limits
        is_file = False
    text = Path(args.family).read_text() if is_file else args.family
    return _apply_set(load_family(text), args.set)


_SCALARS = frozenset({str, int, float, bool, type(None)})
_string = json.encoder.encode_basestring_ascii


def _indented(value, newline: str = "\n") -> str:
    """json.dumps(value, indent=2, sort_keys=True), built by joins: with an
    indent, the stdlib runs its pure-Python encoder.

    A dict, or a list of mixed values, joins its children's texts.  A list of
    exact strs or exact ints joins their C-encoded texts; a bool is not an
    int here, since it prints as true or false.  A list of flat rows,
    non-empty dicts of scalars (graph edges, matrix rows, certificate steps,
    radical t entries), is encoded in C in one call with the rows' indent
    after each comma; one replace then re-indents the seams between rows,
    the only "},\n" in the text, since an encoded string holds no raw
    newline.  Keys are strs, as in every payload the CLI prints.  `newline`
    is a newline and the indent of the line that opens the value."""
    if type(value) is str:
        return _string(value)
    if type(value) is int:
        return int.__repr__(value)
    inner = newline + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = (_string(k) + ": " + _indented(v, inner) for k, v in sorted(value.items()))
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        kinds = set(map(type, value))
        if kinds == {str}:
            body = ("," + inner).join(map(_string, value))
        elif kinds == {int}:
            body = ("," + inner).join(map(int.__repr__, value))
        elif kinds == {dict} and all(value) and _SCALARS.issuperset(map(type, chain.from_iterable(map(dict.values, value)))):
            row = inner + "  "
            text = json.JSONEncoder(sort_keys=True, separators=("," + row, ": ")).encode(value)
            body = "{" + row + text[2:-2].replace("}," + row + "{", inner + "}," + inner + "{" + row) + inner + "}"
        else:
            body = ("," + inner).join(_indented(v, inner) for v in value)
        return "[" + inner + body + newline + "]"
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    return json.dumps(value)  # a float, or the stdlib's TypeError


def _print_json(payload: dict) -> None:
    """The payload as json.dumps(payload, indent=2, sort_keys=True) prints it,
    written by `_indented`: joins for dicts and mixed lists, C-encoded items
    for lists of strs or ints, one C call for a list of flat dicts."""
    print(_indented(payload))


def _emit(args, payload: dict, lines: list[str]) -> None:
    """The payload as JSON, or the text lines, written one by one: joining
    them first would hold one more copy of the text."""
    if args.format == "json":
        _print_json(payload)
    else:
        print(*lines, sep="\n")


def _cmd_graph(args) -> int:
    family = _parsed(_load_family, args)
    graph = build_graph(family, args.degree)
    if args.format == "dot":
        print(to_dot(graph))
        return 0
    cycle_polynomial = str(graph_cycle_polynomial(graph))
    if args.format == "json":
        _print_json({**graph_to_json(graph), "cycle_polynomial": cycle_polynomial})
        return 0
    lines = [
        f"vertices: {len(graph.vertices)}",
        f"edges: {graph.edge_count()}",
        f"sinks: {' '.join(str(m) for m in graph.sinks()) or '(none)'}",
        f"cycles: {len(graph.cycles)}",
    ]
    for c in graph.cycles:
        lines.append(
            "  " + " -> ".join(str(v) for v in c.vertices) + f"  r={list(c.label_counts)}"
        )
    lines.append(f"cycle polynomial: {cycle_polynomial}")
    print(*lines, sep="\n")
    return 0


def _cmd_reduce(args) -> int:
    family = _parsed(_load_family, args)
    if args.poly is not None:
        if args.cutoff is not None:
            raise ValueError("--cutoff applies to --monomial only")
        terms = _parsed(parse_x_polynomial, args.poly, family.n)
        result = reduce_polynomial(family, terms)
        ordered = sorted(result.terms.items(), key=lambda kv: kv[0].exponents, reverse=True)
        rendered = " + ".join(
            (f"{v}*{m}" if v != 1 else str(m)) for m, v in ordered
        ) or "0"
        payload = {
            "reduced": {str(m): str(v) for m, v in ordered},
            "used_conditional_zero": result.used_conditional_zero,
        }
        lines = [f"reduced: {rendered}", f"conditional zeros used: {'yes' if result.used_conditional_zero else 'no'}"]
        _emit(args, payload, lines)
        return 0
    m = _parsed(parse_monomial, args.monomial, family.n)
    outcome = reduce_monomial(family, m, args.cutoff)
    payload = {
        "monomial": str(m),
        "outcome": outcome.kind,
        "labels": list(outcome.path_labels),
        "r": list(outcome.r_vector),
    }
    lines = [f"monomial: {m}", f"outcome: {outcome.kind}"]
    if outcome.kind == TO_BASIS:
        payload["basis"] = str(outcome.basis_monomial)
        payload["coefficient"] = str(outcome.coeff)
        lines.append(f"basis monomial: {outcome.basis_monomial}")
        lines.append(f"coefficient: {outcome.coeff}")
        if family.is_numeric:
            value = outcome.coeff.evaluate(family.a_values, family.b_values)
            payload["value"] = str(value)
            lines.append(f"value: {value}")
    else:
        payload["cycle_entry"] = str(outcome.cycle_entry)
        lines.append(f"cycle entry: {outcome.cycle_entry}")
        lines.append("zero modulo the ideal when the family is a regular sequence")
    lines.append(f"path labels: {' '.join(map(str, outcome.path_labels)) or '(empty)'}")
    if args.certificate:
        cert = certificate(family, m, args.cutoff)
        if args.format == "json":
            payload["certificate"] = certificate_to_json(cert)
        else:
            lines.append("certificate: " + render_certificate(cert))
    _emit(args, payload, lines)
    return 0


def _cmd_dual(args) -> int:
    family = _parsed(_load_family, args)
    dual = dual_generator(family, args.convention)
    ok = verify_annihilation(family, dual, args.convention).ok if args.verify else None
    if args.format == "json":
        payload = dual_to_json(dual)
        payload["n"] = family.n
        if args.verify:
            payload["annihilation"] = ok
        _print_json(payload)
        return 0
    lines = [f"socle degree: {dual.socle_degree}", f"s vector: {list(dual.s)}", f"F = {dual}"]
    if args.verify:
        lines.append(f"annihilation check: {'ok' if ok else 'FAILED'}")
    print(*lines, sep="\n")
    return 0


def _cmd_resultant(args) -> int:
    family = _parsed(_load_family, args)
    show_radical = args.radical or not (args.matrix or args.det)
    payload: dict = {}
    lines: list[str] = []
    if args.matrix:  # the matrix is V x V: render only the requested format
        if args.format == "json":
            payload["matrix"] = matrix_to_json(family)
        else:
            lines.append(matrix_to_text(family))
    if args.det:
        monomial, factors = det_structural_parts(family)
        det = det_structural(family)
        factored = str(monomial) + "".join(
            f"*({poly})" + (f"^{count}" if count > 1 else "") for poly, count in factors
        )
        payload["determinant"] = str(det)
        payload["determinant_factored"] = factored
        lines.append(f"|C| = {factored}")
        lines.append(f"expanded: {det}")
        if family.is_numeric:
            value = det_numeric_oracle(family)
            payload["determinant_value"] = str(value)
            lines.append(f"|C| at the family's values = {value}")
    if show_radical:
        rng = random.Random(args.seed)
        result = resultant_radical(family, probe=args.probe, rng=rng)
        payload["radical"] = result.to_json()
        factored = [f"a{e.index}" for e in result.t if e.value == 1]
        factored += [f"({f})" for f in result.factors if not f.is_constant()]
        if result.product.is_zero():
            factored = ["0"]
        lines.append("radical: " + ("*".join(factored) if factored else "1"))
        lines.append(f"expanded: {result.product}")
        for e in result.t:
            lines.append(f"  t{e.index} = {e.value} ({e.status})")
    _emit(args, payload, lines)
    return 0


def _cmd_hilbert(args) -> int:
    family = _parsed(_load_family, args)
    hf = hilbert_function(family, args.max_degree)
    payload: dict = {"values": list(hf.values), "series": hf.series_str()}
    lines = [f"h = {hf.series_str()}", f"values: {list(hf.values)}"]
    if args.spec:
        reference = ci_reference(family.degrees, args.max_degree)
        payload["ci_reference"] = list(reference)
        payload["matches_ci"] = hf.values == reference
        lines.append(f"complete-intersection reference: {list(reference)}")
        lines.append(f"matches: {'yes' if payload['matches_ci'] else 'no'}")
    _emit(args, payload, lines)
    return 0


def _load_dual_file(path: str):
    data = json.loads(Path(path).read_text())
    try:
        items = [(tuple(item["alpha"]), item["coeff"]) for item in data["terms"]]
        {alpha for alpha, _ in items}  # hash every exponent: a nested list is malformed
    except (KeyError, TypeError) as exc:
        raise FamilyError(f"malformed dual file: {exc}") from exc
    terms = {}
    for alpha, coeff in items:
        if alpha in terms:
            raise FamilyError(f"dual file repeats exponent {alpha}")
        try:
            terms[alpha] = as_fraction(coeff)
        except (TypeError, ValueError) as exc:
            if isinstance(coeff, str) and re.search(r"[ab][0-9]", coeff):  # names a symbol a_i or b_i
                raise FamilyError(f"dual file carries a symbolic coefficient {coeff!r}; lefschetz needs numeric values") from exc
            raise FamilyError(f"dual file coefficient {exc}") from exc
    if not terms:
        raise FamilyError("dual file has no terms")
    return terms


def _cmd_lefschetz(args) -> int:
    terms = _parsed(_load_dual_file, args.dual_file)
    rng = random.Random(args.seed)
    verdicts = slp_check(terms, trials=args.trials, rng=rng)
    payload = {"k": [v.to_json() for v in verdicts], "slp": all(v.maximal for v in verdicts)}
    lines = []
    for v in verdicts:
        lines.append(
            f"k={v.k}: dim {v.basis_size} -> {v.target_size}, rank {v.rank}, {v.status}"
        )
    lines.append("SLP: " + ("holds (certified per k)" if payload["slp"] else "not certified"))
    _emit(args, payload, lines)
    return 0


def _cmd_selftest(args) -> int:
    return 1 if run_selftest() else 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once on first use; parsing never mutates it (append actions copy their default)."""
    parser = argparse.ArgumentParser(
        prog="binomial-ci",
        description="Exact computations for binomial complete intersections on normal form.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_family(p, formats=("text", "json")):
        p.add_argument("--family", required=True, help="family file path or inline text/JSON")
        p.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="SYM=VALUE",
            help="assign coefficient symbols, e.g. --set a1=1,b3=2/5 (repeatable)",
        )
        p.add_argument("--format", choices=formats, default="text")

    p = sub.add_parser("graph", help="build and export a reduction graph")
    add_family(p, ("text", "json", "dot"))
    p.add_argument("--degree", type=int, required=True)
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("reduce", help="reduce a monomial or polynomial to the basis")
    add_family(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--monomial", help='monomial such as "x1^2*x2"')
    group.add_argument("--poly", help='rational polynomial such as "2*x1^2*x2 - x2^3"')
    p.add_argument("--cutoff", type=int, default=None, help="only follow labels <= cutoff (--monomial only)")
    p.add_argument("--certificate", action="store_true", help="emit the rewriting certificate")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("dual", help="construct the Macaulay dual generator")
    add_family(p)
    p.add_argument(
        "--convention", choices=[CONTRACTION, DIFFERENTIATION], default=CONTRACTION
    )
    p.add_argument("--verify", action="store_true", help="check f_i o F = 0 symbolically")
    p.set_defaults(func=_cmd_dual)

    p = sub.add_parser("resultant", help="resultant matrix, determinant, radical")
    add_family(p)
    p.add_argument("--matrix", action="store_true", help="print the coefficient matrix")
    p.add_argument("--det", action="store_true", help="print the structural determinant")
    p.add_argument("--radical", action="store_true", help="print the radical (default)")
    p.add_argument("--probe", action="store_true", help="probe undetermined a-exponents")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_resultant)

    p = sub.add_parser("hilbert", help="Hilbert function of a numeric family")
    add_family(p)
    p.add_argument("--max-degree", type=int, required=True)
    p.add_argument(
        "--spec",
        action="store_true",
        help="compare against the complete-intersection reference series",
    )
    p.set_defaults(func=_cmd_hilbert)

    p = sub.add_parser("lefschetz", help="Hessian-rank Lefschetz checks of a dual form")
    p.add_argument("--dual-file", required=True, help="JSON dual dump with numeric coefficients")
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=_cmd_lefschetz)

    p = sub.add_parser("selftest", help="run the golden example suite")
    p.set_defaults(func=_cmd_selftest)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with _int_digits(0):
            code = args.func(args)
            sys.stdout.flush()  # a closed stdout raises here, not at exit
            return code
    except BrokenPipeError:
        # The reader stopped early (`| head`), which is no user error.  What is
        # still buffered goes to os.devnull, so the flush at exit cannot raise
        # again, as the signal module's "Note on SIGPIPE" advises.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except FamilyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
