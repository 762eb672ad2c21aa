"""Command line front end.

Analysis commands print a flat key-value document with keys in sorted
order so output is byte-stable across runs; construction commands
(compose, inverse, minimize) emit automaton text and dot emits a DOT
graph.  The exit code reports whether the analysis ran, never what the
verdict was: 0 when done, 1 on usage errors, 2 on unreadable or invalid
input.
"""

from __future__ import annotations

import argparse
import hashlib
import sys

from .automaton import (
    AutomatonError,
    AutomatonFile,
    NotCyclicError,
    ParseError,
    format_word,
    parse_automaton,
    parse_word,
    serialize_automaton,
    to_dot,
    validate_cyclic,
)
from .decide import (
    abelianization_equal,
    conjugate,
    is_spherically_transitive,
    rational_form,
)
from .modmath import (
    abelian_vector,
    coefficient_stream,
    incidence_matrix,
    labels_or_shifts,
)
from .oracle import level_transitive


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors exit with code 1, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _load(path: str) -> tuple[AutomatonFile, str]:
    with open(path, "rb") as handle:
        data = handle.read()
    digest = hashlib.sha256(data).hexdigest()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: byte {exc.start} is {data[exc.start]:#04x}") from None
    return parse_automaton(text), digest


def _count(text: str) -> int:
    """argparse type for a count: a nonnegative integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {value}")
    return value


def _render(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_render(v) for v in value) + "]"
    return str(value)


def _emit(doc: dict) -> None:
    for key in sorted(doc):
        print(f"{key} = {_render(doc[key])}")


def _input_keys(doc: dict, prefix: str, path: str, digest: str) -> None:
    doc[f"{prefix}.path"] = path
    doc[f"{prefix}.sha256"] = digest


def _cmd_validate(args) -> int:
    parsed, digest = _load(args.file)
    m = parsed.automaton
    doc = {
        "command": "validate",
        "alphabet": m.k,
        "states": list(m.names),
        "invertible": True,
        "initial": None if parsed.initial is None else m.names[parsed.initial],
    }
    _input_keys(doc, "input", args.file, digest)
    try:
        derived = validate_cyclic(m)
        doc["cyclic"] = True
    except NotCyclicError as exc:
        derived = None
        doc["cyclic"] = False
        doc["cyclic.obstruction"] = exc.state
    labels = parsed.labels if parsed.labels is not None else derived
    if labels is not None:
        doc["labels.source"] = "explicit" if parsed.labels is not None else "derived"
        doc["labels.moduli"] = list(labels.moduli)
        for q, name in enumerate(m.names):
            doc[f"label.{name}"] = list(labels.labels[q])
    _emit(doc)
    return 0


def _cmd_transitive(args) -> int:
    parsed, digest = _load(args.file)
    g = parsed.initial_automaton()
    verdict = is_spherically_transitive(g)
    doc = {
        "command": "transitive",
        "method": "stream",
        "modulus": g.k,
        "transitive": verdict.transitive,
        "first_bad_index": verdict.first_bad_index,
        "stream.preperiod": list(verdict.stream.preperiod),
        "stream.period": list(verdict.stream.period),
    }
    _input_keys(doc, "input", args.file, digest)
    _emit(doc)
    return 0


def _cmd_coeffs(args) -> int:
    parsed, digest = _load(args.file)
    g = parsed.initial_automaton()
    labels = labels_or_shifts(parsed.automaton, parsed.labels)
    vector = abelian_vector(labels, args.component)
    stream = coefficient_stream(incidence_matrix(g.automaton), vector, g.initial)
    doc = {
        "command": "coeffs",
        "component": args.component,
        "count": args.count,
        "modulus": stream.modulus,
        "terms": stream.terms(args.count),
        "stream.preperiod": list(stream.preperiod),
        "stream.period": list(stream.period),
    }
    _input_keys(doc, "input", args.file, digest)
    _emit(doc)
    return 0


def _cmd_rational(args) -> int:
    parsed, digest = _load(args.file)
    g = parsed.initial_automaton()
    series = rational_form(g, parsed.labels, args.component)
    doc = {
        "command": "rational",
        "component": args.component,
        "modulus": series.modulus,
        "numerator": list(series.numerator),
        "denominator": list(series.denominator),
    }
    _input_keys(doc, "input", args.file, digest)
    _emit(doc)
    return 0


def _cmd_equal_ab(args) -> int:
    parsed_f, digest_f = _load(args.file1)
    parsed_g, digest_g = _load(args.file2)
    f = parsed_f.initial_automaton()
    g = parsed_g.initial_automaton()
    labels_f = labels_or_shifts(parsed_f.automaton, parsed_f.labels)
    labels_g = labels_or_shifts(parsed_g.automaton, parsed_g.labels)
    equal, witness = abelianization_equal(f, g, labels_f, labels_g)
    doc = {
        "command": "equal-ab",
        "equal": equal,
        "witness": witness,
        "moduli": list(labels_f.moduli),
    }
    _input_keys(doc, "input1", args.file1, digest_f)
    _input_keys(doc, "input2", args.file2, digest_g)
    _emit(doc)
    return 0


def _cmd_conjugate(args) -> int:
    parsed_f, digest_f = _load(args.file1)
    parsed_g, digest_g = _load(args.file2)
    verdict = conjugate(parsed_f.initial_automaton(), parsed_g.initial_automaton())
    doc = {
        "command": "conjugate",
        "verdict": verdict.status.value,
        "reason": verdict.reason,
    }
    _input_keys(doc, "input1", args.file1, digest_f)
    _input_keys(doc, "input2", args.file2, digest_g)
    _emit(doc)
    return 0


def _cmd_orbit(args) -> int:
    parsed, digest = _load(args.file)
    report = level_transitive(parsed.initial_automaton(), args.level)
    doc = {
        "command": "orbit",
        "level": report.level,
        "orbit_count": report.orbit_count,
        "max_orbit": report.max_orbit,
        "transitive": report.transitive,
    }
    _input_keys(doc, "input", args.file, digest)
    _emit(doc)
    return 0


def _cmd_apply(args) -> int:
    parsed, digest = _load(args.file)
    g = parsed.initial_automaton()
    word = parse_word(args.word, g.k)
    doc = {
        "command": "apply",
        "word.input": format_word(word, g.k),
        "word.output": format_word(g.apply(word), g.k),
    }
    _input_keys(doc, "input", args.file, digest)
    _emit(doc)
    return 0


def _write_machine(result, args) -> int:
    text = serialize_automaton(result.automaton, result.initial)
    if args.output is None:
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    return 0


def _cmd_compose(args) -> int:
    parsed_f, _ = _load(args.file1)
    parsed_g, _ = _load(args.file2)
    result = parsed_f.initial_automaton().compose(parsed_g.initial_automaton())
    return _write_machine(result, args)


def _cmd_inverse(args) -> int:
    parsed, _ = _load(args.file)
    return _write_machine(parsed.initial_automaton().inverse(), args)


def _cmd_minimize(args) -> int:
    parsed, _ = _load(args.file)
    return _write_machine(parsed.initial_automaton().minimize(), args)


def _cmd_dot(args) -> int:
    parsed, _ = _load(args.file)
    sys.stdout.write(to_dot(parsed.automaton, parsed.initial))
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="wreathtree",
        description="Analyze tree automorphisms given by invertible Mealy automata.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check an automaton file and report diagnostics")
    p.add_argument("file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("transitive", help="decide spherical transitivity")
    p.add_argument("file")
    p.set_defaults(func=_cmd_transitive)

    p = sub.add_parser("coeffs", help="print abelianization series coefficients")
    p.add_argument("file")
    p.add_argument("--count", type=_count, required=True, help="how many terms")
    p.add_argument("--component", type=_count, default=0, help="label component index")
    p.set_defaults(func=_cmd_coeffs)

    p = sub.add_parser("rational", help="print the series as a rational function mod m")
    p.add_argument("file")
    p.add_argument("--component", type=_count, default=0, help="label component index")
    p.set_defaults(func=_cmd_rational)

    p = sub.add_parser("equal-ab", help="compare the abelianization series of two machines")
    p.add_argument("file1")
    p.add_argument("file2")
    p.set_defaults(func=_cmd_equal_ab)

    p = sub.add_parser("conjugate", help="three-valued conjugacy test")
    p.add_argument("file1")
    p.add_argument("file2")
    p.set_defaults(func=_cmd_conjugate)

    p = sub.add_parser("orbit", help="enumerate one tree level and count orbits")
    p.add_argument("file")
    p.add_argument("--level", type=_count, required=True)
    p.set_defaults(func=_cmd_orbit)

    p = sub.add_parser("apply", help="apply the machine to one word")
    p.add_argument("file")
    p.add_argument("--word", required=True)
    p.set_defaults(func=_cmd_apply)

    p = sub.add_parser("compose", help="serialize FILE1 after FILE2")
    p.add_argument("file1")
    p.add_argument("file2")
    p.add_argument("-o", "--output", help="write to a file instead of stdout")
    p.set_defaults(func=_cmd_compose)

    p = sub.add_parser("inverse", help="serialize the inverse machine")
    p.add_argument("file")
    p.add_argument("-o", "--output", help="write to a file instead of stdout")
    p.set_defaults(func=_cmd_inverse)

    p = sub.add_parser("minimize", help="serialize the minimal machine")
    p.add_argument("file")
    p.add_argument("-o", "--output", help="write to a file instead of stdout")
    p.set_defaults(func=_cmd_minimize)

    p = sub.add_parser("dot", help="print the transition diagram in DOT format")
    p.add_argument("file")
    p.set_defaults(func=_cmd_dot)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 0
    try:
        return args.func(args)
    except AutomatonError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
