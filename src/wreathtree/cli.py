"""Command line front end.

Each command is one row of ``COMMANDS`` (help, handler, number of input
files, options), and ``_build_parser`` makes the subcommands from it.
One place, ``_run``, loads the files and prints.  Analysis handlers
return a document, to which ``_run`` adds the ``command`` and
``input.*`` keys (``input1.*``, ``input2.*`` for two files) and prints
it as ``key = value`` lines in sorted order, so output is byte-stable.
compose, inverse, minimize and dot return text, written to stdout or
to ``-o``.  The exit code says whether the analysis ran, never what the
verdict was, and ``main`` alone sets it: 0 when done, 1 on usage
errors, 2 on unreadable or invalid input.
"""

import argparse
import sys

from .automaton import (
    AutomatonError,
    AutomatonFile,
    NotCyclicError,
    ParseError,
    _moduli,
    _read_int,
    format_word,
    parse_automaton,
    parse_word,
    serialize_automaton,
    to_dot,
    validate_cyclic,
)
from .modmath import series_stream
from .oracle import level_transitive

# coeffs prints at most this many terms; the stream itself is unbounded
COUNT_CAP = 10**6


class CountTooLargeError(AutomatonError):
    """coeffs was asked for more terms than ``COUNT_CAP``."""


def _load(path: str) -> tuple[AutomatonFile, bytes]:
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: byte {exc.start} is {data[exc.start]:#04x}") from None
    return parse_automaton(text), data


def _count(text: str) -> int:
    """argparse type for a count: a nonnegative integer in ASCII digits."""
    value = _read_int(text)
    if value is None:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if text[0] == "-":  # "-0" too: a count has no sign
        raise argparse.ArgumentTypeError(f"must not be negative, got {text}")
    return value


def _render(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_render(v) for v in value) + "]"
    return str(value)


def _validate(args, parsed) -> dict:
    m = parsed.automaton
    doc = {
        "alphabet": m.k,
        "states": m.names,
        "invertible": True,
        "initial": None if parsed.initial is None else m.names[parsed.initial],
    }
    derived = None
    try:
        derived = validate_cyclic(m)
    except NotCyclicError as exc:
        doc["cyclic.obstruction"] = exc.state
    doc["cyclic"] = derived is not None
    labels = parsed.labels if parsed.labels is not None else derived
    if labels is not None:
        doc["labels.source"] = "explicit" if parsed.labels is not None else "derived"
        doc["labels.moduli"] = labels.moduli
        for q, name in enumerate(m.names):
            doc[f"label.{name}"] = labels.labels[q]
    return doc


def _transitive(args, parsed) -> dict:
    from .decide import is_spherically_transitive

    g = parsed.initial_automaton()
    verdict = is_spherically_transitive(g)
    return {
        "method": "stream",
        "modulus": g.k,
        "transitive": verdict.transitive,
        "first_bad_index": verdict.first_bad_index,
        "stream.preperiod": verdict.stream.preperiod,
        "stream.period": verdict.stream.period,
    }


def _coeffs(args, parsed) -> dict:
    if args.count > COUNT_CAP:
        raise CountTooLargeError(f"count {args.count} is above the cap of {COUNT_CAP}")
    stream = series_stream(parsed.initial_automaton(), parsed.labels, args.component)
    return {
        "component": args.component,
        "count": args.count,
        "modulus": stream.modulus,
        "terms": stream.terms(args.count),
        "stream.preperiod": stream.preperiod,
        "stream.period": stream.period,
    }


def _rational(args, parsed) -> dict:
    from .decide import rational_form

    series = rational_form(parsed.initial_automaton(), parsed.labels, args.component)
    return {
        "component": args.component,
        "modulus": series.modulus,
        "numerator": series.numerator,
        "denominator": series.denominator,
    }


def _equal_ab(args, parsed_f, parsed_g) -> dict:
    from .decide import abelianization_equal

    f, g = parsed_f.initial_automaton(), parsed_g.initial_automaton()
    equal, witness = abelianization_equal(f, g, parsed_f.labels, parsed_g.labels)
    return {"equal": equal, "witness": witness, "moduli": _moduli(f.automaton, parsed_f.labels)}


def _conjugate(args, parsed_f, parsed_g) -> dict:
    from .decide import conjugate

    verdict = conjugate(parsed_f.initial_automaton(), parsed_g.initial_automaton())
    return {"verdict": verdict.status.value, "reason": verdict.reason}


def _orbit(args, parsed) -> dict:
    report = level_transitive(parsed.initial_automaton(), args.level)
    return {
        "level": report.level,
        "orbit_count": report.orbit_count,
        "max_orbit": report.max_orbit,
        "transitive": report.transitive,
    }


def _apply(args, parsed) -> dict:
    g = parsed.initial_automaton()
    word = parse_word(args.word, g.k)
    return {
        "word.input": format_word(word, g.k),
        "word.output": format_word(g.apply(word), g.k),
    }


def _machine(build):
    """Handler that serializes the machine ``build`` makes from the input machines."""

    def handler(args, *parsed) -> str:
        g = build(*(p.initial_automaton() for p in parsed))
        return serialize_automaton(g.automaton, g.initial)

    return handler


def _dot(args, parsed) -> str:
    return to_dot(parsed.automaton, parsed.initial)


# option specs: (flags, add_argument keywords)
_COUNT = (("--count",), {"type": _count, "required": True, "help": "how many terms"})
_COMPONENT = (("--component",), {"type": _count, "default": 0, "help": "label component index"})
_LEVEL = (("--level",), {"type": _count, "required": True})
_WORD = (("--word",), {"required": True})
_OUTPUT = (("-o", "--output"), {"help": "write to a file instead of stdout"})

# name -> (help, handler, number of input files, option specs), in --help order
COMMANDS = {
    "validate": ("check an automaton file and report diagnostics", _validate, 1, ()),
    "transitive": ("decide spherical transitivity", _transitive, 1, ()),
    "coeffs": ("print abelianization series coefficients", _coeffs, 1, (_COUNT, _COMPONENT)),
    "rational": ("print the series as a rational function mod m", _rational, 1, (_COMPONENT,)),
    "equal-ab": ("compare the abelianization series of two machines", _equal_ab, 2, ()),
    "conjugate": ("three-valued conjugacy test", _conjugate, 2, ()),
    "orbit": ("enumerate one tree level and count orbits", _orbit, 1, (_LEVEL,)),
    "apply": ("apply the machine to one word", _apply, 1, (_WORD,)),
    "compose": ("serialize FILE1 after FILE2", _machine(lambda f, g: f.compose(g)), 2, (_OUTPUT,)),
    "inverse": ("serialize the inverse machine", _machine(lambda g: g.inverse()), 1, (_OUTPUT,)),
    "minimize": ("serialize the minimal machine", _machine(lambda g: g.minimize()), 1, (_OUTPUT,)),
    "dot": ("print the transition diagram in DOT format", _dot, 1, ()),
}

# positional file arguments and document key prefixes, by number of input files
_FILES = {1: (("file",), ("input",)), 2: (("file1", "file2"), ("input1", "input2"))}


def _run(args) -> int:
    """Load the input files, run the handler and write what it returns."""
    _, handler, n_files, _ = COMMANDS[args.command]
    names, prefixes = _FILES[n_files]
    paths = [getattr(args, name) for name in names]
    loaded = [_load(path) for path in paths]
    result = handler(args, *(parsed for parsed, _ in loaded))
    if isinstance(result, dict):
        import hashlib  # only documents print the inputs' digests

        result["command"] = args.command
        for prefix, path, (_, data) in zip(prefixes, paths, loaded):
            result[f"{prefix}.path"] = path
            result[f"{prefix}.sha256"] = hashlib.sha256(data).hexdigest()
        result = "".join(f"{key} = {_render(result[key])}\n" for key in sorted(result))
    if args.output is None:
        sys.stdout.write(result)
    else:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(result)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wreathtree",
        description="Analyze tree automorphisms given by invertible Mealy automata.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, n_files, options) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for file_arg in _FILES[n_files][0]:
            p.add_argument(file_arg)
        for flags, spec in options:
            p.add_argument(*flags, **spec)
        p.set_defaults(output=None)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
        return 1 if exc.code == 2 else exc.code
    try:
        return _run(args)
    except AutomatonError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
