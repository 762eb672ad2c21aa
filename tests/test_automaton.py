import contextlib
import io
import itertools
import os
import random
import tempfile
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpus
from wreathtree import (
    AbelianLabels,
    AutomatonError,
    InitialAutomaton,
    MealyAutomaton,
    RationalSeries,
    abelian_coefficient_bruteforce,
    abelian_vector,
    abelianization_equal,
    coefficient_stream,
    incidence_matrix,
    level_transitive,
    parse_automaton,
    rational_form,
    serialize_automaton,
    series_expand,
    to_dot,
    validate_cyclic,
)
from wreathtree.automaton import (
    AlphabetMismatchError,
    AutomatonFile,
    BadComponentError,
    BadPermutationError,
    BadSymbolError,
    DimensionMismatchError,
    MissingAlphabetError,
    MissingInitialError,
    NegativeIndexError,
    NotCyclicError,
    ParseError,
    UnknownStateError,
    _behavior_classes,
    format_word,
    parse_word,
)
from wreathtree.cli import main
from wreathtree.modmath import EventuallyPeriodicStream, series_stream, series_terms

LAMPLIGHTER_TEXT = """\
alphabet 2
state a perm 0 1 to a b
state b perm 1 0 to a b
initial b
"""


# ---------- parsing ----------


def test_parse_lamplighter_structure():
    parsed = parse_automaton(LAMPLIGHTER_TEXT)
    m = parsed.automaton
    assert m.k == 2
    assert m.names == ("a", "b")
    assert m.delta == ((0, 1), (0, 1))
    assert m.out == ((0, 1), (1, 0))
    assert parsed.initial == 1
    assert parsed.labels is None
    assert m.names[parsed.initial_automaton().initial] == "b"


def test_parse_single_state_identity():
    parsed = parse_automaton("alphabet 2\nstate e perm 0 1 to e e\ninitial e\n")
    assert parsed.automaton.n_states == 1
    assert parsed.automaton.delta == ((0, 0),)


def test_parse_ignores_comments_and_blank_lines():
    text = """
# a comment line
alphabet 2   # trailing comment

state a perm 1 0 to a a
\t state b \t perm 0 1  to  a b
initial a
"""
    parsed = parse_automaton(text)
    assert parsed.automaton.names == ("a", "b")
    assert parsed.initial == 0


def test_parse_forward_references_allowed():
    text = "alphabet 2\nstate a perm 0 1 to b b\nstate b perm 0 1 to a a\n"
    parsed = parse_automaton(text)
    assert parsed.automaton.delta == ((1, 1), (0, 0))


def test_parse_labels_block():
    text = (
        "alphabet 2\n"
        "state a perm 0 1 to a b\n"
        "state b perm 1 0 to a b\n"
        "initial b\n"
        "abelian 2 3\n"
        "label a 0 2\n"
        "label b 1 0\n"
    )
    parsed = parse_automaton(text)
    assert parsed.labels.moduli == (2, 3)
    assert parsed.labels.labels == ((0, 2), (1, 0))


def test_parse_rejects_non_bijective_row():
    with pytest.raises(BadPermutationError) as err:
        parse_automaton("alphabet 2\nstate a perm 0 0 to a a\n")
    assert err.value.state == "a"


def test_parse_rejects_out_of_range_symbol_row():
    with pytest.raises(BadPermutationError):
        parse_automaton("alphabet 2\nstate a perm 0 5 to a a\n")


def test_parse_missing_alphabet():
    with pytest.raises(MissingAlphabetError):
        parse_automaton("state a perm 0 1 to a a\n")
    with pytest.raises(MissingAlphabetError):
        parse_automaton("# nothing here\n")


def test_parse_unknown_state_reference():
    with pytest.raises(UnknownStateError) as err:
        parse_automaton("alphabet 2\nstate a perm 0 1 to a zz\n")
    assert err.value.name == "zz"
    with pytest.raises(UnknownStateError):
        parse_automaton("alphabet 2\nstate a perm 0 1 to a a\ninitial zz\n")


def test_parse_error_carries_line_number():
    with pytest.raises(ParseError) as err:
        parse_automaton("alphabet 2\nstate a perm 0 1 to a a\nwhatever x\n")
    assert err.value.line == 3


@pytest.mark.parametrize(
    "char", ["\f", "\v", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"],
    ids=["FF", "VT", "FS", "GS", "RS", "NEL", "LS", "PS"],
)
def test_parse_ends_lines_only_at_newlines(char):
    # str.splitlines breaks at each of these, which made the rest of a comment a directive
    head = f"alphabet 2\n# a{char}state b perm 0 1 to b b\nstate a perm 1 0 to a a\n"
    parsed = parse_automaton(head + "initial a\n")
    assert parsed.automaton.names == ("a",) and parsed.initial == 0
    for text in (head + "bogus\n", (head + "bogus\n").replace("\n", "\r\n")):
        with pytest.raises(ParseError) as err:
            parse_automaton(text)
        assert str(err.value) == "line 4: unknown directive 'bogus'"
    with pytest.raises(ParseError, match="line 4: unknown directive 'bogus'"):
        parse_automaton(head.replace("\n", "\r") + "bogus")


@pytest.mark.parametrize(
    "text",
    [
        "alphabet 2\nalphabet 2\nstate a perm 0 1 to a a\n",
        "alphabet 1\nstate a perm 0 to a\n",
        "alphabet two\n",
        "alphabet 2\nstate a perm 0 1 to a a\nstate a perm 0 1 to a a\n",
        "alphabet 2\nstate a perm 0 1 to a a\ninitial a\ninitial a\n",
        "alphabet 2\nstate a perm 0 1 to a\n",
        "alphabet 2\nstate a perm 0 1 xx a a\n",
        "alphabet 2\nstate a-b perm 0 1 to a-b a-b\n",
        "alphabet 2\n",
        "alphabet 2\nstate a perm 0 1 to a a\nlabel a 1\n",
        "alphabet 2\nstate a perm 0 1 to a a\nabelian 2\n",
        "alphabet 2\nstate a perm 0 1 to a a\nabelian 2\nlabel a 5\n",
        "alphabet 2\nstate a perm 0 1 to a a\nabelian 2\nlabel a 1 1\n",
        "alphabet 2\nstate a perm 0 1 to a a\nabelian 2\nlabel a 0\nlabel a 0\n",
        "alphabet 2\nstate a perm 0 1 to a a\nabelian 1\nlabel a 0\n",
        "alphabet\n",
        "alphabet 2\nstate a perm 0 1 to a a\ninitial\n",
        "alphabet 2\nstate a perm 0 1 to a a\nabelian 2\nabelian 2\nlabel a 0\n",
        "alphabet 2\nstate a perm 0 1 to a a\nabelian\n",
    ],
)
def test_parse_rejects_malformed_text(text):
    with pytest.raises(ParseError):
        parse_automaton(text)


_A = "alphabet 2\n"
_S = "state a perm 0 1 to a a\n"
_AB = "state a perm 0 1 to a a\nstate b perm 1 0 to a b\n"
_ROW = "output row (0, 0) of state 'a' is not a permutation of the alphabet"

# every refusal of parse_automaton: text -> class, message, line (None when no line is named)
REFUSALS = {
    "duplicate-alphabet": (_A + _A + _S, ParseError, "line 2: duplicate alphabet directive", 2),
    # a second alphabet, initial or abelian is a duplicate whatever its arguments
    "duplicate-alphabet-usage": (
        _A + "alphabet 2 3\n", ParseError, "line 2: duplicate alphabet directive", 2
    ),
    "alphabet-usage": ("alphabet 2 3\n", ParseError, "line 1: expected: alphabet <k>", 1),
    "alphabet-integer": ("alphabet two\n", ParseError, "line 1: expected an integer, got 'two'", 1),
    "alphabet-size": ("alphabet 1\n", ParseError, "line 1: alphabet size 1 must be at least 2", 1),
    "state-before-alphabet": (
        _S, MissingAlphabetError, "line 1: alphabet must be declared before states", 1
    ),
    "state-usage": (
        _A + "state a perm 0 1 xx a a\n",
        ParseError,
        "line 2: expected: state <name> perm <2 symbols> to <2 states>",
        2,
    ),
    "state-name": (_A + "state a-b perm 0 1 to a a\n", ParseError, "line 2: bad state name 'a-b'", 2),
    "duplicate-state": (_A + _S + _S, ParseError, "line 3: duplicate state 'a'", 3),
    "state-integer": (
        _A + "state a perm 0 x to a a\n", ParseError, "line 2: expected an integer, got 'x'", 2
    ),
    "initial-usage": (_A + _S + "initial a a\n", ParseError, "line 3: expected: initial <state>", 3),
    "duplicate-initial": (
        _A + _S + "initial a\ninitial a\n", ParseError, "line 4: duplicate initial directive", 4
    ),
    "duplicate-initial-usage": (
        _A + _S + "initial a\ninitial a a\n", ParseError, "line 4: duplicate initial directive", 4
    ),
    "abelian-usage": (_A + _S + "abelian\n", ParseError, "line 3: expected: abelian <m1> ...", 3),
    "duplicate-abelian": (
        _A + _S + "abelian 2\nabelian 2\n", ParseError, "line 4: duplicate abelian directive", 4
    ),
    "duplicate-abelian-usage": (
        _A + _S + "abelian 2\nabelian\n", ParseError, "line 4: duplicate abelian directive", 4
    ),
    "abelian-integer": (
        _A + _S + "abelian x\n", ParseError, "line 3: expected an integer, got 'x'", 3
    ),
    "modulus": (_A + _S + "abelian 1\n", ParseError, "line 3: modulus 1 must be at least 2", 3),
    "label-before-abelian": (
        _A + _S + "label a 0\nabelian 2\n",
        ParseError,
        "line 3: abelian directive must come before labels",
        3,
    ),
    "label-usage": (
        _A + _S + "abelian 2\nlabel a 0 0\n",
        ParseError,
        "line 4: expected: label <state> <1 residues>",
        4,
    ),
    "label-integer": (
        _A + _S + "abelian 2\nlabel a x\n", ParseError, "line 4: expected an integer, got 'x'", 4
    ),
    "duplicate-label": (
        _A + _S + "abelian 2\nlabel a 0\nlabel a 1\n",
        ParseError,
        "line 5: duplicate label for state 'a'",
        5,
    ),
    "label-range": (
        _A + _S + "abelian 2\nlabel a 5\n",
        ParseError,
        "line 4: label component 5 is out of range mod 2",
        4,
    ),
    "unknown-directive": (_A + _S + "bogus 1\n", ParseError, "line 3: unknown directive 'bogus'", 3),
    "no-alphabet": ("# nothing here\n", MissingAlphabetError, "no alphabet declared", None),
    "no-states": (_A, ParseError, "no states declared", None),
    "unknown-target": (
        _A + "state a perm 0 1 to a zz\n", UnknownStateError, "line 2: unknown state 'zz'", 2
    ),
    "output-row": (_A + "state a perm 0 0 to a a\n", BadPermutationError, _ROW, None),
    "unknown-initial": (_A + _S + "initial zz\n", UnknownStateError, "line 3: unknown state 'zz'", 3),
    "unknown-label-state": (
        _A + _S + "abelian 2\nlabel a 0\nlabel zz 1\n",
        UnknownStateError,
        "line 5: unknown state 'zz'",
        5,
    ),
    "missing-label": (
        _A + _AB + "abelian 2\nlabel a 0\n", ParseError, "missing label for state 'b'", None
    ),
    # two faults: the first in the order targets, output rows, initial, label names, missing labels
    "target-before-row": (
        _A + "state a perm 0 0 to a zz\ninitial zz\n",
        UnknownStateError,
        "line 2: unknown state 'zz'",
        2,
    ),
    "row-before-initial": (
        _A + "state a perm 0 0 to a a\ninitial zz\n", BadPermutationError, _ROW, None
    ),
    "initial-before-label-state": (
        _A + _S + "initial zz\nabelian 2\nlabel zz 0\n",
        UnknownStateError,
        "line 3: unknown state 'zz'",
        3,
    ),
    "label-state-before-missing-label": (
        _A + _AB + "abelian 2\nlabel zz 0\n", UnknownStateError, "line 5: unknown state 'zz'", 5
    ),
}


@pytest.mark.parametrize("case", REFUSALS.values(), ids=REFUSALS.keys())
def test_parse_names_every_refusal(case):
    text, error, message, line = case
    with pytest.raises(AutomatonError) as err:
        parse_automaton(text)
    assert type(err.value) is error
    assert str(err.value) == message
    assert getattr(err.value, "line", None) == line


def test_parse_drops_one_leading_byte_order_mark():
    text = "alphabet 2\nstate a perm 1 0 to a a\ninitial a\n"
    assert parse_automaton("\ufeff" + text) == parse_automaton(text)
    with pytest.raises(ParseError) as err:
        parse_automaton("\ufeff\ufeff" + text)
    assert str(err.value) == "line 1: unknown directive '\\ufeffalphabet'"
    with pytest.raises(ParseError) as err:
        parse_automaton(text + "\ufeffinitial a\n")
    assert str(err.value) == "line 4: unknown directive '\\ufeffinitial'"


def test_parse_messages_show_invisible_characters():
    # U+200B is no whitespace, so it stays in the token; the message shows it escaped
    base = "alphabet 2\nstate a perm 1 0 to a a\n"
    for tail, message in (
        ("initial a\u200b\n", "line 3: unknown state 'a\\u200b'"),
        ("\u200binitial a\n", "line 3: unknown directive '\\u200binitial'"),
        ("state a\u200b perm 1 0 to a a\n", "line 3: bad state name 'a\\u200b'"),
    ):
        with pytest.raises(ParseError) as err:
            parse_automaton(base + tail)
        assert str(err.value) == message


LABELLED_TEXT = "alphabet 2\nstate a perm 1 0 to a a\ninitial a\nabelian 2\nlabel a 1\n"


@pytest.mark.parametrize(
    "line, replacement, token",
    [
        (1, "alphabet \uff12", "\uff12"),  # full-width 2
        (1, "alphabet +2", "+2"),
        (1, "alphabet 1_0", "1_0"),
        (2, "state a perm \u0661 \u0660 to a a", "\u0661"),  # Arabic-Indic 1 0
        (4, "abelian \u0663", "\u0663"),
        (5, "label a \u0661", "\u0661"),
    ],
)
def test_parse_reads_integers_in_ascii_digits_only(line, replacement, token):
    # int() accepts all of these; the format is '-' and ASCII digits only
    lines = LABELLED_TEXT.splitlines()
    lines[line - 1] = replacement
    with pytest.raises(ParseError) as err:
        parse_automaton("\n".join(lines) + "\n")
    assert err.value.line == line
    assert str(err.value) == f"line {line}: expected an integer, got {token!r}"


def test_parse_keeps_the_sign_of_negative_integers():
    with pytest.raises(ParseError, match="line 1: alphabet size -3 must be at least 2"):
        parse_automaton("alphabet -3\n")


def test_parse_names_an_out_of_range_label_as_the_labels_do():
    # the parser and AbelianLabels word the same fault the same way
    with pytest.raises(ParseError) as err:
        parse_automaton("alphabet 2\nstate a perm 0 1 to a a\nabelian 2\nlabel a 5\n")
    assert str(err.value) == "line 4: label component 5 is out of range mod 2"
    with pytest.raises(AutomatonError) as err:
        AbelianLabels((2,), ((5,),))
    assert str(err.value) == "label component 5 is out of range mod 2"


ONE_STATE = MealyAutomaton(2, ("a",), ((0, 0),), ((1, 0),))

# every owner of the residue rule, built from a modulus m and a residue v:
# the builder, the message prefix for a bad modulus and for a bad residue,
# and the role the residue is named by
RESIDUE_OWNERS = {
    "AbelianLabels": (lambda m, v: AbelianLabels((m,), ((v,),)), "", "", "label component"),
    "EventuallyPeriodicStream": (
        lambda m, v: EventuallyPeriodicStream(m, (), (v,)), "", "", "term"
    ),
    "coefficient_stream": (
        lambda m, v: coefficient_stream(incidence_matrix(ONE_STATE), (m, (v,)), 0),
        "",
        "",
        "vector entry",
    ),
    "parse_automaton": (
        lambda m, v: parse_automaton(
            f"alphabet 2\nstate a perm 0 1 to a a\nabelian {m}\nlabel a {v}\n"
        ),
        "line 3: ",
        "line 4: ",
        "label component",
    ),
    "RationalSeries": (lambda m, v: RationalSeries(m, (v,), (1,)), "", None, None),
}


@pytest.mark.parametrize("owner", [owner for owner in RESIDUE_OWNERS if owner != "parse_automaton"])
def test_every_owner_refuses_a_residue_that_is_not_an_integer(owner):
    # the parser reads ASCII digits only, so only library callers can pass these
    build, _, _, role = RESIDUE_OWNERS[owner]
    for m, v, value in (
        (2.0, 0, "modulus 2.0"),
        (3, 0.5, f"{role or 'coefficient'} 0.5"),
        (True, 0, "modulus True"),  # True is an int, but no residue
        (3, True, f"{role or 'coefficient'} True"),
    ):
        with pytest.raises(AutomatonError) as err:
            build(m, v)
        assert type(err.value) is AutomatonError
        assert str(err.value) == f"{value} is not an integer"


@pytest.mark.parametrize("owner", RESIDUE_OWNERS)
def test_every_owner_words_the_residue_rule_alike(owner):
    build, at_modulus, at_residue, role = RESIDUE_OWNERS[owner]
    error = ParseError if at_modulus else AutomatonError
    with pytest.raises(AutomatonError) as err:
        build(1, 0)
    assert type(err.value) is error
    assert str(err.value) == f"{at_modulus}modulus 1 must be at least 2"
    if role is None:  # a rational series reduces its coefficients instead
        assert build(3, 5).numerator == (2,)
        return
    for v in (3, -1):
        with pytest.raises(AutomatonError) as err:
            build(3, v)
        assert type(err.value) is error
        assert str(err.value) == f"{at_residue}{role} {v} is out of range mod 3"


# every argument that is an index, a count, a level or a cap, called with a
# value v: the call, the role the value is named by, the least value past
# the bound (None where there is no bound) and the error for a negative
# value or one past the bound
INDEX_OWNERS = {
    "InitialAutomaton": (
        lambda v: InitialAutomaton(ONE_STATE, v), "initial state index", 1, AutomatonError
    ),
    "AutomatonFile": (
        lambda v: AutomatonFile(ONE_STATE, v, None), "initial state index", 1, AutomatonError
    ),
    "serialize_automaton": (
        lambda v: serialize_automaton(ONE_STATE, v), "initial state index", 1, AutomatonError
    ),
    "to_dot": (lambda v: to_dot(ONE_STATE, v), "initial state index", 1, AutomatonError),
    "term": (
        lambda v: EventuallyPeriodicStream(2, (), (1,)).term(v),
        "stream index",
        None,
        NegativeIndexError,
    ),
    "terms": (
        lambda v: EventuallyPeriodicStream(2, (), (1,)).terms(v),
        "term count",
        None,
        NegativeIndexError,
    ),
    "abelian_vector": (
        lambda v: abelian_vector(validate_cyclic(ONE_STATE), v),
        "component",
        1,
        BadComponentError,
    ),
    "series_stream": (
        lambda v: series_stream(corpus.odometer(), None, v), "component", 1, BadComponentError
    ),
    "coefficient_stream-init": (
        lambda v: coefficient_stream(incidence_matrix(ONE_STATE), (2, (1,)), v),
        "initial state index",
        1,
        DimensionMismatchError,
    ),
    "coefficient_stream-cap": (
        lambda v: coefficient_stream(incidence_matrix(ONE_STATE), (2, (1,)), 0, v),
        "visit cap",
        None,
        NegativeIndexError,
    ),
    "series_expand": (
        lambda v: series_expand(RationalSeries(2, (1,), (1, 1)), v),
        "term count",
        None,
        NegativeIndexError,
    ),
    "level_transitive": (
        lambda v: level_transitive(corpus.odometer(), v), "level", None, NegativeIndexError
    ),
    "abelian_coefficient_bruteforce": (
        lambda v: abelian_coefficient_bruteforce(corpus.odometer(), v),
        "level",
        None,
        NegativeIndexError,
    ),
}
# where None means "no initial state" and is no fault
NO_INITIAL_STATE = {"AutomatonFile", "serialize_automaton", "to_dot"}


@pytest.mark.parametrize("owner", INDEX_OWNERS)
def test_every_owner_words_the_index_rule_alike(owner):
    # the CLI's parser yields only ints, so only library callers can pass these
    call, role, bound, error = INDEX_OWNERS[owner]
    for v in (0.5, "1", None, True):
        if v is None and owner in NO_INITIAL_STATE:
            call(v)
            continue
        with pytest.raises(AutomatonError) as err:
            call(v)
        assert type(err.value) is AutomatonError
        assert str(err.value) == f"{role} {v!r} is not an integer"
    for v in (-1,) if bound is None else (-1, bound):
        with pytest.raises(AutomatonError) as err:
            call(v)
        assert type(err.value) is error
        assert str(err.value) == f"{role} {v} is {'negative' if bound is None else 'out of range'}"


NON_CYCLIC = InitialAutomaton(MealyAutomaton(3, ("s",), ((0, 0, 0),), ((0, 2, 1),)), 0)


def _refusal(call):
    """The owner that calls call(g, labels), as (error class name, message)."""

    def owner(g, labels):
        with pytest.raises(AutomatonError) as err:
            call(g, labels)
        return type(err.value).__name__, str(err.value)

    return owner


def _cli_refusal(command, n_files, *options):
    """The owner that runs a command on files holding g, as (error class name, message)."""

    def owner(g, labels):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "g.aut")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(serialize_automaton(g.automaton, g.initial, labels))
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                assert main([command, *[path] * n_files, *options]) == 2
        name, message = err.getvalue().removeprefix("error: ").removesuffix("\n").split(": ", 1)
        return name, message

    return owner


# every owner of the label rule, called with a machine g and its labels, or
# None for the default shifts mod k; it answers with what it was refused by
LABEL_OWNERS = {
    "series_stream": _refusal(series_stream),
    "series_terms": _refusal(series_terms),
    "rational_form": _refusal(rational_form),
    "abelianization_equal-f": _refusal(
        lambda g, labels: abelianization_equal(g, corpus.identity_machine(g.k), labels, None)
    ),
    "abelianization_equal-g": _refusal(
        lambda g, labels: abelianization_equal(corpus.identity_machine(g.k), g, None, labels)
    ),
    "abelian_coefficient_bruteforce": _refusal(
        lambda g, labels: abelian_coefficient_bruteforce(g, 1, labels)
    ),
    "AutomatonFile": _refusal(lambda g, labels: AutomatonFile(g.automaton, g.initial, labels)),
    "cli-equal-ab": _cli_refusal("equal-ab", 2),
    "cli-coeffs": _cli_refusal("coeffs", 1, "--count", "3"),
}


@pytest.mark.parametrize("owner", LABEL_OWNERS)
def test_every_owner_words_the_label_rule_alike(owner):
    refused = LABEL_OWNERS[owner]
    if owner == "AutomatonFile":  # a file may hold any machine: it needs no shifts
        AutomatonFile(NON_CYCLIC.automaton, NON_CYCLIC.initial, None)
    else:
        assert refused(NON_CYCLIC, None) == (
            "NotCyclicError",
            "output permutation of state 's' is not a power of the standard cycle",
        )
    if owner.startswith("cli-"):  # a file holds exactly one label line per state
        return
    for rows in (((1,),), ((1,), (0,), (1,))):
        assert refused(corpus.odometer(), AbelianLabels((2,), rows)) == (
            "DimensionMismatchError",
            f"{len(rows)} label rows for 2 states",
        )


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: AbelianLabels((), ()), "at least one modulus is required"),
        (lambda: AbelianLabels((2,), ((1, 0),)), "label (1, 0) must have 1 components"),
        (
            lambda: MealyAutomaton(2, ("a-b",), ((0, 0),), ((0, 1),)),
            "bad state name 'a-b'",
        ),
        (
            lambda: MealyAutomaton(2, ("a", "b"), ((0, 0),), ((0, 1), (0, 1))),
            "delta and out need one row per state",
        ),
        (  # the names are judged one by one before they are compared
            lambda: MealyAutomaton(2, ("a", "a", "b-c"), ((0, 0),) * 3, ((0, 1),) * 3),
            "bad state name 'b-c'",
        ),
    ],
    ids=["no-moduli", "short-label-row", "bad-name", "missing-delta-row", "duplicate-and-bad-name"],
)
def test_constructors_reject_malformed_fields(build, message):
    with pytest.raises(AutomatonError) as err:
        build()
    assert type(err.value) is AutomatonError
    assert str(err.value) == message


@pytest.mark.parametrize(
    "build, message",
    [
        (
            lambda: MealyAutomaton(2.0, ("a",), ((0, 0),), ((1, 0),)),
            "alphabet size 2.0 is not an integer",
        ),
        (
            lambda: MealyAutomaton(2, ("a",), ((0, 0.0),), ((1, 0),)),
            "transition of state 'a' at 1 is not an integer: 0.0",
        ),
        (
            lambda: MealyAutomaton(2, (3,), ((0, 0),), ((1, 0),)),
            "bad state name 3",
        ),
        (
            lambda: InitialAutomaton(ONE_STATE, 0.0),
            "initial state index 0.0 is not an integer",
        ),
        (  # the name rule runs before the names are hashed for duplicates
            lambda: MealyAutomaton(2, (["a"],), ((0, 0),), ((0, 1),)),
            "bad state name ['a']",
        ),
    ],
    ids=["alphabet-size", "transition", "state-name", "initial", "unhashable-name"],
)
def test_machines_name_a_value_of_the_wrong_type(build, message):
    # each of these once passed its check and failed later with a TypeError
    with pytest.raises(AutomatonError) as err:
        build()
    assert type(err.value) is AutomatonError
    assert str(err.value) == message


def test_output_rows_of_floats_are_not_permutations():
    # sorted((1.0, 0)) == [0, 1], so the permutation check alone let this through
    with pytest.raises(BadPermutationError, match=r"output row \(1\.0, 0\) of state 'a'"):
        MealyAutomaton(2, ("a",), ((0, 0),), ((1.0, 0),))


# each malformed table the constructor refused when it looked at every name
# and every transition one at a time: the error type and message it gave then
OLD_REFUSALS = {
    "alphabet-size-1": (
        lambda: MealyAutomaton(1, ("a",), ((0,),), ((0,),)),
        AutomatonError,
        "alphabet size 1 must be at least 2",
    ),
    "alphabet-size-float": (
        lambda: MealyAutomaton(2.0, ("a",), ((0, 0),), ((1, 0),)),
        AutomatonError,
        "alphabet size 2.0 is not an integer",
    ),
    "no-states": (
        lambda: MealyAutomaton(2, (), (), ()),
        AutomatonError,
        "an automaton needs at least one state",
    ),
    "duplicate-names": (
        lambda: MealyAutomaton(2, ("a", "a"), ((0, 0), (0, 0)), ((0, 1), (0, 1))),
        AutomatonError,
        "duplicate state names",
    ),
    "name-with-dash": (
        lambda: MealyAutomaton(2, ("a", "a-b"), ((0, 0), (0, 0)), ((0, 1), (0, 1))),
        AutomatonError,
        "bad state name 'a-b'",
    ),
    "name-not-a-string": (
        lambda: MealyAutomaton(2, ("a", 3), ((0, 0), (0, 0)), ((0, 1), (0, 1))),
        AutomatonError,
        "bad state name 3",
    ),
    "name-with-newline": (
        lambda: MealyAutomaton(2, ("a", "b\nc"), ((0, 0), (0, 0)), ((0, 1), (0, 1))),
        AutomatonError,
        "bad state name 'b\\nc'",
    ),
    "name-with-trailing-newline": (
        lambda: MealyAutomaton(2, ("a\n", "b"), ((0, 0), (0, 0)), ((0, 1), (0, 1))),
        AutomatonError,
        "bad state name 'a\\n'",
    ),
    "empty-name": (
        lambda: MealyAutomaton(2, ("a", ""), ((0, 0), (0, 0)), ((0, 1), (0, 1))),
        AutomatonError,
        "bad state name ''",
    ),
    "first-of-two-bad-names": (
        lambda: MealyAutomaton(2, ("a", "b c", "d-e"), ((0, 0),) * 3, ((0, 1),) * 3),
        AutomatonError,
        "bad state name 'b c'",
    ),
    "missing-delta-row": (
        lambda: MealyAutomaton(2, ("a", "b"), ((0, 0),), ((0, 1), (0, 1))),
        AutomatonError,
        "delta and out need one row per state",
    ),
    "short-delta-row": (
        lambda: MealyAutomaton(2, ("a", "b"), ((0, 0), (0,)), ((0, 1), (0, 1))),
        AutomatonError,
        "rows of state 'b' must have 2 entries",
    ),
    "long-output-row": (
        lambda: MealyAutomaton(2, ("a", "b"), ((0, 0), (0, 0)), ((0, 1), (0, 1, 2))),
        AutomatonError,
        "rows of state 'b' must have 2 entries",
    ),
    "target-too-large": (
        lambda: MealyAutomaton(2, ("a", "b"), ((0, 0), (0, 2)), ((0, 1), (0, 1))),
        AutomatonError,
        "transition of state 'b' at 1 is out of range",
    ),
    "target-negative": (
        lambda: MealyAutomaton(2, ("a", "b"), ((0, 0), (-1, 0)), ((0, 1), (0, 1))),
        AutomatonError,
        "transition of state 'b' at 0 is out of range",
    ),
    "target-float": (
        lambda: MealyAutomaton(2, ("a",), ((0, 0.0),), ((1, 0),)),
        AutomatonError,
        "transition of state 'a' at 1 is not an integer: 0.0",
    ),
    "target-string": (
        lambda: MealyAutomaton(2, ("a",), (("0", 0),), ((1, 0),)),
        AutomatonError,
        "transition of state 'a' at 0 is not an integer: '0'",
    ),
    "row-length-before-later-target": (
        lambda: MealyAutomaton(2, ("a", "b"), ((0, 0, 0), (0, 5)), ((0, 1), (0, 1))),
        AutomatonError,
        "rows of state 'a' must have 2 entries",
    ),
    "target-before-output-row": (
        lambda: MealyAutomaton(2, ("a", "b"), ((0, 0), (0, 9)), ((0, 0), (0, 1))),
        AutomatonError,
        "transition of state 'b' at 1 is out of range",
    ),
    "output-row-repeats": (
        lambda: MealyAutomaton(2, ("a", "b"), ((0, 0), (0, 0)), ((0, 1), (0, 0))),
        BadPermutationError,
        "output row (0, 0) of state 'b' is not a permutation of the alphabet",
    ),
    "output-symbol-too-large": (
        lambda: MealyAutomaton(2, ("a",), ((0, 0),), ((0, 5),)),
        BadPermutationError,
        "output row (0, 5) of state 'a' is not a permutation of the alphabet",
    ),
    "output-row-of-floats": (
        lambda: MealyAutomaton(2, ("a",), ((0, 0),), ((1.0, 0),)),
        BadPermutationError,
        "output row (1.0, 0) of state 'a' is not a permutation of the alphabet",
    ),
    "first-bad-output-row": (
        lambda: MealyAutomaton(
            2, ("a", "b", "c", "d"), ((0, 0),) * 4, ((0, 1), (1, 1), (0, 1), (0, 0))
        ),
        BadPermutationError,
        "output row (1, 1) of state 'b' is not a permutation of the alphabet",
    ),
}


@pytest.mark.parametrize("case", OLD_REFUSALS)
def test_malformed_tables_are_refused_as_before(case):
    build, error, message = OLD_REFUSALS[case]
    with pytest.raises(AutomatonError) as err:
        build()
    assert type(err.value) is error
    assert str(err.value) == message


@pytest.mark.parametrize(
    "build, message",
    [
        (  # True is an int, but no state index
            lambda: MealyAutomaton(2, ("a", "b"), ((True, 0), (1, 1)), ((False, True), (1, 0))),
            "transition of state 'a' at 0 is not an integer: True",
        ),
        (
            lambda: MealyAutomaton(2, ("a", "b"), ((0, 0), (1, 1)), ((0, 1), (False, True))),
            "output row (False, True) of state 'b' is not a permutation of the alphabet",
        ),
        (  # the bool row comes first, so a set of rows would keep it
            lambda: MealyAutomaton(2, ("a", "b"), ((0, 0), (1, 1)), ((False, True), (0, 1))),
            "output row (False, True) of state 'a' is not a permutation of the alphabet",
        ),
        (  # (1.0, 0) == (1, 0): an equal row met first must not hide it
            lambda: MealyAutomaton(2, ("a", "b"), ((0, 0), (1, 1)), ((1, 0), (1.0, 0))),
            "output row (1.0, 0) of state 'b' is not a permutation of the alphabet",
        ),
        (
            lambda: MealyAutomaton(True, ("a",), ((0,),), ((0,),)),
            "alphabet size True is not an integer",
        ),
        (  # sorting this row raised a TypeError
            lambda: MealyAutomaton(2, ("a",), ((0, 0),), (("x", 0),)),
            "output row ('x', 0) of state 'a' is not a permutation of the alphabet",
        ),
    ],
    ids=["bool-target", "bool-row", "bool-row-first", "float-after-equal", "bool-k", "str-symbol"],
)
def test_machines_refuse_bools_and_rows_equal_to_good_ones(build, message):
    with pytest.raises(AutomatonError) as err:
        build()
    assert str(err.value) == message


def test_int_subclasses_still_pass_the_table_check():
    # only bool is refused among the subclasses of int
    class Symbol(int):
        pass

    m = MealyAutomaton(2, ("a",), ((Symbol(0), 0),), ((Symbol(1), 0),))
    assert m.delta == ((0, 0),) and m.out == ((1, 0),)


@pytest.mark.parametrize(
    "text, build",
    [
        ("alphabet 1\n", lambda: MealyAutomaton(1, ("a",), ((0,),), ((0,),))),
        (
            "alphabet 2\nstate a-b perm 0 1 to a a\n",
            lambda: MealyAutomaton(2, ("a-b",), ((0, 0),), ((0, 1),)),
        ),
    ],
    ids=["alphabet-size", "state-name"],
)
def test_parse_words_the_machine_rules_as_the_constructor_does(text, build):
    with pytest.raises(AutomatonError) as made:
        build()
    with pytest.raises(ParseError) as parsed:
        parse_automaton(text)
    assert str(parsed.value) == f"line {parsed.value.line}: {made.value}"


def test_parse_label_for_unknown_state():
    text = "alphabet 2\nstate a perm 0 1 to a a\nabelian 2\nlabel a 0\nlabel zz 1\n"
    with pytest.raises(UnknownStateError):
        parse_automaton(text)


def test_missing_initial_error():
    parsed = parse_automaton("alphabet 2\nstate a perm 0 1 to a a\n")
    with pytest.raises(MissingInitialError):
        parsed.initial_automaton()


# ---------- serialization ----------


def test_serialize_round_trip(rng):
    for _ in range(40):
        k = rng.choice([2, 3, 4, 11])
        g = corpus.random_invertible(rng, k)
        labels = corpus.random_labels(rng, g.automaton.n_states, (2, 5))
        text = serialize_automaton(g.automaton, g.initial, labels)
        parsed = parse_automaton(text)
        assert parsed.automaton == g.automaton
        assert parsed.initial == g.initial
        assert parsed.labels == labels
        # the emitted format is itself stable
        assert serialize_automaton(parsed.automaton, parsed.initial, parsed.labels) == text


def test_serialize_plain_machine(lamp_b):
    text = serialize_automaton(lamp_b.automaton, lamp_b.initial)
    assert text == LAMPLIGHTER_TEXT


# ---------- cyclic validation ----------


def test_validate_cyclic_lamplighter(lamp_b):
    labels = validate_cyclic(lamp_b.automaton)
    assert labels.moduli == (2,)
    assert labels.labels == ((0,), (1,))


def test_validate_cyclic_identity_k3():
    g = corpus.identity_machine(3)
    labels = validate_cyclic(g.automaton)
    assert labels.moduli == (3,)
    assert labels.labels == ((0,),)


def test_shift_amount():
    # every cyclic shift a -> a + e mod k is read back as the label e
    for k in range(2, 8):
        for e in range(k):
            m = MealyAutomaton(k, ("a",), ((0,) * k,), (corpus.cycle_row(k, e),))
            assert validate_cyclic(m).labels == ((e,),)


def test_validate_cyclic_rejects_transposition():
    m = MealyAutomaton(3, ("a",), ((0, 0, 0),), ((0, 2, 1),))
    with pytest.raises(NotCyclicError) as err:
        validate_cyclic(m)
    assert err.value.state == "a"


@pytest.mark.parametrize("k", [2, 3, 4, 6, 12])
def test_validate_cyclic_compares_each_row_with_its_rotation(k):
    # rotations read back as their first symbol; a row that starts like
    # rotation e but swaps its last two symbols is refused at its state,
    # the first such state when there are two (k = 2 has no such row)
    shifts = [0, 1, k - 1, 2 % k, 1]
    names = tuple(f"q{i}" for i in range(len(shifts)))
    delta = ((0,) * k,) * len(shifts)
    rows = [corpus.cycle_row(k, e) for e in shifts]
    assert validate_cyclic(MealyAutomaton(k, names, delta, rows)).labels == tuple(
        (e,) for e in shifts
    )
    if k == 2:
        return
    for bad in ([0], [2], [4], [1, 3], [3, 4]):
        out = list(rows)
        for q in bad:
            out[q] = out[q][:-2] + out[q][:-3:-1]
            assert out[q][0] == shifts[q]
        with pytest.raises(NotCyclicError) as err:
            validate_cyclic(MealyAutomaton(k, names, delta, out))
        assert err.value.state == names[bad[0]], (k, bad)


@pytest.mark.parametrize("k", [2, 3, 5, 12])
def test_validate_cyclic_judges_each_distinct_row_once(k):
    # rows repeat across states: the shifts are still read per state, and
    # the error names the first state whose row is bad, however the bad and
    # good rows repeat and interleave (k = 2 has no bad row)
    good = [corpus.cycle_row(k, e) for e in range(k)]
    rng = random.Random(k)
    n = 12
    names = tuple(f"q{i}" for i in range(n))
    delta = ((0,) * k,) * n

    def judged(out):
        return validate_cyclic(MealyAutomaton(k, names, delta, out))

    out = [rng.choice(good[:3]) for _ in range(n)]
    assert len(set(out)) < n
    assert judged(out).labels == tuple((row[0],) for row in out)
    if k == 2:
        return
    swapped = good[1][:-2] + good[1][:-3:-1]  # starts like rotation 1
    reversed_row = good[0][::-1]  # starts like rotation k - 1
    for places, first in (
        ({swapped: [4, 9]}, 4),  # one bad row, repeated
        ({swapped: [5, 10], reversed_row: [3, 8]}, 3),  # two bad rows, interleaved
        ({swapped: [2, 8], reversed_row: [5, 11]}, 2),
        ({reversed_row: [6, 7, 11]}, 6),
    ):
        bad = list(out)
        bad[:4] = [good[0]] * 4  # a good row repeated before the bad ones
        for row, states in places.items():
            for q in states:
                bad[q] = row
        with pytest.raises(NotCyclicError) as err:
            judged(bad)
        assert err.value.state == names[first], (k, places)
    pool = good[:2] + [swapped, reversed_row]
    for _ in range(50):
        bad = [rng.choice(pool) for _ in range(n)]
        first = next((q for q, row in enumerate(bad) if row not in good), None)
        if first is None:
            assert judged(bad).labels == tuple((row[0],) for row in bad)
            continue
        with pytest.raises(NotCyclicError) as err:
            judged(bad)
        assert err.value.state == names[first]


def test_validate_cyclic_memory_stays_linear_in_k():
    # a table of all k rotations would hold k^2 references, 32 MB here
    k = 2000
    rows = [corpus.cycle_row(k, e) for e in (5, 0, k - 1)]
    m = MealyAutomaton(k, ("a", "b", "c"), ((0,) * k,) * 3, rows)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        labels = validate_cyclic(m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert labels.labels == ((5,), (0,), (k - 1,))
    assert peak < 8 * k * k / 50, peak


def test_every_binary_invertible_machine_is_cyclic(rng):
    for _ in range(30):
        g = corpus.random_invertible(rng, 2)
        validate_cyclic(g.automaton)


# ---------- words ----------


def test_parse_word_digits():
    assert parse_word("0102", 3) == (0, 1, 0, 2)
    assert parse_word("", 2) == ()
    # the alphabet size is checked once, as the machines check it
    for text, k, message in (
        ("01", 2.0, "alphabet size 2.0 is not an integer"),
        ("0", 1, "alphabet size 1 must be at least 2"),
    ):
        with pytest.raises(AutomatonError) as err:
            parse_word(text, k)
        assert type(err.value) is AutomatonError
        assert str(err.value) == message


def test_parse_word_large_alphabet():
    assert parse_word("10, 0,11", 12) == (10, 0, 11)
    assert parse_word("", 12) == ()
    assert parse_word(" ", 12) == ()
    assert format_word((10, 0), 12) == "10,0"


# every refused word on both alphabets: the position and the token as typed
@pytest.mark.parametrize(
    "text, k, position, token",
    [
        ("12", 12, 0, "12"),
        ("-1,2", 12, 0, "-1"),
        ("-0", 12, 0, "-0"),
        ("+1", 12, 0, "+1"),
        ("1,,2", 12, 1, ""),
        ("1, x", 12, 1, "x"),
        ("1,\u0661", 12, 1, "\u0661"),  # int("\u0661") is 1: no Arabic-Indic digits
        ("1\u0661", 2, 1, "\u0661"),
        ("1\u00b2", 2, 1, "\u00b2"),  # "\u00b2".isdigit() holds but int() refuses it
        (",", 2, 0, ","),
        ("012", 2, 2, "2"),
    ],
    ids=[
        "out-of-range-wide", "negative", "negative-zero", "plus-sign", "empty-field",
        "letter", "non-ascii-wide", "non-ascii-narrow", "superscript", "comma-narrow",
        "out-of-range-narrow",
    ],
)
def test_parse_word_refusals(text, k, position, token):
    with pytest.raises(BadSymbolError) as err:
        parse_word(text, k)
    assert err.value.position == position
    assert str(err.value) == f"bad symbol {token!r} at position {position}"


# ---------- the tree action ----------


def test_apply_odometer_examples(odometer):
    assert odometer.apply("0") == "1"
    assert odometer.apply("11") == "00"
    assert odometer.apply((1, 1)) == (0, 0)
    assert odometer.apply("") == ""


def test_apply_counts_in_binary(odometer):
    # least significant bit first: the machine adds one mod 2^n
    for n in range(1, 7):
        for value in range(2**n):
            word = tuple((value >> i) & 1 for i in range(n))
            image = odometer.apply(word)
            got = sum(b << i for i, b in enumerate(image))
            assert got == (value + 1) % 2**n


def test_apply_rejects_bad_symbols(odometer):
    with pytest.raises(BadSymbolError):
        odometer.apply((0, 2))
    with pytest.raises(BadSymbolError):
        odometer.apply("21")
    # True is an int, but no symbol
    with pytest.raises(BadSymbolError, match="bad symbol True at position 0"):
        odometer.apply((True, 0))
    with pytest.raises(BadSymbolError, match="bad symbol False at position 1"):
        odometer.section((0, False))


def _recursive_apply(g, word):
    # the defining recursion: rewrite the first letter, recurse below it
    if not word:
        return ()
    a = word[0]
    rest = g.section((a,))
    return (g.automaton.out[g.initial][a],) + _recursive_apply(rest, word[1:])


def test_apply_matches_recursive_definition(rng):
    for _ in range(50):
        k = rng.choice([2, 3, 4])
        g = corpus.random_invertible(rng, k)
        w = corpus.random_word(rng, k)
        assert g.apply(w) == _recursive_apply(g, w)


def test_apply_is_a_bijection_per_level(rng):
    for _ in range(20):
        k = rng.choice([2, 3])
        g = corpus.random_invertible(rng, k)
        n = rng.randint(0, 4)
        words = [(v, tuple((v // k**i) % k for i in range(n))) for v in range(k**n)]
        images = {g.apply(w) for _, w in words}
        assert len(images) == k**n


# ---------- sections ----------


def test_section_examples(odometer, lamp_a):
    assert lamp_a.automaton.names[lamp_a.section("1").initial] == "b"
    assert odometer.automaton.names[odometer.section("0").initial] == "e"
    assert odometer.section("").initial == odometer.initial


def test_section_composes(rng):
    for _ in range(30):
        k = rng.choice([2, 3])
        g = corpus.random_invertible(rng, k)
        u = corpus.random_word(rng, k, 4)
        w = corpus.random_word(rng, k, 4)
        assert g.section(u + w) == g.section(u).section(w)


# ---------- inverse ----------


def test_inverse_odometer(odometer):
    assert odometer.inverse().apply("00") == "11"
    assert odometer.inverse().apply("1") == "0"


def test_inverse_round_trips_words(rng):
    for _ in range(40):
        k = rng.choice([2, 3, 4])
        g = corpus.random_invertible(rng, k)
        w = corpus.random_word(rng, k)
        assert g.inverse().apply(g.apply(w)) == w
        assert g.apply(g.inverse().apply(w)) == w


def test_inverse_requires_invertibility():
    # every machine is invertible: the constructor rejects other rows
    for row in ((0, 0), (0, 5)):
        with pytest.raises(BadPermutationError) as err:
            MealyAutomaton(2, ("a",), ((0, 0),), (row,))
        assert err.value.state == "a"
        assert str(row) in str(err.value)


def test_constructor_names_the_first_bad_state():
    delta = ((0, 0),) * 4
    out = ((0, 1), (1, 1), (0, 1), (0, 0))
    with pytest.raises(BadPermutationError) as err:
        MealyAutomaton(2, ("a", "b", "c", "d"), delta, out)
    assert err.value.state == "b"


# ---------- composition ----------


def test_compose_squares_the_odometer(odometer):
    square = odometer.compose(odometer)
    assert square.apply("00") == "01"
    assert square.apply("10") == "11"


def test_compose_applies_right_machine_first(rng):
    for _ in range(40):
        k = rng.choice([2, 3])
        f = corpus.random_invertible(rng, k)
        g = corpus.random_invertible(rng, k)
        w = corpus.random_word(rng, k)
        assert f.compose(g).apply(w) == f.apply(g.apply(w))


def test_compose_state_bound(rng):
    for _ in range(20):
        k = rng.choice([2, 3])
        f = corpus.random_invertible(rng, k)
        g = corpus.random_invertible(rng, k)
        bound = f.automaton.n_states * g.automaton.n_states
        assert f.compose(g).automaton.n_states <= bound


def test_compose_numbers_names_that_collide():
    # (a_b, c) and (a, b_c) both read a_b_c; the later pair gets a suffix
    f = InitialAutomaton(MealyAutomaton(2, ("a_b", "a"), ((1, 1), (1, 1)), ((0, 1), (1, 0))), 0)
    g = InitialAutomaton(MealyAutomaton(2, ("c", "b_c"), ((1, 1), (1, 1)), ((0, 1), (0, 1))), 0)
    h = f.compose(g)
    assert serialize_automaton(h.automaton, h.initial) == (
        "alphabet 2\n"
        "state a_b_c perm 0 1 to a_b_c_2 a_b_c_2\n"
        "state a_b_c_2 perm 1 0 to a_b_c_2 a_b_c_2\n"
        "initial a_b_c\n"
    )


def test_compose_rejects_mixed_alphabets():
    with pytest.raises(AlphabetMismatchError):
        corpus.identity_machine(2).compose(corpus.identity_machine(3))


def test_compose_with_identity(rng, identity2):
    for _ in range(10):
        g = corpus.random_invertible(rng, 2)
        assert identity2.compose(g).equivalent(g)
        assert g.compose(identity2).equivalent(g)


def test_composed_shift_labels_add(rng):
    # with cyclic rows the initial label of f(g(.)) is the sum of the labels
    for _ in range(30):
        k = rng.choice([2, 3, 5])
        f = corpus.random_cyclic(rng, k)
        g = corpus.random_cyclic(rng, k)
        fg = f.compose(g)
        lf = validate_cyclic(f.automaton).labels[f.initial][0]
        lg = validate_cyclic(g.automaton).labels[g.initial][0]
        lfg = validate_cyclic(fg.automaton).labels[fg.initial][0]
        assert lfg == (lf + lg) % k


def _reference_compose(f, g):
    """(names, delta, out, initial) of f(g(.)) by the first product loop, over tuple keys."""
    fa, ga = f.automaton, g.automaton
    order = [(f.initial, g.initial)]
    index = {order[0]: 0}
    delta, out = [], []
    for p, q in order:
        drow, orow = [], []
        for a in range(f.k):
            b = ga.out[q][a]
            orow.append(fa.out[p][b])
            pair = (fa.delta[p][b], ga.delta[q][a])
            if pair not in index:
                index[pair] = len(order)
                order.append(pair)
            drow.append(index[pair])
        delta.append(tuple(drow))
        out.append(tuple(orow))
    used, names = set(), []
    for p, q in order:
        base = name = f"{fa.names[p]}_{ga.names[q]}"
        i = 2
        while name in used:
            name = f"{base}_{i}"
            i += 1
        used.add(name)
        names.append(name)
    return tuple(names), tuple(delta), tuple(out), 0


def _reference_inverse(g):
    """(names, delta, out, initial) of g's inverse, each output row sorted on its own."""
    m = g.automaton
    out = tuple(tuple(sorted(range(m.k), key=row.__getitem__)) for row in m.out)
    delta = tuple(tuple(drow[a] for a in inv) for drow, inv in zip(m.delta, out))
    return m.names, delta, out, g.initial


def _bits_name(i):
    # 1 -> "1", 3 -> "1_1": a pair (3, 1) and a pair (1, 3) both read 1_1_1
    return "_".join(format(i, "b"))


def _random_table_machine(rng, k, n):
    """A machine of n states whose output rows come from a pool of 1 to 24 random permutations."""
    pool = [tuple(rng.sample(range(k), k)) for _ in range(rng.randint(1, 24))]
    delta = [tuple(rng.randrange(n) for _ in range(k)) for _ in range(n)]
    out = [rng.choice(pool) for _ in range(n)]
    names = [_bits_name(i) if rng.random() < 0.5 else f"q{i}" for i in range(n)]
    return InitialAutomaton(MealyAutomaton(k, names, delta, out), rng.randrange(n))


def _parts(g):
    return g.automaton.names, g.automaton.delta, g.automaton.out, g.initial


def test_compose_and_inverse_keep_the_reference_numbering(rng):
    renamed = 0
    for _ in range(150):
        k = rng.choice([2, 3, 4])
        f = _random_table_machine(rng, k, rng.randint(1, 30))
        g = _random_table_machine(rng, k, rng.randint(1, 30))
        for x, y in ((f, g), (g, f)):
            want = _reference_compose(x, y)
            assert _parts(x.compose(y)) == want
            # no state name ends in _2, so only a renamed collision does
            renamed += any(name.endswith("_2") for name in want[0])
        assert _parts(f.inverse()) == _reference_inverse(f)
    assert renamed > 10


def _two_states(names, delta):
    return InitialAutomaton(MealyAutomaton(2, names, delta, ((0, 1), (1, 0))), 0)


def test_compose_numbering_with_colliding_names_matches_the_reference():
    cases = [
        # a_b with c and a with b_c both read a_b_c, in either order of the pairs
        (("a_b", "a"), ("c", "b_c"), True),
        (("a", "a_b"), ("b_c", "c"), True),
        # a_ with c and a with _c both read a__c: the "more" may sit in g's name alone
        (("a", "a_"), ("_c", "c"), True),
        # a_b extends a by _, but no name of g starts with b_, so no pair collides
        (("a", "a_b"), ("c", "d"), False),
        # g's names hold _ and f's do not
        (("a", "b"), ("c_d", "a_c"), False),
    ]
    for f_names, g_names, collide in cases:
        f = _two_states(f_names, ((1, 1), (0, 1)))
        g = _two_states(g_names, ((1, 0), (1, 1)))
        for x, y in ((f, g), (g, f)):
            assert _parts(x.compose(y)) == _reference_compose(x, y)
        # no name given ends in _2, so only a renamed collision does
        assert any(name.endswith("_2") for name in f.compose(g).automaton.names) == collide
    # names that already carry a suffix: a_b_c_2 is a_b_c, _ and more
    fg = _two_states(("a_b", "a"), ((1, 1), (0, 1)))
    fg = fg.compose(_two_states(("c", "b_c"), ((1, 0), (1, 1))))
    tail = _two_states(("2_d", "d"), ((1, 0), (1, 1)))
    assert "a_b_c_2" in fg.automaton.names
    for x, y in ((fg, tail), (tail, fg), (fg, fg)):
        assert _parts(x.compose(y)) == _reference_compose(x, y)
    assert "a_b_c_2_d_2" in fg.compose(tail).automaton.names


def test_compose_peak_memory_stays_near_the_size_of_its_result():
    # the walk's pair index is freed before the names are built, and no set holds every name
    rng = random.Random(20)
    f, g = (
        InitialAutomaton(
            MealyAutomaton(
                2,
                [f"q{i}" for i in range(130)],
                [(rng.randrange(130), rng.randrange(130)) for _ in range(130)],
                [rng.choice(((0, 1), (1, 0))) for _ in range(130)],
            ),
            0,
        )
        for _ in range(2)
    )
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        product = f.compose(g)
        size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert product.automaton.n_states > 4000
    assert peak - base < 1.5 * (size - base)


# ---------- minimization and equivalence ----------


def test_minimize_merges_twin_states():
    m = MealyAutomaton(2, ("a", "b"), ((1, 1), (0, 0)), ((0, 1), (0, 1)))
    small = InitialAutomaton(m, 0).minimize()
    assert small.automaton.n_states == 1
    assert small.equivalent(InitialAutomaton(m, 0))


def test_minimize_drops_unreachable_states():
    m = MealyAutomaton(2, ("a", "junk"), ((0, 0), (1, 1)), ((0, 1), (1, 0)))
    small = InitialAutomaton(m, 0).minimize()
    assert small.automaton.names == ("a",)


def test_minimize_is_idempotent(rng):
    for _ in range(30):
        g = corpus.random_invertible(rng, rng.choice([2, 3]))
        small = g.minimize()
        assert small.minimize() == small
        assert small.equivalent(g)
        assert small.automaton.n_states <= g.automaton.n_states


def assert_breadth_first(g):
    """g starts at 0, and a scan of the rows in order meets each new state at the next index."""
    assert g.initial == 0
    met = 1
    for q, row in enumerate(g.automaton.delta):
        assert q < met  # a state's row comes after the row that met it
        for t in row:
            assert t <= met
            met += t == met
    assert met == g.automaton.n_states


def test_constructions_number_states_breadth_first(rng):
    # serialized output, and so the CLI's, lists states in this order
    for _ in range(200):
        k = rng.choice([2, 3])
        f = corpus.random_invertible(rng, k, max_states=6)
        g = corpus.random_invertible(rng, k, max_states=6)
        fg = f.compose(g)
        for built in (fg, f.minimize(), fg.minimize()):
            assert_breadth_first(built)


def _reference_behavior_classes(delta, out):
    """First-appearance Moore classes by the first loop: refine until a round splits nothing."""
    ids = {}
    labels = [ids.setdefault(row, len(ids)) for row in out]
    while True:
        ids = {}
        refined = [
            ids.setdefault((label, tuple(labels[t] for t in row)), len(ids))
            for label, row in zip(labels, delta)
        ]
        if refined == labels:
            return labels
        labels = refined


def _doubled(rng, g):
    """g's machine with its states shuffled and each declared twice; successors pick either copy."""
    m = g.automaton
    n = m.n_states
    place = rng.sample(range(2 * n), 2 * n)  # copy c of state q sits at place[c * n + q]
    delta, out = [None] * (2 * n), [None] * (2 * n)
    for c in range(2):
        for q in range(n):
            delta[place[c * n + q]] = tuple(place[rng.randrange(2) * n + t] for t in m.delta[q])
            out[place[c * n + q]] = m.out[q]
    names = [f"s{i}" for i in range(2 * n)]
    initial = place[rng.randrange(2) * n + g.initial]
    return InitialAutomaton(MealyAutomaton(g.k, names, delta, out), initial)


def test_behavior_classes_keep_the_reference_labels(rng):
    tables = [corpus.tail_flip(300).automaton]
    for _ in range(150):
        k = rng.choice([2, 3, 4])
        f = _random_table_machine(rng, k, rng.randint(1, 60))
        g = _random_table_machine(rng, k, rng.randint(1, 60))
        tables += [f.automaton, _doubled(rng, f).automaton, f.compose(g).automaton]
    splits = 0
    for m in tables:
        want = _reference_behavior_classes(m.delta, m.out)
        assert _behavior_classes(m.delta, m.out) == want
        splits += max(want) + 1 < m.n_states
    assert splits > 150  # the doubled twins alone merge every state with its copy


def test_minimize_is_canonical_on_shuffled_doubled_twins(rng):
    for _ in range(3000):
        g = corpus.random_invertible(rng, rng.choice([2, 3, 4]), max_states=6)
        small, twin = g.minimize(), _doubled(rng, g).minimize()
        assert _parts(twin)[1:] == _parts(small)[1:]


def test_minimal_machines_out_of_breadth_first_order_are_still_renumbered(lamp_b):
    # the states each walk meets are all told apart, so every class is a singleton
    out = ((1, 0), (0, 1), (1, 0))
    late = MealyAutomaton(2, ("a", "b", "c"), ((2, 2), (1, 1), (1, 1)), out)
    unreachable = MealyAutomaton(2, ("a", "b", "junk"), ((1, 1), (1, 1), (0, 0)), out)
    for g, names in (
        (InitialAutomaton(late, 0), ("a", "c", "b")),  # a meets c before b
        (lamp_b, ("b", "a")),  # starts at 1
        (InitialAutomaton(unreachable, 0), ("a", "b")),
    ):
        small = g.minimize()
        assert_breadth_first(small)
        assert small.automaton.names == names
        assert small.equivalent(g)


def test_a_product_that_nothing_merges_minimizes_to_itself(rng):
    kept = 0
    for _ in range(300):
        k = rng.choice([2, 3])
        f, g = (corpus.random_invertible(rng, k, max_states=6) for _ in range(2))
        fg = f.compose(g)
        small = fg.minimize()
        if small.automaton.n_states == fg.automaton.n_states:
            assert small == fg
            kept += 1
    assert 30 < kept < 270


def test_equivalent_odometer_vs_lamp_b(odometer, lamp_b):
    # verdict first, then the word-by-word explanation
    assert not odometer.equivalent(lamp_b)
    agree_to_depth_2 = all(
        odometer.apply(w) == lamp_b.apply(w)
        for n in range(3)
        for w in _all_words(2, n)
    )
    assert agree_to_depth_2
    differs = [w for w in _all_words(2, 3) if odometer.apply(w) != lamp_b.apply(w)]
    assert differs


def _all_words(k, n):
    words = [()]
    for _ in range(n):
        words = [w + (a,) for w in words for a in range(k)]
    return words


def test_equivalent_is_reflexive_and_respects_minimize(rng):
    for _ in range(20):
        g = corpus.random_invertible(rng, rng.choice([2, 3]))
        assert g.equivalent(g)
        assert g.minimize().equivalent(g)


def test_equivalent_rejects_mixed_alphabets():
    with pytest.raises(AlphabetMismatchError):
        corpus.identity_machine(2).equivalent(corpus.identity_machine(3))


def _moore_equivalent(f, g):
    """Reference verdict: Moore classes of one table, g's states after f's."""
    off = f.automaton.n_states
    delta = f.automaton.delta + tuple(tuple(off + t for t in row) for row in g.automaton.delta)
    labels = _behavior_classes(delta, f.automaton.out + g.automaton.out)
    return labels[f.initial] == labels[off + g.initial]


def _twin(rng, g):
    """A machine computing g's map, built through other states."""
    way = rng.randrange(4)
    if way == 0:
        return corpus.chain(g.k, rng.randrange(3)).compose(g)  # an identity map
    if way == 1:
        return g.compose(corpus.identity_machine(g.k))
    if way == 2:
        return g.inverse().inverse()
    labels = corpus.random_labels(rng, g.automaton.n_states, (2,))
    return corpus.pad_unreachable(g, labels, rng, rng.randint(1, 2))[0]


def test_union_find_equivalence_agrees_with_moore_and_the_simulator(rng):
    verdicts = []
    for _ in range(600):
        k = rng.choice([2, 3])
        f = corpus.random_invertible(rng, k, max_states=6)
        g = _twin(rng, f) if rng.random() < 0.3 else corpus.random_invertible(rng, k, max_states=6)
        if rng.random() < 0.5:
            f, g = g, f
        same = f.equivalent(g)
        assert same == _moore_equivalent(f, g), (f, g)
        n = f.automaton.n_states + g.automaton.n_states
        if n <= 8:
            # two states of n stacked ones that act differently already differ
            # on some word of length n - 1, and so on every word extending it
            words = itertools.product(range(k), repeat=n - 1)
            assert any(f.apply(w) != g.apply(w) for w in words) == (not same), (f, g)
        verdicts.append(same)
    assert 150 < sum(verdicts) < 450


def test_equivalent_walks_a_20002_state_chain_in_one_pass():
    # Moore refinement takes a round per chain state here, about 20,000 rounds
    g = corpus.tail_flip(20_000)
    h = corpus.tail_flip(20_001)
    assert g.automaton.n_states == 20_002
    assert g.equivalent(g)
    assert not g.equivalent(h)
    assert not h.equivalent(g)
    word = (0,) * 20_001  # the first letter the two chains move differently is at depth 20,000
    assert g.apply(word[:-1]) == h.apply(word[:-1])
    assert g.apply(word) != h.apply(word)


def test_inverse_composes_to_identity(rng, odometer, identity2):
    assert odometer.compose(odometer.inverse()).equivalent(identity2)
    for _ in range(20):
        k = rng.choice([2, 3])
        g = corpus.random_invertible(rng, k)
        ident = corpus.identity_machine(k)
        assert g.compose(g.inverse()).equivalent(ident)
        assert g.inverse().compose(g).equivalent(ident)


# ---------- dot output ----------


def test_to_dot_lamplighter(lamp_b):
    dot = to_dot(lamp_b.automaton)
    assert dot.startswith("digraph")
    assert '"a" -> "b" [label="1|1"];' in dot
    assert '"b" -> "a" [label="0|1"];' in dot
    assert dot.count("->") == 4
    assert to_dot(lamp_b.automaton) == dot


def test_to_dot_marks_initial(odometer):
    dot = to_dot(odometer.automaton, odometer.initial)
    assert '[shape=point];' in dot
    assert '-> "a";' in dot


def test_to_dot_start_node_avoids_a_state_name():
    m = MealyAutomaton(2, ("__start",), ((0, 0),), ((1, 0),))
    assert to_dot(m, 0) == (
        "digraph automaton {\n"
        "  rankdir=LR;\n"
        '  "__start_" [shape=point];\n'
        '  "__start_" -> "__start";\n'
        '  "__start" [shape=circle];\n'
        '  "__start" -> "__start" [label="0|1"];\n'
        '  "__start" -> "__start" [label="1|0"];\n'
        "}\n"
    )


def test_writers_reject_an_initial_state_out_of_range(odometer):
    for initial in (5, 2, -1):
        for write in (serialize_automaton, to_dot):
            message = f"initial state index {initial} is out of range"
            with pytest.raises(AutomatonError, match=message):
                write(odometer.automaton, initial)


def test_serialize_needs_one_label_row_per_state(odometer):
    # with three rows for two states the text would silently lose one
    for rows in (((1,),), ((1,), (0,), (1,))):
        labels = AbelianLabels((2,), rows)
        with pytest.raises(AutomatonError, match=f"{len(rows)} label rows for 2 states"):
            serialize_automaton(odometer.automaton, odometer.initial, labels)
        with pytest.raises(DimensionMismatchError, match=f"{len(rows)} label rows for 2 states"):
            AutomatonFile(odometer.automaton, None, labels)


# ---------- construction guards ----------


def test_mealy_constructor_rejects_bad_shapes():
    with pytest.raises(AutomatonError):
        MealyAutomaton(2, (), (), ())
    with pytest.raises(AutomatonError):
        MealyAutomaton(2, ("a",), ((0,),), ((0, 1),))
    with pytest.raises(AutomatonError):
        MealyAutomaton(2, ("a",), ((0, 7),), ((0, 1),))
    with pytest.raises(AutomatonError):
        MealyAutomaton(2, ("a", "a"), ((0, 0), (0, 0)), ((0, 1), (0, 1)))
    with pytest.raises(AutomatonError):
        MealyAutomaton(1, ("a",), ((0,),), ((0,),))
    with pytest.raises(AutomatonError):
        InitialAutomaton(corpus.identity_machine(2).automaton, 5)


# ---------- algebraic laws, property style ----------


@st.composite
def machine_and_words(draw):
    k = draw(st.sampled_from([2, 3, 4]))
    n = draw(st.integers(1, 4))
    delta = tuple(
        tuple(draw(st.integers(0, n - 1)) for _ in range(k)) for _ in range(n)
    )
    out = tuple(tuple(draw(st.permutations(range(k)))) for _ in range(n))
    names = tuple(f"q{i}" for i in range(n))
    start = draw(st.integers(0, n - 1))
    g = InitialAutomaton(MealyAutomaton(k, names, delta, out), start)
    word = st.lists(st.integers(0, k - 1), max_size=6).map(tuple)
    return g, draw(word), draw(word)


@settings(max_examples=60, deadline=None)
@given(machine_and_words())
def test_prefix_law(data):
    g, u, w = data
    assert g.apply(u + w) == g.apply(u) + g.section(u).apply(w)


@settings(max_examples=60, deadline=None)
@given(machine_and_words())
def test_inverse_law(data):
    g, _, w = data
    assert g.inverse().apply(g.apply(w)) == w


@st.composite
def machine_pairs(draw):
    k = draw(st.sampled_from([2, 3]))

    def one():
        n = draw(st.integers(1, 3))
        delta = tuple(
            tuple(draw(st.integers(0, n - 1)) for _ in range(k)) for _ in range(n)
        )
        out = tuple(tuple(draw(st.permutations(range(k)))) for _ in range(n))
        names = tuple(f"q{i}" for i in range(n))
        return InitialAutomaton(
            MealyAutomaton(k, names, delta, out), draw(st.integers(0, n - 1))
        )

    word = tuple(draw(st.lists(st.integers(0, k - 1), max_size=6)))
    return one(), one(), word


@settings(max_examples=60, deadline=None)
@given(machine_pairs())
def test_compose_law(data):
    f, g, w = data
    assert f.compose(g).apply(w) == f.apply(g.apply(w))
