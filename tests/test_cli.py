"""End-to-end tests for the command line front end.

Everything goes through main(argv) so the tests see exactly what a
shell user sees: the printed document, the stderr line, and the exit
code.  Output documents are parsed back into dicts for assertions.

``tests/golden`` pins the output of every command on the bundled
fixtures.  This file checks what a golden file cannot: temporary
machines, label blocks, usage errors, a patched cap and separate
processes.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import corpus
import wreathtree
from wreathtree import (
    AbelianLabels,
    InitialAutomaton,
    MealyAutomaton,
    parse_automaton,
    serialize_automaton,
)
from wreathtree import cli
from wreathtree.cli import main

FIXTURES = Path(wreathtree.__file__).parent / "fixtures"
ODOMETER = str(FIXTURES / "odometer.aut")
LAMP_A = str(FIXTURES / "lamplighter.aut")
LAMP_B = str(FIXTURES / "lamplighter_b.aut")
IDENTITY = str(FIXTURES / "identity.aut")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def doc_of(out):
    """Parse a key-value document, checking the sort order on the way."""
    keys = []
    doc = {}
    for line in out.splitlines():
        key, sep, value = line.partition(" = ")
        assert sep, f"not a key-value line: {line!r}"
        keys.append(key)
        doc[key] = value
    assert keys == sorted(keys)
    return doc


def write_machine(tmp_path, name, g, labels=None):
    path = tmp_path / name
    path.write_text(serialize_automaton(g.automaton, g.initial, labels))
    return str(path)


# ------------------------------------------------------------ validate


def test_validate_with_explicit_labels(capsys, tmp_path, odometer):
    labels = wreathtree.AbelianLabels((2, 3), ((1, 2), (0, 1)))
    path = write_machine(tmp_path, "labelled.aut", odometer, labels)
    code, out, _ = run(capsys, "validate", path)
    assert code == 0
    doc = doc_of(out)
    assert doc["labels.source"] == "explicit"
    assert doc["labels.moduli"] == "[2, 3]"
    assert doc["label.a"] == "[1, 2]"
    assert doc["label.e"] == "[0, 1]"


def test_validate_flags_non_cyclic_outputs(capsys, tmp_path):
    path = tmp_path / "swap.aut"
    path.write_text("alphabet 3\nstate s perm 0 2 1 to s s s\ninitial s\n")
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 0
    doc = doc_of(out)
    assert doc["cyclic"] == "false"
    assert doc["cyclic.obstruction"] == "s"
    assert doc["invertible"] == "true"
    assert "labels.source" not in doc


def test_validate_without_initial_state(capsys, tmp_path):
    path = tmp_path / "bare.aut"
    path.write_text("alphabet 2\nstate e perm 0 1 to e e\n")
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 0
    assert doc_of(out)["initial"] == "none"


# ------------------------------------------------- coeffs and rational


def test_coeffs_prints_the_requested_terms(capsys):
    code, out, _ = run(capsys, "coeffs", ODOMETER, "--count", "6")
    assert code == 0
    doc = doc_of(out)
    assert doc["terms"] == "[1, 1, 1, 1, 1, 1]"
    assert doc["modulus"] == "2"
    assert doc["count"] == "6"
    assert doc["component"] == "0"
    assert doc["stream.preperiod"] == "[]"
    assert doc["stream.period"] == "[1]"


def test_coeffs_follows_the_component_flag(capsys, tmp_path, odometer):
    labels = wreathtree.AbelianLabels((2, 3), ((1, 2), (0, 0)))
    path = write_machine(tmp_path, "two.aut", odometer, labels)
    code, out, _ = run(capsys, "coeffs", path, "--count", "4", "--component", "1")
    assert code == 0
    doc = doc_of(out)
    assert doc["modulus"] == "3"
    assert doc["terms"] == "[2, 2, 2, 2]"


# --------------------------------------------- equal-ab and conjugate


def test_equal_ab_on_a_composite_modulus(capsys, tmp_path):
    f = write_machine(
        tmp_path, "chain.aut", corpus.chain(3, 3),
        AbelianLabels((4,), ((0,), (0,), (1,), (0,))),
    )
    e = write_machine(
        tmp_path, "e.aut", corpus.identity_machine(3), AbelianLabels((4,), ((0,),))
    )
    code, out, _ = run(capsys, "equal-ab", f, e)
    assert code == 0
    doc = doc_of(out)
    assert doc["equal"] == "false"
    assert doc["witness"] == "2"
    assert doc["moduli"] == "[4]"


def test_conjugate_verdicts(capsys, tmp_path):
    decr = write_machine(tmp_path, "decr.aut", corpus.decrementer())
    code, out, _ = run(capsys, "conjugate", ODOMETER, decr)
    assert code == 0
    assert doc_of(out)["verdict"] == "conjugate"

    flip = write_machine(tmp_path, "flip.aut", corpus.second_letter_flip())
    code, out, _ = run(capsys, "conjugate", IDENTITY, flip)
    assert code == 0
    doc = doc_of(out)
    assert doc["verdict"] == "undecided"
    assert doc["reason"] != "none"


# ------------------------------------------------------ orbit and apply


def test_orbit_counts_cycles_on_a_level(capsys):
    code, out, _ = run(capsys, "orbit", ODOMETER, "--level", "3")
    assert code == 0
    doc = doc_of(out)
    assert doc["level"] == "3"
    assert doc["orbit_count"] == "1"
    assert doc["max_orbit"] == "8"
    assert doc["transitive"] == "true"


def test_apply_prints_the_image_word(capsys):
    code, out, _ = run(capsys, "apply", ODOMETER, "--word", "110")
    assert code == 0
    doc = doc_of(out)
    assert doc["word.input"] == "110"
    assert doc["word.output"] == "001"


def test_apply_uses_commas_for_wide_alphabets(capsys, tmp_path):
    path = write_machine(tmp_path, "wide.aut", corpus.identity_machine(11))
    code, out, _ = run(capsys, "apply", path, "--word", "10,3,0")
    assert code == 0
    doc = doc_of(out)
    assert doc["word.output"] == "10,3,0"


# ------------------------------------------------ construction commands


def test_compose_emits_a_parseable_machine(capsys):
    code, out, _ = run(capsys, "compose", ODOMETER, ODOMETER)
    assert code == 0
    parsed = parse_automaton(out)
    square = parsed.initial_automaton()
    assert square.apply("00") == "01"
    assert square.apply("10") == "11"


def test_inverse_emits_the_inverse_machine(capsys):
    code, out, _ = run(capsys, "inverse", ODOMETER)
    assert code == 0
    parsed = parse_automaton(out)
    assert parsed.initial_automaton().apply("10") == "00"


def test_minimize_merges_twin_states(capsys, tmp_path):
    path = tmp_path / "twins.aut"
    path.write_text(
        "alphabet 2\n"
        "state a perm 1 0 to b a\n"
        "state b perm 0 1 to b b\n"
        "state c perm 0 1 to c c\n"
        "initial a\n"
    )
    code, out, _ = run(capsys, "minimize", str(path))
    assert code == 0
    parsed = parse_automaton(out)
    assert parsed.automaton.n_states == 2
    original = parse_automaton(path.read_text()).initial_automaton()
    assert parsed.initial_automaton().equivalent(original)


def test_output_flag_writes_a_file(capsys, tmp_path):
    target = tmp_path / "out.aut"
    code, out, _ = run(capsys, "minimize", ODOMETER, "-o", str(target))
    assert code == 0
    assert out == ""
    parsed = parse_automaton(target.read_text())
    assert parsed.initial_automaton().apply("00") == "10"


def test_an_unwritable_output_file_exits_with_2(capsys, tmp_path):
    target = tmp_path / "missing" / "x"
    code, out, err = run(capsys, "minimize", ODOMETER, "-o", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error: [Errno 2] ")


# ------------------------------------------------------------------ help

COMMAND_HELP = [
    ("validate", "check an automaton file and report diagnostics"),
    ("transitive", "decide spherical transitivity"),
    ("coeffs", "print abelianization series coefficients"),
    ("rational", "print the series as a rational function mod m"),
    ("equal-ab", "compare the abelianization series of two machines"),
    ("conjugate", "three-valued conjugacy test"),
    ("orbit", "enumerate one tree level and count orbits"),
    ("apply", "apply the machine to one word"),
    ("compose", "serialize FILE1 after FILE2"),
    ("inverse", "serialize the inverse machine"),
    ("minimize", "serialize the minimal machine"),
    ("dot", "print the transition diagram in DOT format"),
]


def test_help_lists_every_command(capsys):
    code, out, err = run(capsys, "--help")
    assert (code, err) == (0, "")
    listed = [
        tuple(line.split(None, 1))
        for line in out.splitlines()
        if line.startswith("    ") and not line.startswith("     ")
    ]
    assert listed == COMMAND_HELP


# ------------------------------------------------------------ exit codes


def test_usage_errors_exit_with_1(capsys, monkeypatch):
    # argparse wraps the usage line at the terminal width; the top-level
    # cases are not pinned, as their wording differs across Python versions
    monkeypatch.setenv("COLUMNS", "80")
    for argv in ([], ["transitive"], ["coeffs", ODOMETER], ["frobnicate"]):
        code, out, err = run(capsys, *argv)
        assert code == 1, argv
        assert out == "" and err != "", argv
    assert run(capsys, "transitive")[2] == (
        "usage: wreathtree transitive [-h] file\n"
        "wreathtree transitive: error: the following arguments are required: file\n"
    )
    assert run(capsys, "coeffs", ODOMETER)[2] == (
        "usage: wreathtree coeffs [-h] --count COUNT [--component COMPONENT] file\n"
        "wreathtree coeffs: error: the following arguments are required: --count\n"
    )


def test_transitive_fast2_is_a_usage_error(capsys):
    # the binary-only shortcut is gone; the stream is the only method
    code, out, err = run(capsys, "transitive", ODOMETER, "--fast2")
    assert code == 1
    assert out == "" and "--fast2" in err


def test_negative_count_is_a_usage_error(capsys):
    # a signed zero too: a count has no sign
    for value in ("-3", "-0"):
        code, out, err = run(capsys, "coeffs", ODOMETER, "--count", value)
        assert code == 1, value
        assert out == "" and f"--count: must not be negative, got {value}" in err


def test_negative_component_is_a_usage_error(capsys):
    for command in (["coeffs", ODOMETER, "--count", "3"], ["rational", ODOMETER]):
        for value in ("-1", "-0"):
            code, out, err = run(capsys, *command, "--component", value)
            assert code == 1, (command, value)
            assert out == "" and f"--component: must not be negative, got {value}" in err


def test_negative_level_is_a_usage_error(capsys):
    for value in ("-1", "-0"):
        code, out, err = run(capsys, "orbit", ODOMETER, "--level", value)
        assert code == 1, value
        assert out == "" and f"--level: must not be negative, got {value}" in err


@pytest.mark.parametrize("value", ["\uff12", "\u0663", "+3", "1_0", " 4", "4 "])
@pytest.mark.parametrize(
    "command, option",
    [
        (["coeffs", ODOMETER], "--count"),
        (["coeffs", ODOMETER, "--count", "3"], "--component"),
        (["rational", ODOMETER], "--component"),
        (["orbit", ODOMETER], "--level"),
    ],
)
def test_counts_take_only_ascii_digits(capsys, command, option, value):
    # the file parser's rule: an optional '-' and ASCII digits, nothing
    # else that int() would accept
    code, out, err = run(capsys, *command, option, value)
    assert code == 1
    assert out == ""
    assert f"argument {option}: invalid int value: {value!r}" in err


def test_huge_level_is_refused_at_once(capsys):
    code, out, err = run(capsys, "orbit", ODOMETER, "--level", "1000000000")
    assert (code, out) == (2, "")
    assert err == (
        "error: LevelTooLargeError: level 1000000000 holds 2^1000000000 words,"
        " above the cap of 1000000\n"
    )


def test_coeffs_count_is_capped(capsys, monkeypatch):
    monkeypatch.setattr(cli, "COUNT_CAP", 3)
    code, out, err = run(capsys, "coeffs", ODOMETER, "--count", "4")
    assert (code, out) == (2, "")
    assert err == "error: CountTooLargeError: count 4 is above the cap of 3\n"
    # the cap is a bound, not a target
    code, out, _ = run(capsys, "coeffs", ODOMETER, "--count", "3")
    assert code == 0
    assert doc_of(out)["terms"] == "[1, 1, 1]"


# more decimal digits than int() reads by default
HUGE = "9" * 5000


@pytest.mark.parametrize(
    "text, argv, code, message",
    [
        (f"alphabet {HUGE}\n", ["validate"], 2, "ParseError: line 1: expected an integer"),
        (
            f"alphabet 2\nstate a perm {HUGE} 1 to a a\n",
            ["validate"],
            2,
            "ParseError: line 2: expected an integer",
        ),
        (
            f"alphabet 2\nstate a perm 1 0 to a a\nabelian {HUGE}\n",
            ["validate"],
            2,
            "ParseError: line 3: expected an integer",
        ),
        (
            f"alphabet 2\nstate a perm 1 0 to a a\nabelian 2\nlabel a {HUGE}\n",
            ["validate"],
            2,
            "ParseError: line 4: expected an integer",
        ),
        (
            serialize_automaton(corpus.identity_machine(11).automaton, 0),
            ["apply", "--word", HUGE],
            2,
            f"BadSymbolError: bad symbol '{HUGE}' at position 0",
        ),
        (
            serialize_automaton(corpus.odometer().automaton, 0),
            ["coeffs", "--count", HUGE],
            1,
            f"argument --count: invalid int value: '{HUGE}'",
        ),
    ],
    ids=["alphabet", "perm", "abelian", "label", "word", "count"],
)
def test_integers_past_the_digit_limit_are_named_errors(
    capsys, tmp_path, text, argv, code, message
):
    path = tmp_path / "machine.aut"
    path.write_text(text)
    got, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert (got, out) == (code, "")
    assert message in err


@pytest.mark.parametrize(
    "text,exc_name",
    [
        ("alphabet 2\nstate a perm 0 0 to a a\ninitial a\n", "BadPermutationError"),
        ("state a perm 0 1 to a a\ninitial a\n", "MissingAlphabetError"),
        ("alphabet 2\nstate a perm 0 1 to a zz\ninitial a\n", "UnknownStateError"),
    ],
)
def test_bad_files_exit_with_2(capsys, tmp_path, text, exc_name):
    path = tmp_path / "bad.aut"
    path.write_text(text)
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2
    assert exc_name in err


def test_non_utf8_file_exits_with_2(capsys, tmp_path):
    path = tmp_path / "binary.aut"
    path.write_bytes(b"alphabet 2\n\xff\n")
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ParseError: ")


@pytest.mark.parametrize("command", ["validate", "transitive"])
def test_a_byte_order_mark_changes_only_the_digest(capsys, tmp_path, command):
    path = tmp_path / "odometer.aut"
    plain = Path(ODOMETER).read_bytes()
    docs = []
    for data in (plain, b"\xef\xbb\xbf" + plain):
        path.write_bytes(data)
        code, out, err = run(capsys, command, str(path))
        assert code == 0 and err == ""
        doc = doc_of(out)
        assert doc.pop("input.sha256") == hashlib.sha256(data).hexdigest()
        docs.append(doc)
    assert docs[0] == docs[1]


def test_non_utf8_offset_counts_the_byte_order_mark(capsys, tmp_path):
    path = tmp_path / "marked.aut"
    path.write_bytes(b"\xef\xbb\xbfalphabet 2\n\xff")
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2 and out == ""
    assert err == "error: ParseError: not UTF-8 text: byte 14 is 0xff\n"


def test_commands_that_need_an_initial_state_exit_with_2(capsys, tmp_path):
    path = tmp_path / "bare.aut"
    path.write_text("alphabet 2\nstate e perm 0 1 to e e\n")
    code, _, err = run(capsys, "transitive", str(path))
    assert code == 2
    assert "MissingInitialError" in err


def test_non_cyclic_analysis_exits_with_2(capsys, tmp_path):
    path = tmp_path / "swap.aut"
    path.write_text("alphabet 3\nstate s perm 0 2 1 to s s s\ninitial s\n")
    code, _, err = run(capsys, "coeffs", str(path), "--count", "3")
    assert code == 2
    assert "NotCyclicError" in err


def _labelled_copy(tmp_path, fixture):
    """The fixture with a label block of 3 mod 4 on every state appended."""
    names = parse_automaton(Path(fixture).read_text()).automaton.names
    block = "abelian 4\n" + "".join(f"label {name} 3\n" for name in names)
    path = tmp_path / Path(fixture).name
    path.write_text(Path(fixture).read_text() + block)
    return str(path)


@pytest.mark.parametrize(
    "fixture", [ODOMETER, LAMP_A, LAMP_B], ids=["odometer", "lamplighter", "lamplighter_b"]
)
def test_transitive_and_conjugate_ignore_a_label_block(capsys, tmp_path, fixture):
    # both always read the shifts mod k, so labels change only the digest
    labelled = _labelled_copy(tmp_path, fixture)
    for argv in (["transitive", "{}"], ["conjugate", "{}", LAMP_B], ["conjugate", ODOMETER, "{}"]):
        docs = []
        for path in (fixture, labelled):
            code, out, err = run(capsys, *[arg.format(path) for arg in argv])
            assert code == 0 and err == ""
            docs.append({k: v for k, v in doc_of(out).items() if not k.startswith("input")})
        assert docs[0] == docs[1]


def test_labels_lift_the_cyclic_rule_only_where_they_are_read(capsys, tmp_path):
    path = tmp_path / "swap.aut"
    path.write_text(
        "alphabet 3\nstate s perm 0 2 1 to s s s\ninitial s\nabelian 5\nlabel s 2\n"
    )
    code, out, err = run(capsys, "coeffs", str(path), "--count", "3")
    assert code == 0 and err == ""
    assert doc_of(out)["terms"] == "[2, 1, 3]"
    code, out, err = run(capsys, "transitive", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: NotCyclicError: ")


def test_equal_ab_compares_moduli_before_judging_rows(capsys, tmp_path):
    swap = InitialAutomaton(MealyAutomaton(3, ("s",), ((0, 0, 0),), ((0, 2, 1),)), 0)
    swap_path = write_machine(tmp_path, "swap.aut", swap)
    labelled = write_machine(
        tmp_path, "labelled.aut", corpus.identity_machine(3), AbelianLabels((5,), ((1,),))
    )
    code, out, err = run(capsys, "equal-ab", swap_path, labelled)
    assert (code, out) == (2, "")
    assert err == "error: ModuliMismatchError: label moduli differ: (3,) != (5,)\n"
    # the alphabets come first of all
    code, _, err = run(capsys, "equal-ab", swap_path, IDENTITY)
    assert code == 2
    assert err == "error: AlphabetMismatchError: alphabet sizes differ: 3 != 2\n"


def test_mismatched_alphabets_exit_with_2(capsys, tmp_path):
    wide = write_machine(tmp_path, "wide.aut", corpus.identity_machine(3))
    code, _, err = run(capsys, "equal-ab", ODOMETER, wide)
    assert code == 2
    assert "AlphabetMismatchError" in err
    code, _, err = run(capsys, "conjugate", ODOMETER, wide)
    assert code == 2


# a superscript two and an Arabic-Indic one are digits, but not symbols
@pytest.mark.parametrize("word", ["102", "1\u00b2", "1\u0661"])
def test_bad_word_symbol_exits_with_2(capsys, word):
    code, out, err = run(capsys, "apply", ODOMETER, "--word", word)
    assert (code, out) == (2, "")
    assert "BadSymbolError" in err


# -------------------------------------------------------- dependencies


def test_cli_imports_no_test_time_packages():
    # numpy, sympy and hypothesis are test-time tools, never runtime imports
    probe = (
        "import sys, wreathtree.cli; "
        "print(sorted({'numpy', 'sympy', 'hypothesis'} & set(sys.modules)))"
    )
    src = str(Path(wreathtree.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"


def test_cli_loads_dataclasses_and_decide_only_to_decide():
    # start-up cost: only the handlers that decide something import
    # ``decide``, the one module built on ``dataclasses`` (and so on
    # ``inspect``); every other command runs without them
    deciding_nothing = [
        ["coeffs", ODOMETER, "--count", "3"],
        ["validate", ODOMETER],
        ["orbit", ODOMETER, "--level", "3"],
        ["apply", ODOMETER, "--word", "011"],
        ["compose", LAMP_A, LAMP_B],
        ["inverse", LAMP_A],
        ["minimize", LAMP_B],
        ["dot", ODOMETER],
    ]
    probe = (
        "import sys\n"
        "from wreathtree.cli import main\n"
        "heavy = {'dataclasses', 'inspect', 'wreathtree.decide'}\n"
        "def report(): print(sorted(heavy & set(sys.modules)), file=sys.stderr)\n"
        "report()\n"
        f"print([main(argv) for argv in {deciding_nothing!r}], file=sys.stderr)\n"
        "report()\n"
        f"main(['transitive', {ODOMETER!r}])\n"
        "report()\n"
    )
    src = str(Path(wreathtree.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    after_import, statuses, after_eight, after_transitive = result.stderr.splitlines()
    assert after_import == "[]"
    assert statuses == str([0] * len(deciding_nothing))
    assert after_eight == "[]"
    assert "'wreathtree.decide'" in after_transitive


def test_cli_process_exit_statuses(tmp_path):
    # the module run as a program: its exit status is what ``main`` returns
    src = str(Path(wreathtree.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=src)

    def status(*argv):
        result = subprocess.run(
            [sys.executable, "-m", "wreathtree.cli", *argv],
            env=env,
            capture_output=True,
            text=True,
        )
        return result.returncode, result.stdout

    assert status("coeffs", ODOMETER)[0] == 1
    assert status("transitive", str(tmp_path / "missing.aut"))[0] == 2
    code, out = status("--help")
    assert code == 0 and out.startswith("usage: wreathtree")


def test_cli_hashes_inputs_only_for_documents():
    # compose, inverse, minimize and dot print no input digest, so they
    # leave ``hashlib`` unimported; validate still prints the same digest
    probe = (
        "import sys\n"
        "from wreathtree.cli import main\n"
        "def report(): print('hashlib' in sys.modules, file=sys.stderr)\n"
        f"main(['compose', {LAMP_A!r}, {LAMP_B!r}])\n"
        f"for command in ('inverse', 'minimize', 'dot'): main([command, {ODOMETER!r}])\n"
        "report()\n"
        f"main(['validate', {ODOMETER!r}])\n"
        "report()\n"
    )
    src = str(Path(wreathtree.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stderr.splitlines() == ["False", "True"]
    digest = hashlib.sha256(Path(ODOMETER).read_bytes()).hexdigest()
    assert f"input.sha256 = {digest}\n" in result.stdout
