"""End-to-end tests for the command line front end.

Everything goes through main(argv) so the tests see exactly what a
shell user sees: the printed document, the stderr line, and the exit
code.  Output documents are parsed back into dicts for assertions.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import corpus
import wreathtree
from wreathtree import AbelianLabels, parse_automaton, serialize_automaton
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


def test_validate_reports_the_machine(capsys):
    code, out, err = run(capsys, "validate", ODOMETER)
    assert code == 0 and err == ""
    doc = doc_of(out)
    assert doc["command"] == "validate"
    assert doc["alphabet"] == "2"
    assert doc["states"] == "[a, e]"
    assert doc["initial"] == "a"
    assert doc["invertible"] == "true"
    assert doc["cyclic"] == "true"
    assert doc["labels.source"] == "derived"
    assert doc["labels.moduli"] == "[2]"
    assert doc["label.a"] == "[1]"
    assert doc["label.e"] == "[0]"
    assert doc["input.path"] == ODOMETER
    assert doc["input.sha256"] == hashlib.sha256(Path(ODOMETER).read_bytes()).hexdigest()


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


# ---------------------------------------------------------- transitive


def test_transitive_on_the_adding_machine(capsys):
    code, out, _ = run(capsys, "transitive", ODOMETER)
    assert code == 0
    doc = doc_of(out)
    assert doc["method"] == "stream"
    assert doc["modulus"] == "2"
    assert doc["transitive"] == "true"
    assert doc["first_bad_index"] == "none"
    assert doc["stream.preperiod"] == "[]"
    assert doc["stream.period"] == "[1]"


def test_transitive_on_a_non_transitive_machine(capsys):
    code, out, _ = run(capsys, "transitive", LAMP_B)
    assert code == 0
    doc = doc_of(out)
    assert doc["transitive"] == "false"
    assert doc["first_bad_index"] == "2"
    assert doc["stream.preperiod"] == "[1, 1]"
    assert doc["stream.period"] == "[0]"


def test_transitive_fast2_is_a_usage_error(capsys):
    # the binary-only shortcut is gone; the stream is the only method
    code, out, err = run(capsys, "transitive", ODOMETER, "--fast2")
    assert code == 1
    assert out == "" and "--fast2" in err


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


def test_rational_forms_of_the_named_machines(capsys):
    code, out, _ = run(capsys, "rational", ODOMETER)
    assert code == 0
    doc = doc_of(out)
    assert doc["numerator"] == "[1]"
    assert doc["denominator"] == "[1, 1]"
    assert doc["modulus"] == "2"
    code, out, _ = run(capsys, "rational", LAMP_B)
    assert code == 0
    doc = doc_of(out)
    assert doc["numerator"] == "[1, 1]"
    assert doc["denominator"] == "[1]"


# --------------------------------------------- equal-ab and conjugate


def test_equal_ab_finds_the_first_difference(capsys):
    code, out, _ = run(capsys, "equal-ab", ODOMETER, LAMP_B)
    assert code == 0
    doc = doc_of(out)
    assert doc["equal"] == "false"
    assert doc["witness"] == "2"
    assert doc["moduli"] == "[2]"
    assert doc["input1.path"] == ODOMETER
    assert doc["input2.path"] == LAMP_B


def test_equal_ab_on_equal_machines(capsys):
    code, out, _ = run(capsys, "equal-ab", ODOMETER, ODOMETER)
    assert code == 0
    doc = doc_of(out)
    assert doc["equal"] == "true"
    assert doc["witness"] == "none"


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

    code, out, _ = run(capsys, "conjugate", ODOMETER, LAMP_B)
    assert code == 0
    assert doc_of(out)["verdict"] == "not_conjugate"

    code, out, _ = run(capsys, "conjugate", LAMP_A, LAMP_B)
    assert code == 0
    doc = doc_of(out)
    assert doc["verdict"] == "not_conjugate"
    assert "index 0" in doc["reason"]

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


def test_dot_prints_the_diagram(capsys):
    code, out, _ = run(capsys, "dot", ODOMETER)
    assert code == 0
    assert out.startswith("digraph")
    assert '"a" -> "e" [label="0|1"];' in out
    assert '-> "a";' in out


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


def test_usage_errors_exit_with_1(capsys):
    for argv in ([], ["transitive"], ["coeffs", ODOMETER], ["frobnicate"]):
        code, out, err = run(capsys, *argv)
        assert code == 1, argv
        assert err != ""


def test_negative_count_is_a_usage_error(capsys):
    code, out, err = run(capsys, "coeffs", ODOMETER, "--count", "-3")
    assert code == 1
    assert out == "" and "--count" in err


def test_negative_component_is_a_usage_error(capsys):
    for command in (["coeffs", ODOMETER, "--count", "3"], ["rational", ODOMETER]):
        code, out, err = run(capsys, *command, "--component", "-1")
        assert code == 1, command
        assert out == "" and "--component" in err


def test_negative_level_is_a_usage_error(capsys):
    code, out, err = run(capsys, "orbit", ODOMETER, "--level", "-1")
    assert code == 1
    assert out == "" and "--level" in err


def test_missing_file_exits_with_2(capsys):
    code, _, err = run(capsys, "validate", "/no/such/file.aut")
    assert code == 2
    assert err.startswith("error:")


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


# --------------------------------------------------------- determinism


def test_output_is_byte_stable(capsys):
    for argv in (
        ["validate", ODOMETER],
        ["transitive", LAMP_B],
        ["rational", ODOMETER],
        ["compose", LAMP_A, LAMP_B],
        ["dot", ODOMETER],
    ):
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second


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
