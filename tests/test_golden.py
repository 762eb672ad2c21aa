"""CLI output on the bundled fixtures, compared with committed files.

Each case runs ``main(argv)`` on the fixtures and compares its exit
code and output with ``tests/golden/<case>.txt``, whose first line is
``exit = <code>`` and whose rest is stdout verbatim, followed by a
``--- stderr`` line and stderr when stderr is not empty.  The fixture
directory is written as ``FIXTURES`` in the stored text, so the files
do not depend on where the package lives.

After a deliberate change of output, rewrite the files with

    PYTHONPATH=src python tests/test_golden.py

and review the diff before committing it.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

import wreathtree
from wreathtree.cli import COMMANDS, main

FIXTURES = Path(wreathtree.__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"
NAMES = ("identity", "lamplighter", "lamplighter_b", "odometer")

SINGLE = (
    ("validate",),
    ("transitive",),
    ("coeffs", "--count", "12"),
    ("rational",),
    ("dot",),
    ("inverse",),
    ("minimize",),
    ("orbit", "--level", "6"),
    ("apply", "--word", "1101"),
)
PAIRED = ("equal-ab", "conjugate", "compose")


def _fixture(name):
    return str(FIXTURES / f"{name}.aut")


# (case name, argv) for every golden file
CASES = [
    (f"{command}-{name}", [command, _fixture(name), *flags])
    for command, *flags in SINGLE
    for name in NAMES
] + [
    (f"{command}-{first}-{second}", [command, _fixture(first), _fixture(second)])
    for command in PAIRED
    for first in NAMES
    for second in NAMES
] + [
    # named errors that exit with 2
    ("error-apply-bad-symbol", ["apply", _fixture("odometer"), "--word", "2"]),
    ("error-orbit-level-too-large", ["orbit", _fixture("odometer"), "--level", "30"]),
    (
        "error-coeffs-bad-component",
        ["coeffs", _fixture("odometer"), "--count", "3", "--component", "1"],
    ),
    ("error-validate-missing-file", ["validate", "/no/such/file.aut"]),
    ("error-coeffs-count-too-large", ["coeffs", _fixture("odometer"), "--count", "1000001"]),
]


def render(argv):
    """Exit code, stdout and any stderr of one CLI run, as stored in a golden file."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    text = f"exit = {code}\n{stdout.getvalue()}"
    if stderr.getvalue():
        text += f"--- stderr\n{stderr.getvalue()}"
    return text.replace(str(FIXTURES), "FIXTURES")


@pytest.mark.parametrize("name, argv", CASES, ids=[name for name, _ in CASES])
def test_cli_output_matches_golden(name, argv):
    expected = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert render(argv) == expected


def test_every_golden_file_has_a_case():
    stored = {path.stem for path in GOLDEN.glob("*.txt")}
    assert stored == {name for name, _ in CASES}


def test_the_cases_run_every_command():
    # the golden files are the one pin of each command's output on the fixtures
    assert {argv[0] for _, argv in CASES} == set(COMMANDS)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES:
        (GOLDEN / f"{name}.txt").write_text(render(argv), encoding="utf-8")
    print(f"wrote {len(CASES)} files to {GOLDEN}", file=sys.stderr)
