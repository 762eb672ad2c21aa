"""The README's examples, run as written from the root of the checkout."""

import ast
import importlib
import re
from pathlib import Path

import wreathtree
from wreathtree.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _fences():
    """(info string, body) of every fenced block, in order."""
    blocks, info, body = [], None, []
    for line in README.splitlines():
        if line.startswith("```"):
            if info is None:
                info, body = line[3:].strip(), []
            else:
                blocks.append((info, "\n".join(body)))
                info = None
        elif info is not None:
            body.append(line)
    return blocks


def _library_code():
    return next(body for info, body in _fences() if info == "python")


def test_library_example_shows_what_it_computes():
    code = _library_code()
    lines = code.splitlines()
    namespace = {}
    shown = []
    for stmt in ast.parse(code).body:
        source = ast.get_source_segment(code, stmt)
        if not isinstance(stmt, ast.Expr):
            exec(source, namespace)
            continue
        value = repr(eval(source, namespace))
        comment = lines[stmt.end_lineno - 1].partition("#")[2].strip()
        assert comment == value or comment.startswith(value + ":"), (source, comment)
        shown.append(value)
    assert shown == [
        "'0011'",
        "True",
        "(1,)",
        "RationalSeries(modulus=2, numerator=(1,), denominator=(1, 1))",
    ]


def test_library_example_imports_only_exported_names():
    imported = [
        alias.name
        for node in ast.walk(ast.parse(_library_code()))
        if isinstance(node, ast.ImportFrom) and node.module == "wreathtree"
        for alias in node.names
    ]
    assert imported
    assert set(imported) <= set(wreathtree.__all__)


def test_export_list_names_every_export_by_its_module():
    intro, listing = README.split("The package exports ", 1)[1].split("\n\n")[:2]
    assert intro.startswith(f"{len(wreathtree.__all__)} names")
    listed = []
    for item in listing.removeprefix("- ").split("\n- "):
        module, names = re.match(r"`(wreathtree\.\w+)`:(.*)", item, re.S).groups()
        for name in re.findall(r"`(\w+)`", names):
            assert getattr(importlib.import_module(module), name) is getattr(wreathtree, name)
            listed.append(name)
    assert sorted(listed) == sorted(wreathtree.__all__)


def test_cli_transcripts_match(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    block = next(body for _, body in _fences() if body.startswith("$ wreathtree "))
    transcripts = block.split("\n\n")
    assert len(transcripts) == 2
    for transcript in transcripts:
        command, expected = transcript.split("\n", 1)
        assert main(command.split()[2:]) == 0
        captured = capsys.readouterr()
        assert captured.out == expected + "\n"
        assert captured.err == ""
