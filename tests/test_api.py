"""The top-level surface of the package: the documented names, all of them resolvable."""

import ast
import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import wreathtree
from wreathtree.decide import TransitivityVerdict

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "wreathtree"

EXPORTS = {
    "parse_automaton",
    "serialize_automaton",
    "to_dot",
    "validate_cyclic",
    "MealyAutomaton",
    "InitialAutomaton",
    "AbelianLabels",
    "AutomatonError",
    "is_spherically_transitive",
    "abelianization_equal",
    "conjugate",
    "rational_form",
    "ConjugacyStatus",
    "incidence_matrix",
    "abelian_vector",
    "coefficient_stream",
    "series_expand",
    "RationalSeries",
    "DEFAULT_VISIT_CAP",
    "IterationCapError",
    "level_transitive",
    "abelian_coefficient_bruteforce",
    "conjugate_by",
}


def test_all_is_exactly_the_documented_surface():
    assert len(wreathtree.__all__) == len(set(wreathtree.__all__))
    assert set(wreathtree.__all__) == EXPORTS


def test_every_exported_name_resolves():
    namespace = {}
    exec("from wreathtree import *", namespace)
    assert set(namespace) - {"__builtins__"} == EXPORTS
    for name in wreathtree.__all__:
        assert namespace[name] is getattr(wreathtree, name)


DECIDE_EXPORTS = (
    "ConjugacyStatus",
    "RationalSeries",
    "abelianization_equal",
    "conjugate",
    "is_spherically_transitive",
    "rational_form",
)


def test_decide_exports_bind_into_the_package_on_first_use():
    # in a fresh process, so that no earlier test has loaded decide; the
    # benchmark's tracing rewraps functions found in vars(package)
    probe = (
        "import sys, wreathtree\n"
        f"names = {DECIDE_EXPORTS!r}\n"
        "assert 'wreathtree.decide' not in sys.modules\n"
        "assert not set(names) & set(vars(wreathtree))\n"
        "wreathtree.conjugate\n"
        "from wreathtree import decide\n"
        "assert all(vars(wreathtree)[n] is getattr(decide, n) for n in names)\n"
        "assert not hasattr(wreathtree, 'no_such_name')\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(wreathtree.__file__).parent.parent))
    subprocess.run([sys.executable, "-c", probe], env=env, check=True)


def test_the_benchmark_reads_only_exported_names():
    # the benchmark calls the package as ``wt``; reading its sources keeps a
    # later trim of __all__ from breaking it unnoticed
    used = set()
    for path in (ROOT / "bench").glob("*.py"):
        used.update(re.findall(r"\bwt\.([A-Za-z_]\w*)", path.read_text(encoding="utf-8")))
    assert used, "no wt.<name> found under bench/"
    assert used <= set(wreathtree.__all__), sorted(used - set(wreathtree.__all__))


def test_the_verdict_and_series_types_stay_dataclasses():
    # bench/test_bench.py mutates results with dataclasses.replace.  On a
    # slotted record that call raises TypeError, which the harness counts
    # as the one failure it expects, so its checks of a mutated numerator
    # and a flipped verdict would pass without checking anything.
    assert dataclasses.is_dataclass(TransitivityVerdict)
    assert dataclasses.is_dataclass(wreathtree.RationalSeries)


def _imports(path):
    """(level, module) of every import in a source file, level 0 for an absolute one."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.extend((0, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            found.append((node.level, node.module))
    return found


def test_the_simulator_imports_no_package_module_but_automaton():
    # the README's claim that the simulator never reads incidence matrices
    # or streams: of the package it shares only the lowest layer
    package = {
        (level, module)
        for level, module in _imports(SRC / "oracle.py")
        if level or module.partition(".")[0] == "wreathtree"
    }
    assert package == {(1, "automaton")}


def test_the_package_imports_only_itself_and_the_standard_library():
    # numpy and sympy are installed where the tests run, so an accidental
    # runtime dependency would pass every other test
    paths = sorted(SRC.glob("*.py"))
    assert paths
    for path in paths:
        for level, module in _imports(path):
            assert level or module.partition(".")[0] in sys.stdlib_module_names, (path.name, module)


def _unused_package_imports(path):
    """Names a module imports from the package but never reads, annotations included."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level or node.module.partition(".")[0] == "wreathtree")
        for alias in node.names
    }
    # annotations are expressions in the tree, so a name read only there counts
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_every_name_a_module_imports_from_the_package_is_used():
    # each name has one home: a module imports a package name only to use
    # it, never to offer it again; __init__ exists to re-export
    paths = sorted(set(SRC.glob("*.py")) - {SRC / "__init__.py"})
    assert len(paths) == 5
    for path in paths:
        assert _unused_package_imports(path) == [], path.name
