"""The top-level surface of the package: the documented names, all of them resolvable."""

import re
from pathlib import Path

import wreathtree

ROOT = Path(__file__).resolve().parent.parent

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
    for name in wreathtree.__all__:
        assert namespace[name] is getattr(wreathtree, name)


def test_the_benchmark_reads_only_exported_names():
    # the benchmark calls the package as ``wt``; reading its sources keeps a
    # later trim of __all__ from breaking it unnoticed
    used = set()
    for path in (ROOT / "bench").glob("*.py"):
        used.update(re.findall(r"\bwt\.([A-Za-z_]\w*)", path.read_text(encoding="utf-8")))
    assert used, "no wt.<name> found under bench/"
    assert used <= set(wreathtree.__all__), sorted(used - set(wreathtree.__all__))
