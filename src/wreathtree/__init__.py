"""Tree automorphisms from Mealy automata: transitivity and conjugacy tests.

The package represents automorphisms of the rooted k-ary tree by
invertible Mealy automata, extracts their abelianization power series
exactly, and decides spherical transitivity, series equality and (for
transitive elements) conjugacy.  A brute-force simulator of the tree
action provides independent ground truth for all of it.

Error subclasses, verdict and report types and the word helpers are
imported from their own modules, e.g.
``from wreathtree.automaton import ParseError``.

The six exports of ``decide`` load on first use: the first access to
any of them imports ``decide`` and binds all six here, so later lookups
are plain attribute reads.  ``decide`` is the one module that still
uses ``dataclasses``, whose import (with ``inspect``) would otherwise
cost every CLI command that never decides anything.
"""

from .automaton import (
    AbelianLabels,
    AutomatonError,
    InitialAutomaton,
    MealyAutomaton,
    abelian_vector,
    parse_automaton,
    serialize_automaton,
    to_dot,
    validate_cyclic,
)
from .modmath import (
    DEFAULT_VISIT_CAP,
    IterationCapError,
    coefficient_stream,
    incidence_matrix,
    series_expand,
)
from .oracle import abelian_coefficient_bruteforce, conjugate_by, level_transitive

__version__ = "0.1.0"

_DECIDE = (
    "ConjugacyStatus",
    "RationalSeries",
    "abelianization_equal",
    "conjugate",
    "is_spherically_transitive",
    "rational_form",
)


def __getattr__(name):
    """Import ``decide`` on first use of one of its exports (PEP 562)."""
    if name not in _DECIDE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import decide

    namespace = globals()
    for export in _DECIDE:
        namespace[export] = getattr(decide, export)
    return namespace[name]


__all__ = [
    "AbelianLabels",
    "AutomatonError",
    "DEFAULT_VISIT_CAP",
    "InitialAutomaton",
    "IterationCapError",
    "MealyAutomaton",
    "abelian_coefficient_bruteforce",
    "abelian_vector",
    "coefficient_stream",
    "conjugate_by",
    "incidence_matrix",
    "level_transitive",
    "parse_automaton",
    "serialize_automaton",
    "series_expand",
    "to_dot",
    "validate_cyclic",
    *_DECIDE,
]
