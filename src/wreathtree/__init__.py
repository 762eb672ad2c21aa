"""Tree automorphisms from Mealy automata: transitivity and conjugacy tests.

The package represents automorphisms of the rooted k-ary tree by
invertible Mealy automata, extracts their abelianization power series
exactly, and decides spherical transitivity, series equality and (for
transitive elements) conjugacy.  A brute-force simulator of the tree
action provides independent ground truth for all of it.
"""

from .automaton import (
    AbelianLabels,
    AlphabetMismatchError,
    AutomatonError,
    AutomatonFile,
    BadComponentError,
    BadPermutationError,
    BadSymbolError,
    InitialAutomaton,
    MealyAutomaton,
    MissingAlphabetError,
    MissingInitialError,
    NotCyclicError,
    ParseError,
    UnknownStateError,
    format_word,
    parse_automaton,
    parse_word,
    serialize_automaton,
    to_dot,
    validate_cyclic,
)
from .decide import (
    ConjugacyStatus,
    ConjugacyVerdict,
    ModuliMismatchError,
    TransitivityVerdict,
    abelianization_equal,
    conjugate,
    is_spherically_transitive,
    rational_form,
)
from .modmath import (
    DEFAULT_VISIT_CAP,
    DimensionMismatchError,
    EventuallyPeriodicStream,
    IterationCapError,
    NegativeIndexError,
    NonUnitConstantTermError,
    RationalSeries,
    abelian_vector,
    coefficient_stream,
    incidence_matrix,
    series_expand,
)
from .oracle import (
    DEFAULT_WORD_CAP,
    LevelOrbitReport,
    LevelTooLargeError,
    abelian_coefficient_bruteforce,
    conjugate_by,
    level_transitive,
)

__version__ = "0.1.0"

__all__ = [
    "AbelianLabels",
    "AlphabetMismatchError",
    "AutomatonError",
    "AutomatonFile",
    "BadComponentError",
    "BadPermutationError",
    "BadSymbolError",
    "ConjugacyStatus",
    "ConjugacyVerdict",
    "DEFAULT_VISIT_CAP",
    "DEFAULT_WORD_CAP",
    "DimensionMismatchError",
    "EventuallyPeriodicStream",
    "InitialAutomaton",
    "IterationCapError",
    "LevelOrbitReport",
    "LevelTooLargeError",
    "MealyAutomaton",
    "MissingAlphabetError",
    "MissingInitialError",
    "ModuliMismatchError",
    "NegativeIndexError",
    "NonUnitConstantTermError",
    "NotCyclicError",
    "ParseError",
    "RationalSeries",
    "TransitivityVerdict",
    "UnknownStateError",
    "abelian_coefficient_bruteforce",
    "abelian_vector",
    "abelianization_equal",
    "coefficient_stream",
    "conjugate",
    "conjugate_by",
    "format_word",
    "incidence_matrix",
    "is_spherically_transitive",
    "level_transitive",
    "parse_automaton",
    "parse_word",
    "rational_form",
    "serialize_automaton",
    "series_expand",
    "to_dot",
    "validate_cyclic",
]
