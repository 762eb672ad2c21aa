"""Decision procedures built on the abelianized coefficient stream.

A tree automorphism whose output rows are all powers of the standard
k-cycle lives in the infinitely iterated wreath product of Z/kZ.  Its
image in the abelianization of that group is a power series whose n-th
coefficient is the sum, over all vertices at depth n, of the shift
written at that vertex.  Two classical facts drive everything here:

* the automorphism moves every depth transitively iff every stream
  coefficient is a unit mod k, and
* two such transitive automorphisms are conjugate iff their streams
  agree.

The stream coefficients are ``(A^j v)[init]`` where A is the incidence
matrix of the machine and v holds the per-state shifts, so all of this
reduces to iterating w -> A w mod m, the one kernel in ``modmath``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import islice
from math import gcd
from operator import mul

from .automaton import (
    AbelianLabels,
    AlphabetMismatchError,
    AutomatonError,
    InitialAutomaton,
    validate_cyclic,
)
from .modmath import (
    EventuallyPeriodicStream,
    RationalSeries,
    _iterates,
    _rows,
    abelian_vector,
    char_poly_mod,
    coefficient_stream,
    incidence_matrix,
    labels_or_shifts,
)


class ModuliMismatchError(AutomatonError):
    """Two label sets over different moduli were compared."""


@dataclass(frozen=True)
class TransitivityVerdict:
    """Outcome of the transitivity test.

    ``first_bad_index`` is the least stream index carrying a non-unit
    mod k, or None; the automorphism is transitive on every level iff
    no such index exists.
    """

    transitive: bool
    first_bad_index: int | None
    stream: EventuallyPeriodicStream


class ConjugacyStatus(enum.Enum):
    CONJUGATE = "conjugate"
    NOT_CONJUGATE = "not_conjugate"
    UNDECIDED = "undecided"


@dataclass(frozen=True)
class ConjugacyVerdict:
    status: ConjugacyStatus
    reason: str


def _first_non_unit(stream: EventuallyPeriodicStream) -> int | None:
    """Least index with gcd(term, modulus) > 1, scanning one full cycle."""
    for j, c in enumerate(stream.preperiod + stream.period):
        if gcd(c, stream.modulus) != 1:
            return j
    return None


def is_spherically_transitive(g: InitialAutomaton) -> TransitivityVerdict:
    """Decide whether g acts transitively on every depth of the tree.

    Requires every output row to be a power of the standard cycle.  The
    full coefficient stream is computed in closed form and scanned for
    a non-unit; by periodicity, scanning the preperiod plus one period
    settles every index.
    """
    labels = validate_cyclic(g.automaton)
    matrix = incidence_matrix(g.automaton)
    vector = abelian_vector(labels, 0)
    stream = coefficient_stream(matrix, vector, g.initial)
    bad = _first_non_unit(stream)
    return TransitivityVerdict(bad is None, bad, stream)


def abelianization_equal(
    f: InitialAutomaton,
    g: InitialAutomaton,
    labels_f: AbelianLabels | None = None,
    labels_g: AbelianLabels | None = None,
) -> tuple[bool, int | None]:
    """Whether f and g have the same abelianization series.

    Labels default to the cyclic shifts mod k; explicit labels allow any
    product of cyclic groups, compared component by component over the
    shared moduli.  Each component iterates the two machines side by
    side, as one block-diagonal incidence matrix A on d stacked states,
    and asks whether the two marked coordinates of its iterates ever
    differ.  Returns (equal, witness) where the witness is the least
    series index at which any component differs, or None.

    The difference of the marked coordinates is a linear functional of
    the iterates w, A w, A^2 w, ... mod m.  The submodules they span
    stop growing within d * Omega(m) steps, the length of (Z/m)^d, and
    Cayley-Hamilton over Z/m tightens that to d: every iterate from
    A^d w on is a combination of the d before it (see ``modmath``).  So
    indices 0 .. d - 1 decide every component, whatever m is, and the
    first index found is the least witness.
    """
    if f.k != g.k:
        raise AlphabetMismatchError(f"alphabet sizes differ: {f.k} != {g.k}")
    labels_f = labels_or_shifts(f.automaton, labels_f)
    labels_g = labels_or_shifts(g.automaton, labels_g)
    if labels_f.moduli != labels_g.moduli:
        raise ModuliMismatchError(
            f"label moduli differ: {labels_f.moduli} != {labels_g.moduli}"
        )
    n_f = f.automaton.n_states
    delta = f.automaton.delta + tuple(
        tuple(n_f + s for s in row) for row in g.automaton.delta
    )
    rows = _rows(delta)
    i_f, i_g = f.initial, n_f + g.initial
    witness: int | None = None
    for component, m in enumerate(labels_f.moduli):
        w = tuple(row[component] for row in labels_f.labels + labels_g.labels)
        bound = len(delta) if witness is None else witness
        for j, w in zip(range(bound), _iterates(rows, w, m)):
            if w[i_f] != w[i_g]:
                witness = j
                break
    return witness is None, witness


def conjugate(f: InitialAutomaton, g: InitialAutomaton) -> ConjugacyVerdict:
    """Three-valued conjugacy test inside the iterated wreath product.

    The abelianization series is a class function on the group, so
    differing series prove the elements are not conjugate.  Equal series
    also mean equal transitivity, since the series alone says whether
    every coefficient is a unit, so one transitivity test settles both
    elements.  For two transitive elements equal series are a complete
    conjugacy invariant.  When neither is transitive the series says
    nothing more and the verdict is left undecided rather than guessed.
    """
    equal, witness = abelianization_equal(f, g)
    if not equal:
        return ConjugacyVerdict(
            ConjugacyStatus.NOT_CONJUGATE,
            f"the abelianization series, a conjugacy invariant, first differ "
            f"at index {witness}",
        )
    if is_spherically_transitive(f).transitive:
        return ConjugacyVerdict(
            ConjugacyStatus.CONJUGATE,
            "both spherically transitive with equal abelianization series",
        )
    return ConjugacyVerdict(
        ConjugacyStatus.UNDECIDED,
        "neither element is spherically transitive; the abelianization "
        "criterion only decides the transitive case",
    )


def rational_form(
    g: InitialAutomaton,
    labels: AbelianLabels | None = None,
    component: int = 0,
) -> RationalSeries:
    """The abelianization series as a quotient of polynomials mod m.

    The series S is the ``init`` coordinate of (I - At)^-1 v for the
    incidence matrix A and the labels v, so by Cramer's rule it is N/D
    with D = det(I - At) and N the same determinant with column
    ``init`` replaced by v.  D is the characteristic polynomial of A
    read backwards, computed mod m by the division-free
    Samuelson-Berkowitz recursion (``char_poly_mod``).  Column ``init``
    of N's matrix is constant and the others have degree at most 1, so
    N has degree at most n - 1; and N = D S exactly over Z.  Hence
    N = D S mod t^n, built from the first n stream terms, and reducing
    mod m commutes with both steps: the pair is the two Z[t]
    determinants reduced mod m, with no big integers on the way.
    """
    m, v = abelian_vector(labels_or_shifts(g.automaton, labels), component)
    delta = g.automaton.delta
    n = len(delta)
    denominator = char_poly_mod(delta, m)
    terms = [w[g.initial] for w in islice(_iterates(_rows(delta), v, m), n)]
    numerator = [sum(map(mul, denominator[j::-1], terms)) % m for j in range(n)]
    return RationalSeries(m, numerator, denominator)
