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
matrix of the machine and v holds the per-state shifts.  Transitivity,
equality and conjugacy iterate w -> A w mod m, the stream kernel in
``modmath``; ``rational_form`` instead takes the powers A^1 .. A^n
over Z, in ``modmath.rational_pair``.
"""

import enum
from dataclasses import dataclass
from math import gcd

from .automaton import (
    AbelianLabels,
    AutomatonError,
    InitialAutomaton,
    _check_alphabets,
    _check_size,
    _is_int,
    _label_vector,
    _moduli,
    _not_integer,
    _Record,
)
from .modmath import EventuallyPeriodicStream, rational_pair, series_stream, series_terms


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


class ConjugacyVerdict(_Record):
    __slots__ = ("status", "reason")

    def __init__(self, status: ConjugacyStatus, reason: str):
        super().__init__(status, reason)


def is_spherically_transitive(g: InitialAutomaton) -> TransitivityVerdict:
    """Decide whether g acts transitively on every depth of the tree.

    Requires every output row to be a power of the standard cycle.  The
    full coefficient stream is computed in closed form and scanned for
    a non-unit, a term c with gcd(c, k) > 1; by periodicity, scanning
    the preperiod plus one period settles every index.
    """
    stream = series_stream(g)
    for j, c in enumerate(stream.preperiod + stream.period):
        if gcd(c, stream.modulus) != 1:
            return TransitivityVerdict(False, j, stream)
    return TransitivityVerdict(True, None, stream)


def abelianization_equal(
    f: InitialAutomaton,
    g: InitialAutomaton,
    labels_f: AbelianLabels | None = None,
    labels_g: AbelianLabels | None = None,
) -> tuple[bool, int | None]:
    """Whether f and g have the same abelianization series.

    Labels default to the cyclic shifts mod k; explicit labels allow any
    product of cyclic groups, compared component by component over the
    shared moduli, which are matched before any output row is judged
    cyclic.  Each component iterates the two machines side by side and
    compares their series term by term, with no cycle search.  Returns
    (equal, witness) where the witness is the least series index at
    which any component differs, or None.

    The pair of j-th iterates of f and g is the j-th iterate of the
    block-diagonal matrix diag(A_f, A_g) on d = n_f + n_g coordinates,
    and the difference of the two terms is a linear functional of it.
    So indices 0 .. d - 1 decide every component, whatever m is, by the
    bound proved in ``modmath``, and the first index found is the least.
    """
    _check_alphabets(f, g)
    moduli_f, moduli_g = _moduli(f.automaton, labels_f), _moduli(g.automaton, labels_g)
    if moduli_f != moduli_g:
        raise ModuliMismatchError(f"label moduli differ: {moduli_f} != {moduli_g}")
    witness: int | None = None
    for component in range(len(moduli_f)):
        bound = f.automaton.n_states + g.automaton.n_states if witness is None else witness
        _, terms_f = series_terms(f, labels_f, component)
        _, terms_g = series_terms(g, labels_g, component)
        for j, a, b in zip(range(bound), terms_f, terms_g):
            if a != b:
                witness = j
                break
    return witness is None, witness


def conjugate(f: InitialAutomaton, g: InitialAutomaton) -> ConjugacyVerdict:
    """Three-valued conjugacy test inside the iterated wreath product.

    The abelianization series is a class function on the group, so
    differing series prove the elements are not conjugate.  Machines
    that act alike (``equivalent``) are conjugate by the identity.  Equal
    series also mean equal transitivity, since the series alone says
    whether every coefficient is a unit, so one transitivity test settles
    both elements.  For two transitive elements equal series are a
    complete conjugacy invariant.  When neither is transitive the series
    says nothing more and the verdict is left undecided rather than
    guessed.
    """
    equal, witness = abelianization_equal(f, g)
    if not equal:
        return ConjugacyVerdict(
            ConjugacyStatus.NOT_CONJUGATE,
            f"the abelianization series, a conjugacy invariant, first differ "
            f"at index {witness}",
        )
    if f.equivalent(g):
        return ConjugacyVerdict(
            ConjugacyStatus.CONJUGATE,
            "the machines act alike, so the identity conjugates one to the other",
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


def _strip_mod(coeffs, m: int) -> tuple[int, ...]:
    reduced = []
    for c in coeffs:
        if not _is_int(c):
            raise _not_integer("coefficient", c)
        reduced.append(c % m)
    return _stripped(reduced)


def _stripped(residues) -> tuple[int, ...]:
    """The residues as a tuple with trailing zeros stripped."""
    residues = tuple(residues)
    end = len(residues)
    while end and not residues[end - 1]:
        end -= 1
    return residues[:end]


@dataclass(frozen=True)
class RationalSeries:
    """A quotient of polynomials over Z/mZ read as a formal power series.

    Coefficient lists are ascending and stored as canonical residues
    with trailing zeros stripped; the zero polynomial is empty.
    """

    modulus: int
    numerator: tuple[int, ...]
    denominator: tuple[int, ...]

    def __post_init__(self):
        _check_size(self.modulus, "modulus")
        object.__setattr__(self, "numerator", _strip_mod(self.numerator, self.modulus))
        object.__setattr__(
            self, "denominator", _strip_mod(self.denominator, self.modulus)
        )

    @classmethod
    def _of(cls, modulus: int, numerator, denominator) -> "RationalSeries":
        """The record of these canonical residues, trailing zeros stripped, unchecked."""
        record = object.__new__(cls)
        object.__setattr__(record, "modulus", modulus)
        object.__setattr__(record, "numerator", _stripped(numerator))
        object.__setattr__(record, "denominator", _stripped(denominator))
        return record


def rational_form(
    g: InitialAutomaton,
    labels: AbelianLabels | None = None,
    component: int = 0,
) -> RationalSeries:
    """The abelianization series as a quotient of polynomials mod m.

    The labels are read as by ``series_stream``, and the pair N/D is
    ``modmath.rational_pair``'s.  Its residues are canonical, so the
    record is built by ``RationalSeries._of``, unchecked.
    """
    vector = _label_vector(g.automaton, labels, component)
    numerator, denominator = rational_pair(g.automaton.delta, vector, g.initial)
    return RationalSeries._of(vector[0], numerator, denominator)
