"""Exact arithmetic backing the series analysis.

Everything here is integer arithmetic: residue vectors mod m, the
state-transition incidence matrix of an automaton, eventually periodic
coefficient streams found by remembering every visited vector, and
the characteristic polynomial of the incidence matrix mod m, by a
recursion that never divides.  No floating point and no big integers
appear anywhere.

One kernel computes w -> A w mod m for the incidence matrix A, and it
never builds A: row q of A counts the successors of state q, so
(A w)[q] is the sum of w over those successors.  ``incidence_matrix``
keeps one ``itemgetter`` per state that reads them, and ``_iterates``
yields w, A w, A^2 w, ... from it.

Deciding whether a linear functional phi ever takes a nonzero value on
these iterates needs no cycle search.  The Krylov submodules
K_j = span(w, A w, ..., A^j w) of (Z/m)^d grow strictly until one
equals the next, and then stay equal, since A K_j lies in K_{j+1}.  A
strictly increasing chain of submodules of (Z/m)^d has at most
d * Omega(m) steps, where Omega(m) counts the prime factors of m with
multiplicity, so phi vanishes on every iterate once it vanishes on the
first d * Omega(m).  Cayley-Hamilton sharpens that to d for every m:
the characteristic polynomial of A is monic of degree d over Z, so
A^d w, and by induction every later iterate, is a Z/m-combination of
the d iterates before it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from operator import itemgetter, mul

from .automaton import (
    AbelianLabels,
    AutomatonError,
    BadComponentError,
    MealyAutomaton,
    validate_cyclic,
)

DEFAULT_VISIT_CAP = 10_000_000


class DimensionMismatchError(AutomatonError):
    """Matrix and vector shapes disagree."""


class NonUnitConstantTermError(AutomatonError):
    """Series denominator whose constant term is not invertible mod m."""


class IterationCapError(AutomatonError):
    """Cycle search visited more vectors than the safety cap allows."""


class NegativeIndexError(AutomatonError):
    """A series index or tree level below zero was asked for."""


@dataclass(frozen=True)
class EventuallyPeriodicStream:
    """An infinite residue sequence given by a preperiod and a repeating period."""

    modulus: int
    preperiod: tuple[int, ...]
    period: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "preperiod", tuple(self.preperiod))
        object.__setattr__(self, "period", tuple(self.period))
        if self.modulus < 2:
            raise AutomatonError(f"modulus {self.modulus} must be at least 2")
        if not self.period:
            raise AutomatonError("the period must not be empty")
        for c in self.preperiod + self.period:
            if not 0 <= c < self.modulus:
                raise AutomatonError(f"term {c} out of range mod {self.modulus}")

    def term(self, j: int) -> int:
        if j < 0:
            raise NegativeIndexError(f"stream index {j} is negative")
        if j < len(self.preperiod):
            return self.preperiod[j]
        return self.period[(j - len(self.preperiod)) % len(self.period)]

    def terms(self, count: int) -> list[int]:
        return [self.term(j) for j in range(count)]


def _rows(delta) -> tuple:
    """One getter per state that reads w at the state's successors."""
    return tuple(itemgetter(*row) for row in delta)


def _iterates(rows, w: tuple[int, ...], m: int):
    """Yield w, A w, A^2 w, ... mod m, where ``rows`` come from ``_rows``."""
    while True:
        yield w
        w = tuple([sum(row(w)) % m for row in rows])


def incidence_matrix(m: MealyAutomaton) -> tuple:
    """The incidence matrix of m, one successor getter per state.

    Entry (r, s) of the matrix counts the symbols moving r to s, so row
    r applied to a vector is the sum of its entries at r's successors.
    """
    return _rows(m.delta)


def labels_or_shifts(m: MealyAutomaton, labels: AbelianLabels | None) -> AbelianLabels:
    """The given labels, one row per state, or else the cyclic shifts of m."""
    if labels is None:
        return validate_cyclic(m)
    if len(labels.labels) != m.n_states:
        raise DimensionMismatchError(
            f"{len(labels.labels)} label rows for {m.n_states} states"
        )
    return labels


def abelian_vector(labels: AbelianLabels, component: int) -> tuple[int, tuple[int, ...]]:
    """One chosen component of the per-state labels as (modulus, residues)."""
    if not 0 <= component < len(labels.moduli):
        raise BadComponentError(
            f"component {component} out of range, labels have {len(labels.moduli)}"
        )
    return labels.moduli[component], tuple(row[component] for row in labels.labels)


def coefficient_stream(
    matrix: tuple,
    vector: tuple[int, tuple[int, ...]],
    init: int,
    cap: int = DEFAULT_VISIT_CAP,
) -> EventuallyPeriodicStream:
    """The sequence j -> (matrix^j vector)[init] mod m, in closed form.

    Iterates w -> matrix w mod m while remembering the step at which
    each vector first appeared.  The state space is finite, so some
    vector repeats; the first revisit pins down the preperiod and the
    period exactly.  A cap on the number of distinct vectors guards
    against runaway inputs.
    """
    m, w = vector
    n = len(matrix)
    if len(w) != n:
        raise DimensionMismatchError(
            f"matrix is {n}x{n} but the vector has {len(w)} entries"
        )
    if not 0 <= init < n:
        raise DimensionMismatchError(f"index {init} out of range for {n} entries")
    if m < 2:
        raise AutomatonError(f"modulus {m} must be at least 2")
    if not all(0 <= x < m for x in w):
        raise AutomatonError(f"vector entries must be residues mod {m}, got {w}")
    seen: dict = {}
    terms = []
    for w in _iterates(matrix, tuple(w), m):
        r = seen.get(w)
        if r is not None:
            return EventuallyPeriodicStream(m, tuple(terms[:r]), tuple(terms[r:]))
        if len(seen) >= cap:
            raise IterationCapError(
                f"visited more than {cap} distinct vectors without closing a cycle"
            )
        seen[w] = len(terms)
        terms.append(w[init])


def char_poly_mod(delta, m: int) -> list[int]:
    """det(I - A t) mod m, ascending, for the incidence matrix A of ``delta``.

    Read highest degree first, the same list is det(x I - A), the
    characteristic polynomial.  It is built by the Samuelson-Berkowitz
    recursion over the trailing principal blocks B_i = A[i:, i:], for
    i = n - 1 down to 0.  B_i splits into the corner a = A[i][i], the
    row R and the column C beside it, and B_{i+1}; then the coefficients
    of det(x I - B_i), highest degree first, are T_i times those of
    B_{i+1}, where T_i is lower-triangular Toeplitz with first column
    (1, -a, -R C, -R B_{i+1} C, ..., -R B_{i+1}^(n-i-2) C).
    The products B_{i+1}^j C are read off the transition table, so a
    block costs O(k (n - i)^2) and the whole recursion O(k n^3).  It
    only adds and multiplies, so it is exact over Z/m for every m.
    """
    n = len(delta)
    rows = _rows(delta)
    p = [1]
    for i in range(n - 1, -1, -1):
        # C as a length-n vector that is zero at states <= i, so a sum over
        # all successors of a state is a sum over those beyond i only
        zeros, tail = [0] * (i + 1), rows[i + 1:]
        v = zeros + [row.count(i) for row in delta[i + 1:]]
        col = [1, -delta[i].count(i) % m]
        for j in range(n - i - 1):
            if j:
                v = zeros + [sum(row(v)) % m for row in tail]
            col.append(-sum(rows[i](v)) % m)
        # T_i p: coefficient r is the sum of col[r - j] * p[j]
        p = [sum(map(mul, col[r::-1], p)) % m for r in range(len(p) + 1)]
    return p


def _strip_mod(coeffs, m: int) -> tuple[int, ...]:
    reduced = [c % m for c in coeffs]
    while reduced and reduced[-1] == 0:
        reduced.pop()
    return tuple(reduced)


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
        if self.modulus < 2:
            raise AutomatonError(f"modulus {self.modulus} must be at least 2")
        object.__setattr__(self, "numerator", _strip_mod(self.numerator, self.modulus))
        object.__setattr__(
            self, "denominator", _strip_mod(self.denominator, self.modulus)
        )


def series_expand(series: RationalSeries, count: int) -> list[int]:
    """First ``count`` coefficients of numerator/denominator in Z/mZ[[t]].

    Solves the linear recurrence d_0 c_j = num_j - sum d_i c_{j-i}; the
    constant denominator term must be a unit mod m.
    """
    m = series.modulus
    den = series.denominator
    d0 = den[0] if den else 0
    if gcd(d0, m) != 1:
        raise NonUnitConstantTermError(
            f"denominator constant term {d0} is not a unit mod {m}"
        )
    d0_inv = pow(d0, -1, m)
    num = series.numerator
    coeffs: list[int] = []
    for j in range(count):
        acc = num[j] if j < len(num) else 0
        for i in range(1, min(j, len(den) - 1) + 1):
            acc -= den[i] * coeffs[j - i]
        coeffs.append(acc * d0_inv % m)
    return coeffs
