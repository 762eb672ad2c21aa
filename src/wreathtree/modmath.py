"""Exact arithmetic backing the series analysis.

Everything here is integer arithmetic: residue vectors mod m, the
state-transition incidence matrix of an automaton, eventually periodic
coefficient streams found by remembering every visited vector, and
fraction-free determinants of matrices over Z[t].  No floating point
appears anywhere.

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
from operator import itemgetter

from .automaton import AbelianLabels, AutomatonError, BadComponentError, MealyAutomaton

DEFAULT_VISIT_CAP = 10_000_000


class DimensionMismatchError(AutomatonError):
    """Matrix and vector shapes disagree."""


class NonUnitConstantTermError(AutomatonError):
    """Series denominator whose constant term is not invertible mod m."""


class IterationCapError(AutomatonError):
    """Cycle search visited more vectors than the safety cap allows."""


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


@dataclass(frozen=True)
class IntPolynomial:
    """Polynomial with integer coefficients, lowest degree first.

    The representation is canonical: trailing zero coefficients are
    stripped and the zero polynomial is the empty tuple.
    """

    coeffs: tuple[int, ...] = ()

    def __post_init__(self):
        coeffs = tuple(self.coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def constant(cls, c: int) -> "IntPolynomial":
        return cls((c,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return IntPolynomial(
            tuple(x + y for x, y in zip(a, b)) + a[len(b):]
        )

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + (-other)

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPolynomial()
        prod = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] += x * y
        return IntPolynomial(tuple(prod))

    def exact_div(self, other: "IntPolynomial") -> "IntPolynomial":
        """Exact quotient in Z[t]; raises ArithmeticError if not exact."""
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        if not self:
            return IntPolynomial()
        rem = list(self.coeffs)
        width = len(other.coeffs)
        if len(rem) < width:
            raise ArithmeticError("inexact polynomial division")
        lead = other.coeffs[-1]
        quot = [0] * (len(rem) - width + 1)
        for shift in range(len(rem) - width, -1, -1):
            c = rem[shift + width - 1]
            if c == 0:
                continue
            q, r = divmod(c, lead)
            if r != 0:
                raise ArithmeticError("inexact polynomial division")
            quot[shift] = q
            for i, oc in enumerate(other.coeffs):
                rem[shift + i] -= q * oc
        if any(rem):
            raise ArithmeticError("inexact polynomial division")
        return IntPolynomial(tuple(quot))



def _as_poly(entry) -> IntPolynomial:
    if isinstance(entry, IntPolynomial):
        return entry
    if isinstance(entry, int):
        return IntPolynomial.constant(entry)
    raise TypeError(f"matrix entries must be integers or IntPolynomial, got {entry!r}")


def det_poly(matrix) -> IntPolynomial:
    """Determinant of a square matrix over Z[t].

    Fraction-free elimination: at every step the two-by-two cross
    product is divided by the previous pivot, and that division is
    exact in Z[t], so no rational arithmetic is needed.  Row swaps flip
    the sign; a column with no pivot means the determinant is zero.
    """
    rows = [[_as_poly(e) for e in row] for row in matrix]
    n = len(rows)
    for row in rows:
        if len(row) != n:
            raise DimensionMismatchError("determinant needs a square matrix")
    if n == 0:
        return IntPolynomial.constant(1)
    sign = 1
    prev = IntPolynomial.constant(1)
    for c in range(n - 1):
        pivot = next((r for r in range(c, n) if rows[r][c]), None)
        if pivot is None:
            return IntPolynomial()
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            sign = -sign
        for r in range(c + 1, n):
            for j in range(c + 1, n):
                cross = rows[r][j] * rows[c][c] - rows[r][c] * rows[c][j]
                rows[r][j] = cross.exact_div(prev)
            rows[r][c] = IntPolynomial()
        prev = rows[c][c]
    det = rows[n - 1][n - 1]
    return det if sign == 1 else -det


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
