"""The rational form as it was first computed: two determinants over Z[t].

A reference for ``rational_form``, kept on the test side only.  Integer
polynomials, fraction-free (Bareiss) determinants over Z[t], and
``cramer_pairs``, which builds I - At, replaces column ``init`` with the
labels, and reduces both determinants mod m only at the end.  Exact
but slow: the coefficients grow into big integers, about n^3.5 overall.
"""

from __future__ import annotations

from dataclasses import dataclass

from wreathtree import RationalSeries
from wreathtree.automaton import DimensionMismatchError


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


def cramer_pairs(g, labels) -> list[RationalSeries]:
    """Per label component: det(I - At) and its column ``init`` replaced by the labels, mod m."""
    n = g.automaton.n_states
    char = []
    for i, row in enumerate(g.automaton.delta):
        counts = [0] * n
        for s in row:
            counts[s] += 1
        char.append([IntPolynomial((int(i == j), -counts[j])) for j in range(n)])
    denominator = det_poly(char)
    pairs = []
    for component, m in enumerate(labels.moduli):
        for i in range(n):
            char[i][g.initial] = IntPolynomial.constant(labels.labels[i][component])
        numerator = det_poly(char)
        pairs.append(RationalSeries(m, numerator.coeffs, denominator.coeffs))
    return pairs
