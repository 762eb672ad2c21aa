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

from itertools import chain, cycle, islice
from math import gcd
from operator import itemgetter, mul

from .automaton import (
    AbelianLabels,
    AutomatonError,
    DimensionMismatchError,
    InitialAutomaton,
    MealyAutomaton,
    _check_index,
    _check_residues,
    _label_vector,
    _Record,
)

DEFAULT_VISIT_CAP = 10_000_000


class NonUnitConstantTermError(AutomatonError):
    """Series denominator whose constant term is not invertible mod m."""


class IterationCapError(AutomatonError):
    """Cycle search visited more vectors than the safety cap allows."""


class EventuallyPeriodicStream(_Record):
    """An infinite residue sequence given by a preperiod and a repeating period."""

    __slots__ = ("modulus", "preperiod", "period")

    def __init__(self, modulus: int, preperiod, period):
        super().__init__(modulus, tuple(preperiod), tuple(period))
        self._check()

    def _check(self):
        _check_residues(self.modulus, "term", self.preperiod + self.period)
        if not self.period:
            raise AutomatonError("the period must not be empty")

    def term(self, j: int) -> int:
        if _check_index(j, "stream index") < len(self.preperiod):
            return self.preperiod[j]
        return self.period[(j - len(self.preperiod)) % len(self.period)]

    def terms(self, count: int) -> list[int]:
        count = _check_index(count, "term count")
        return list(islice(chain(self.preperiod, cycle(self.period)), count))


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
        raise DimensionMismatchError(f"matrix is {n}x{n} but the vector has {len(w)} entries")
    _check_index(init, "initial state index", n, DimensionMismatchError)
    _check_index(cap, "visit cap")
    _check_residues(m, "vector entry", w)
    seen: dict = {}
    for w in _iterates(matrix, tuple(w), m):
        # compared with the size before the insert, a fixed point is a revisit
        size = len(seen)
        r = seen.setdefault(w, size)
        if r < size:
            terms = [v[init] for v in seen]
            return EventuallyPeriodicStream._of(m, tuple(terms[:r]), tuple(terms[r:]))
        if size >= cap:
            raise IterationCapError(
                f"visited more than {cap} distinct vectors without closing a cycle"
            )


def series_stream(
    g: InitialAutomaton, labels: AbelianLabels | None = None, component: int = 0
) -> EventuallyPeriodicStream:
    """g's series as a stream, read at g.initial.

    Its terms sum one label component, given one row per state, or by
    default each state's shift mod k, which needs cyclic output rows.
    ``is_spherically_transitive`` and the ``coeffs`` command read it.
    """
    vector = _label_vector(g.automaton, labels, component)
    return coefficient_stream(incidence_matrix(g.automaton), vector, g.initial)


def series_terms(
    g: InitialAutomaton, labels: AbelianLabels | None = None, component: int = 0
):
    """g's series as (m, its terms one by one), with the labels read as by ``series_stream``.

    The terms are lazy, one kernel step each, for callers that read only
    a bounded prefix: ``abelianization_equal`` and ``rational_form`` read
    the series through this alone.
    """
    m, v = _label_vector(g.automaton, labels, component)
    return m, map(itemgetter(g.initial), _iterates(incidence_matrix(g.automaton), v, m))


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
    _check_residues(m)
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


def series_expand(series, count: int) -> list[int]:
    """First ``count`` coefficients of numerator/denominator in Z/mZ[[t]].

    ``series`` is a ``decide.RationalSeries``; only its fields are read,
    so this module never imports ``decide``.

    Solves the linear recurrence d_0 c_j = num_j - sum d_i c_{j-i}; the
    constant denominator term must be a unit mod m.
    """
    _check_index(count, "term count")
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
