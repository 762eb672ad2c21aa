"""Exact arithmetic backing the series analysis.

Everything here is integer arithmetic: residue vectors mod m, the
state-transition incidence matrix of an automaton, eventually periodic
coefficient streams found by remembering every visited vector, and
the series as a quotient of two polynomials.  No floating point
appears anywhere.  Only ``rational_pair`` works over Z, in lanes of
big integers that its docstring states.

Neither loop builds A.  Row q of A counts the successors of state q,
so (A w)[q] is the sum of w over those successors, and A is the sum of
the k 0/1 matrices P_a of the letters, where row q of P_a X is row
delta(q, a) of X.  Each loop gathers one way, the cheaper one at its
sizes.  The stream kernel w -> A w mod m gathers by rows:
``incidence_matrix`` keeps one ``itemgetter`` per state, and
``_iterates`` yields w, A w, A^2 w, ... from them, as its tables have
few states and up to nine letters.  ``rational_pair`` gathers by the k
letter columns and adds the k gathered powers element-wise, as its
tables have many more states than letters.

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
from operator import add, and_, itemgetter, lshift, mul

from .automaton import (
    AbelianLabels,
    AutomatonError,
    DimensionMismatchError,
    InitialAutomaton,
    MealyAutomaton,
    _check_index,
    _check_residues,
    _check_size,
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


def _iterates(rows, w: tuple[int, ...], m: int):
    """Yield w, A w, A^2 w, ... mod m, where ``rows`` come from ``incidence_matrix``."""
    while True:
        yield w
        w = tuple([sum(row(w)) % m for row in rows])


def incidence_matrix(m: MealyAutomaton) -> tuple:
    """The incidence matrix of m, one successor getter per state.

    Entry (r, s) of the matrix counts the symbols moving r to s, so row
    r applied to a vector is the sum of its entries at r's successors.
    These rows are the stream kernel's gather, n Python-level sums per
    step.  Its tables have few states, n <= 8 against up to 9 letters
    on the series workloads, where rows measured 1.4-1.5x faster than
    ``rational_pair``'s gather by the k letter columns.
    """
    return tuple(itemgetter(*row) for row in m.delta)


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
    a bounded prefix: ``abelianization_equal`` reads the series through
    this alone.  ``rational_form`` takes its n terms from
    ``rational_pair``'s power loop instead.
    """
    m, v = _label_vector(g.automaton, labels, component)
    return m, map(itemgetter(g.initial), _iterates(incidence_matrix(g.automaton), v, m))


def rational_pair(delta, vector: tuple[int, tuple[int, ...]], init: int):
    """The series j -> (A^j v)[init] as (numerator, denominator) mod m.

    A is the incidence matrix of ``delta`` and ``vector`` is (m, v) as
    ``_label_vector`` returns it.  Both polynomials are lists of
    canonical residues, lowest degree first and not stripped: n for the
    numerator and n + 1 for the denominator.

    The series S is the ``init`` coordinate of (I - A t)^-1 v, so by
    Cramer's rule S = N/D with D = det(I - A t) and N the same
    determinant with column ``init`` replaced by v.  Read highest degree
    first, D is det(x I - A), the characteristic polynomial.  Its
    coefficients c_0 = 1, c_1, ..., c_n come from the power sums
    s_j = tr(A^j) by Newton's identities,
    j c_j = -(c_{j-1} s_1 + c_{j-2} s_2 + ... + c_0 s_j), all over Z;
    the division by j is exact, as the c_j are integers.  Column
    ``init`` of N's matrix is constant and the others have degree at
    most 1, so N has degree at most n - 1, and N = D S over Z; hence
    N = D S mod t^n, from the first n terms of S.  Reducing mod m
    commutes with both steps, so the pair is exact for every m.

    One loop over A^1 .. A^n gives the traces and the terms.  A^(j+1)
    is the k gathers P_a A^j added element-wise: one ``itemgetter`` per
    letter reads the rows at column a of ``delta``, and k - 1 lazy
    ``map(add, ...)`` join the k gathered tuples, so a power takes k
    Python-level steps where the stream kernel's row gather takes n.
    Each getter also reads a zero row kept at index n, so it returns a
    tuple even for one state; that row stays zero, and neither ``diag``
    nor ``init`` reaches it.

    The lanes.  A has row sums k, so every entry of A^j for j <= n is at
    most k^n and every trace at most n k^n.  Row q of a power is one
    integer holding its n entries in lanes of w = bit_length(n k^n) + 1
    bits, which never carry into each other.  The trace is one AND per
    row with its diagonal lane, which leaves the diagonal entry d_q in
    lane q, and their sum mod 2^w - 1: as 2^w = 1 mod 2^w - 1, that is
    d_0 + ... + d_{n-1}, exact since it is at most n k^n < 2^w - 1.
    Row q also carries v[q] in lane n, so the same gather makes lane n
    of row q of A^j equal to (A^j v)[q], exactly over Z; it is the top
    of a Python int, so it grows to k^j (m - 1) with nothing to carry
    into, and no diagonal mask reaches it.  Term j is that lane of row
    ``init`` mod m, read before A^(j+1) is built.  The truncated
    product D S mod t^n is one big-integer product (Kronecker
    substitution): the first n residues of D and the n terms go into
    lanes of width = bit_length(n (m - 1)^2) + 1 bits, and lanes
    0 .. n - 1 of the product, mod m, are N.  Each of those lanes sums
    at most n products of two residues, at most n (m - 1)^2 <
    2^(width - 1), so none carries; c_n reaches only lanes n and above,
    which are not read, so it is not packed.

    Cost: n powers, each n sums of k integers of (n + 1) w + b bits,
    where the top lane takes at most w + b with b = bit_length(m), so
    O(k n^2) additions of such integers in O(k n) Python-level steps.
    Memory peaks near 2.5 n^2 w bits: two powers of n^2 w bits while
    one is built from the other, each with n top lanes, and the masks,
    (q + 1) w bits for lane q; the gathered tuples hold references to
    the rows, not copies.  The product adds O(n width) bits.
    """
    m, v = vector
    _check_size(m, "modulus")
    n, k = len(delta), len(delta[0])
    w = (n * k**n).bit_length() + 1
    lane = (1 << w) - 1
    power = [1 << q * w | v[q] << n * w for q in range(n)] + [0]
    diag = [lane << q * w for q in range(n)]
    first, *others = [itemgetter(*column, n) for column in zip(*delta)]
    c, s, terms = [1], [0], []
    for j in range(1, n + 1):
        terms.append((power[init] >> n * w) % m)
        gathered = first(power)
        for letter in others:
            gathered = map(add, gathered, letter(power))
        power = list(gathered)
        s.append(sum(map(and_, power, diag)) % lane)
        c.append(-sum(map(mul, c, s[j:0:-1])) // j)
    denominator = [x % m for x in c]
    width = (n * (m - 1) ** 2).bit_length() + 1
    shifts = range(0, n * width, width)
    product = sum(map(lshift, denominator, shifts)) * sum(map(lshift, terms, shifts))
    mask = (1 << width) - 1
    return [(product >> shift & mask) % m for shift in shifts], denominator


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
        acc -= sum(map(mul, den[1 : j + 1], reversed(coeffs)))
        coeffs.append(acc * d0_inv % m)
    return coeffs
