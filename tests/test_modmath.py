import itertools
import math
import random
import tracemalloc

import pytest

import corpus
from wreathtree import (
    AutomatonError,
    IterationCapError,
    RationalSeries,
    coefficient_stream,
    incidence_matrix,
    series_expand,
    validate_cyclic,
)
from wreathtree.automaton import (
    BadComponentError,
    DimensionMismatchError,
    NegativeIndexError,
    abelian_vector,
)
from wreathtree.modmath import (
    EventuallyPeriodicStream,
    NonUnitConstantTermError,
    rational_pair,
    series_stream,
    series_terms,
)
from wreathtree.oracle import abelian_coefficient_bruteforce


# ---------- incidence matrices ----------


def _counts(g):
    """Dense incidence counts, read back through the successor getters."""
    rows = incidence_matrix(g.automaton)
    n = len(rows)
    return tuple(tuple(row(range(n)).count(s) for s in range(n)) for row in rows)


def test_incidence_examples(odometer, lamp_b):
    assert _counts(lamp_b) == ((1, 1), (1, 1))
    assert _counts(odometer) == ((1, 1), (0, 2))
    assert _counts(corpus.identity_machine(3)) == ((3,),)


def test_incidence_rows_sum_to_k(rng):
    for _ in range(40):
        k = rng.choice([2, 3, 4, 6])
        g = corpus.random_invertible(rng, k)
        for row in _counts(g):
            assert sum(row) == k


# ---------- label vectors ----------


def test_abelian_vector_picks_component(lamp_b):
    labels = validate_cyclic(lamp_b.automaton)
    assert abelian_vector(labels, 0) == (2, (0, 1))
    with pytest.raises(BadComponentError):
        abelian_vector(labels, 1)
    with pytest.raises(BadComponentError):
        abelian_vector(labels, -1)


# ---------- streams ----------


def test_stream_odometer(odometer):
    labels = validate_cyclic(odometer.automaton)
    stream = coefficient_stream(
        incidence_matrix(odometer.automaton), abelian_vector(labels, 0), odometer.initial
    )
    assert stream.preperiod == ()
    assert stream.period == (1,)
    assert stream.terms(5) == [1, 1, 1, 1, 1]


def test_stream_lamplighter(lamp_a, lamp_b):
    matrix = incidence_matrix(lamp_b.automaton)
    vector = abelian_vector(validate_cyclic(lamp_b.automaton), 0)
    stream_b = coefficient_stream(matrix, vector, lamp_b.initial)
    assert stream_b.preperiod == (1, 1)
    assert stream_b.period == (0,)
    stream_a = coefficient_stream(matrix, vector, lamp_a.initial)
    assert stream_a.term(0) == 0


def test_stream_zero_labels(lamp_b):
    matrix = incidence_matrix(lamp_b.automaton)
    stream = coefficient_stream(matrix, (2, (0, 0)), 0)
    assert stream.preperiod == ()
    assert stream.period == (0,)


def test_stream_term_crosses_the_period_boundary():
    s = EventuallyPeriodicStream(5, (4, 3), (1, 2))
    assert s.terms(8) == [4, 3, 1, 2, 1, 2, 1, 2]


@pytest.mark.parametrize("preperiod", [(1, 2), ()])
def test_stream_rejects_negative_indices(preperiod):
    # unchecked, index -1 wraps into the period, or raises IndexError
    s = EventuallyPeriodicStream(5, preperiod, (3, 4))
    with pytest.raises(NegativeIndexError):
        s.term(-1)


def test_negative_counts_are_rejected():
    # unchecked, both return [] as if the count were zero
    with pytest.raises(NegativeIndexError):
        EventuallyPeriodicStream(5, (1, 2), (3, 4)).terms(-3)
    with pytest.raises(NegativeIndexError):
        series_expand(RationalSeries(2, (1,), (1, 1)), -1)
    assert EventuallyPeriodicStream(5, (1, 2), (3, 4)).terms(0) == []
    assert series_expand(RationalSeries(2, (1,), (1, 1)), 0) == []


def test_stream_guards():
    with pytest.raises(AutomatonError):
        EventuallyPeriodicStream(2, (0,), ())
    with pytest.raises(AutomatonError):
        EventuallyPeriodicStream(2, (2,), (0,))


def test_stream_matches_direct_matrix_powers(rng):
    # closed form vs. freshly recomputed iterates, well past one period
    for _ in range(40):
        k = rng.choice([2, 3, 4, 6])
        g = corpus.random_cyclic(rng, k)
        matrix = incidence_matrix(g.automaton)
        vector = abelian_vector(validate_cyclic(g.automaton), 0)
        stream = coefficient_stream(matrix, vector, g.initial)
        count = len(stream.preperiod) + 2 * len(stream.period) + 4
        n = g.automaton.n_states
        dense = [[row.count(s) for s in range(n)] for row in g.automaton.delta]
        w = vector[1]
        for j in range(count):
            assert stream.term(j) == w[g.initial]
            w = [sum(a * x for a, x in zip(row, w)) % k for row in dense]
        assert len(stream.preperiod) + len(stream.period) <= k**n


def test_series_terms_agree_with_the_stream_and_the_simulator(rng):
    # the lazy terms, the closed-form stream and the level sums of the tree
    for _ in range(150):
        k = rng.randint(2, 5)
        g = corpus.random_invertible(rng, k, max_states=8)
        moduli = (rng.choice([2, 3, 4, 6]), rng.choice([5, 8, 9, 12]))
        labels = corpus.random_labels(rng, g.automaton.n_states, moduli)
        for component, m in enumerate(moduli):
            got_m, terms = series_terms(g, labels, component)
            assert got_m == m
            terms = list(itertools.islice(terms, 2 * g.automaton.n_states + 5))
            assert terms == series_stream(g, labels, component).terms(len(terms))
            for n in range(5):
                assert terms[n] == abelian_coefficient_bruteforce(g, n, labels, component)


def test_stream_shape_guards(odometer):
    matrix = incidence_matrix(odometer.automaton)
    with pytest.raises(DimensionMismatchError):
        coefficient_stream(matrix, (2, (1,)), 0)
    with pytest.raises(DimensionMismatchError):
        coefficient_stream(matrix, (2, (1, 0)), 2)


def test_mod_vector_guards(odometer):
    matrix = incidence_matrix(odometer.automaton)
    with pytest.raises(AutomatonError):
        coefficient_stream(matrix, (1, (0, 0)), 0)
    with pytest.raises(AutomatonError):
        coefficient_stream(matrix, (3, (0, 3)), 0)
    with pytest.raises(AutomatonError):
        coefficient_stream(matrix, (3, (-1, 0)), 0)


def test_stream_of_a_chain_mod_4():
    # term j is 3^j times the label of chain state j, which sits at j = 3
    g = corpus.chain(3, 4)
    stream = coefficient_stream(
        incidence_matrix(g.automaton), (4, (0, 0, 0, 1, 0)), g.initial
    )
    assert stream.preperiod == (0, 0, 0, 3)
    assert stream.period == (0,)


def test_stream_visit_cap(lamp_b):
    matrix = incidence_matrix(lamp_b.automaton)
    vector = abelian_vector(validate_cyclic(lamp_b.automaton), 0)
    # the stream stores 3 vectors, the last the zero vector, which maps to
    # itself: a cap of 3 closes it there, and a cap of 2 is refused
    stream = coefficient_stream(matrix, vector, lamp_b.initial, cap=3)
    assert (stream.preperiod, stream.period) == ((1, 1), (0,))
    with pytest.raises(
        IterationCapError, match=r"^visited more than 2 distinct vectors without closing a cycle$"
    ):
        coefficient_stream(matrix, vector, lamp_b.initial, cap=2)


# ---------- characteristic polynomials ----------


def _denominator(delta, m):
    """rational_pair's denominator, given the zero vector, whose numerator is all 0."""
    numerator, denominator = rational_pair(delta, (m, (0,) * len(delta)), 0)
    assert numerator == [0] * len(delta)
    return denominator


def test_rational_pair_examples(odometer, lamp_b):
    # det(I - At) = (1 - t)(1 - 2t) for the odometer, 1 - 2t for lamp_b
    assert _denominator(odometer.automaton.delta, 7) == [1, 4, 2]
    assert _denominator(odometer.automaton.delta, 2) == [1, 1, 0]
    assert _denominator(lamp_b.automaton.delta, 5) == [1, 3, 0]
    assert _denominator(((0, 0, 0),), 4) == [1, 1]
    # the odometer's shifts are (1, 0): its series from a is 1/(1 - t),
    # so N = D/(1 - t) = 1 - 2t
    assert rational_pair(odometer.automaton.delta, (2, (1, 0)), 0) == ([1, 0], [1, 1, 0])
    # the modulus follows the residue rule: no floats out, no ZeroDivisionError
    for m, message in (
        (2.0, "modulus 2.0 is not an integer"),
        (0, "modulus 0 must be at least 2"),
    ):
        with pytest.raises(AutomatonError) as err:
            _denominator(odometer.automaton.delta, m)
        assert type(err.value) is AutomatonError
        assert str(err.value) == message


def test_rational_pair_lane_bound():
    # every symbol loops, so A = k I and det(I - A t) = (1 - k t)^n: the
    # widest lanes, since tr(A^n) = n k^n; a nonzero vector in the top
    # lane grows to k^(n-1) v[init] and must not reach the traces, and
    # the series v[init]/(1 - k t) makes N = v[init] (1 - k t)^(n-1)
    for k in (2, 3, 9):
        for n in (1, 2, 5, 17, 40):
            delta = tuple((q,) * k for q in range(n))
            for m in (2, 6, 2**64 + 13):
                want = [math.comb(n, j) * (-k) ** j % m for j in range(n + 1)]
                assert _denominator(delta, m) == want, (k, n, m)
            m = 2**64 + 13
            v = tuple(m - 1 - q for q in range(n))
            for init in {0, n - 1}:
                got = rational_pair(delta, (m, v), init)
                want_num = [v[init] * math.comb(n - 1, j) * (-k) ** j % m for j in range(n)]
                assert got == (want_num, want), (k, n, init)


def test_rational_pair_numerator_is_d_times_the_stream_terms(rng):
    # N = D S mod t^n with S the lazy stream's first n terms, for the
    # shifts mod k and for labelled components, one state included
    for draw in range(160):
        k = rng.randint(2, 9)
        g = corpus.random_cyclic(rng, k, 1 if draw % 8 == 0 else 14)
        n = g.automaton.n_states
        labels = corpus.random_labels(rng, n, rng.sample([2, 6, 7, 2**64 + 13], 2))
        vectors = [(None, 0, abelian_vector(validate_cyclic(g.automaton), 0))]
        vectors += [(labels, c, abelian_vector(labels, c)) for c in (0, 1)]
        for lab, component, vector in vectors:
            m, stream = series_terms(g, lab, component)
            terms = list(itertools.islice(stream, n))
            numerator, denominator = rational_pair(g.automaton.delta, vector, g.initial)
            want = [sum(denominator[i] * terms[j - i] for i in range(j + 1)) % m for j in range(n)]
            assert numerator == want, (g, lab, component)


def test_rational_pair_past_forty_states():
    # both tables are upper triangular and only the sink has a loop, so
    # det(I - A t) = 1 - k t
    for g in (corpus.chain(3, 120), corpus.tail_flip(250)):
        delta = g.automaton.delta
        n, k = len(delta), len(delta[0])
        for m in (2, 6, 2**64 + 13):
            assert _denominator(delta, m) == [1, -k % m] + [0] * (n - 1), (n, m)


def test_rational_pair_memory_grows_as_n_squared_lanes():
    # two powers of n^2 w bits, each with a top lane per row for the
    # label vector, and the masks: about 2.5 n^2 w bits, read by
    # tracemalloc as under 3.5 n^2 w with object headers; the numerator's
    # one product adds only O(n width) bits
    for n in (80, 120):
        g = corpus.random_cyclic(random.Random(n), 3, n, n)
        delta = g.automaton.delta
        vector = abelian_vector(validate_cyclic(g.automaton), 0)
        assert any(vector[1])
        w = (n * 3**n).bit_length() + 1
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            rational_pair(delta, vector, g.initial)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 8 * peak <= 3.5 * n * n * w, (n, 8 * peak / (n * n * w))


def test_rational_pair_denominator_matches_sympy(rng):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    # many small tables with small moduli, a few large ones past 2^64,
    # then tables with more letters than states, down to one state
    draws = [((1, 7), (2, 6), (2, 30))] * 150 + [((8, 40), (2, 9), (2**64 + 1, 2**70))] * 4
    draws += [((1, 3), (6, 9), (2, 30))] * 60
    for n_range, k_range, m_range in draws:
        n = rng.randint(*n_range)
        k = rng.randint(*k_range)
        m = rng.randint(*m_range)
        delta = tuple(tuple(rng.randrange(n) for _ in range(k)) for _ in range(n))
        counts = sympy.Matrix(n, n, lambda r, s: delta[r].count(s))
        # det(x I - A) highest degree first is det(I - A t) lowest first
        want = [int(c) % m for c in counts.charpoly(x).all_coeffs()]
        assert _denominator(delta, m) == want, (delta, m)


# ---------- rational series ----------


def test_rational_series_normalizes():
    s = RationalSeries(2, (1, -3, 2), (3, 4))
    assert s.numerator == (1, 1)
    assert s.denominator == (1,)


def test_series_expand_examples():
    assert series_expand(RationalSeries(2, (1,), (1, 1)), 5) == [1, 1, 1, 1, 1]
    assert series_expand(RationalSeries(3, (1, 1), (1,)), 4) == [1, 1, 0, 0]
    # geometric series mod 5: 1/(1-t)
    assert series_expand(RationalSeries(5, (1,), (1, 4)), 4) == [1, 1, 1, 1]


def test_series_expand_times_denominator_returns_numerator(rng):
    for _ in range(30):
        m = rng.choice([2, 3, 4, 5, 9])
        num = tuple(rng.randrange(m) for _ in range(rng.randint(0, 4)))
        den = (rng.choice([u for u in range(1, m) if _coprime(u, m)]),) + tuple(
            rng.randrange(m) for _ in range(rng.randint(0, 3))
        )
        series = RationalSeries(m, num, den)
        count = 12
        c = series_expand(series, count)
        for j in range(count - len(series.denominator)):
            conv = sum(
                series.denominator[i] * c[j - i]
                for i in range(len(series.denominator))
                if 0 <= j - i
            )
            want = series.numerator[j] if j < len(series.numerator) else 0
            assert conv % m == want % m


def _coprime(a, b):
    while b:
        a, b = b, a % b
    return a == 1


def test_series_expand_rejects_non_unit_constant():
    with pytest.raises(NonUnitConstantTermError):
        series_expand(RationalSeries(4, (1,), (2, 1)), 3)
    with pytest.raises(NonUnitConstantTermError):
        series_expand(RationalSeries(2, (1,), ()), 3)
