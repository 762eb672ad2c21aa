import pytest

import corpus
from wreathtree import (
    AutomatonError,
    BadComponentError,
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
    validate_cyclic,
)
from wreathtree.modmath import char_poly_mod


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
    with pytest.raises(IterationCapError):
        coefficient_stream(matrix, vector, lamp_b.initial, cap=2)


# ---------- characteristic polynomials ----------


def test_char_poly_examples(odometer, lamp_b):
    # det(I - At) = (1 - t)(1 - 2t) for the odometer, 1 - 2t for lamp_b
    assert char_poly_mod(odometer.automaton.delta, 7) == [1, 4, 2]
    assert char_poly_mod(odometer.automaton.delta, 2) == [1, 1, 0]
    assert char_poly_mod(lamp_b.automaton.delta, 5) == [1, 3, 0]
    assert char_poly_mod(((0, 0, 0),), 4) == [1, 1]


def test_char_poly_matches_sympy(rng):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for _ in range(150):
        n = rng.randint(1, 7)
        k = rng.randint(2, 6)
        m = rng.randint(2, 30)
        delta = tuple(tuple(rng.randrange(n) for _ in range(k)) for _ in range(n))
        counts = sympy.Matrix(n, n, lambda r, s: delta[r].count(s))
        # det(x I - A) highest degree first is det(I - A t) lowest first
        want = [int(c) % m for c in counts.charpoly(x).all_coeffs()]
        assert char_poly_mod(delta, m) == want, (delta, m)


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
