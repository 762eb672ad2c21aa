"""The test-side Z[t] reference: integer polynomials and Bareiss determinants."""

import pytest

from polyref import IntPolynomial, det_poly
from wreathtree.automaton import DimensionMismatchError


# ---------- integer polynomials ----------


def test_polynomial_canonical_form():
    assert IntPolynomial((1, 2, 0, 0)).coeffs == (1, 2)
    assert IntPolynomial((0, 0)).coeffs == ()
    assert not IntPolynomial(())
    assert IntPolynomial((0, 1)).degree == 1
    assert IntPolynomial(()).degree == -1


def test_polynomial_arithmetic():
    p = IntPolynomial((1, 2))  # 1 + 2t
    q = IntPolynomial((3, 0, 1))  # 3 + t^2
    assert (p + q).coeffs == (4, 2, 1)
    assert (q - p).coeffs == (2, -2, 1)
    assert (p * q).coeffs == (3, 6, 1, 2)
    assert (p * IntPolynomial()).coeffs == ()


def test_polynomial_exact_division():
    p = IntPolynomial((1, 2))
    q = IntPolynomial((3, 0, 1))
    assert (p * q).exact_div(p) == q
    assert (p * q).exact_div(q) == p
    assert IntPolynomial().exact_div(p) == IntPolynomial()
    with pytest.raises(ArithmeticError):
        IntPolynomial((1, 1, 1)).exact_div(IntPolynomial((1, 1)))
    with pytest.raises(ArithmeticError):
        IntPolynomial((1,)).exact_div(IntPolynomial((2,)))
    with pytest.raises(ZeroDivisionError):
        p.exact_div(IntPolynomial())


# ---------- determinants ----------


def _cofactor_det(matrix):
    n = len(matrix)
    if n == 0:
        return IntPolynomial.constant(1)
    if n == 1:
        return matrix[0][0]
    total = IntPolynomial()
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in matrix[1:]]
        term = matrix[0][j] * _cofactor_det(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def test_det_examples(odometer):
    one = IntPolynomial((1,))
    t = IntPolynomial((0, 1))
    m = [
        [one - t, -t],
        [IntPolynomial(), one - IntPolynomial((2,)) * t],
    ]
    assert det_poly(m).coeffs == (1, -3, 2)
    assert det_poly([[IntPolynomial((1, -3))]]).coeffs == (1, -3)
    assert det_poly([]) == IntPolynomial((1,))
    assert det_poly([[one, t], [one, t]]) == IntPolynomial()
    # a zero pivot forces a row swap and a sign flip
    assert det_poly([[0, 1], [1, 0]]).coeffs == (-1,)


def test_det_accepts_plain_integers():
    assert det_poly([[2, 1], [1, 2]]).coeffs == (3,)


def test_det_matches_cofactor_expansion(rng):
    for _ in range(60):
        n = rng.randint(1, 4)
        matrix = [
            [
                IntPolynomial(tuple(rng.randint(-3, 3) for _ in range(rng.randint(0, 3))))
                for _ in range(n)
            ]
            for _ in range(n)
        ]
        assert det_poly(matrix) == _cofactor_det(matrix)


def test_det_rejects_ragged_matrix():
    with pytest.raises(DimensionMismatchError):
        det_poly([[IntPolynomial((1,))], [IntPolynomial(), IntPolynomial()]])
