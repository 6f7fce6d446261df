"""Tests for exact integer polynomial arithmetic and coefficient analyses."""

import random

import pytest

from interlacepoly.polynomials import (
    IntPolynomial,
    NegativeCoefficientError,
    NonzeroRemainderError,
    circuit_coeffs_from_interlace,
    interlace_coeffs_from_circuit,
    is_log_concave,
    is_unimodal,
)

X = IntPolynomial.x()


def poly(*coeffs):
    return IntPolynomial(coeffs)


def test_normalization_and_degree():
    assert poly(0, 1, 0, 0).coeffs == (0, 1)
    assert poly().is_zero()
    assert poly().degree == float("-inf")
    assert poly(3).degree == 0
    assert poly(0, 0, 5).degree == 2
    assert poly(0, 0, 5).lowest_degree() == 2


def test_add_mul_scale_shift():
    assert X + X == poly(0, 2)
    assert X * X == poly(0, 0, 1)
    assert poly(0, 2, 1) * X == poly(0, 0, 2, 1)
    assert poly(1, 1).scale(-3) == poly(-3, -3)
    assert poly(2, 1).mul_x().mul_x() == poly(0, 0, 2, 1)


def test_ring_laws_random():
    rng = random.Random(7)

    def rand_poly():
        return IntPolynomial(rng.randrange(-9, 10) for _ in range(rng.randrange(6)))

    for _ in range(200):
        p, q, r = rand_poly(), rand_poly(), rand_poly()
        assert p + q == q + p
        assert p * q == q * p
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r


def test_evaluate():
    assert IntPolynomial.monomial(10).evaluate(2) == 1024
    assert poly(0, 6, 5).evaluate(1) == 11
    assert poly(0, 2, 1, 1).evaluate(2) == 16
    assert poly(5).evaluate(123456789) == 5
    assert poly().evaluate(3) == 0


def test_shift_argument():
    assert X.shift_argument(1) == poly(1, 1)
    assert (X * X).shift_argument(1) == poly(1, 2, 1)
    # round trip p(x+1)(x-1) = p
    rng = random.Random(11)
    for _ in range(100):
        p = IntPolynomial(rng.randrange(-50, 51) for _ in range(rng.randrange(8)))
        assert p.shift_argument(1).shift_argument(-1) == p
        assert p.shift_argument(-1).shift_argument(1) == p
    # agreement with direct evaluation
    p = poly(3, -2, 0, 7)
    for x0 in range(-4, 5):
        assert p.shift_argument(5).evaluate(x0) == p.evaluate(x0 + 5)


def test_divide_exact_by_x_minus_1():
    assert poly(-1, 0, 1).divide_exact_by_x_minus_1() == poly(1, 1)
    # (x-1) x (x+1) = x^3 - x divided by (x-1) gives x^2 + x
    cubic = poly(-1, 0, 1) * X
    assert cubic.divide_exact_by_x_minus_1() == poly(0, 1, 1)
    with pytest.raises(NonzeroRemainderError):
        X.divide_exact_by_x_minus_1()
    rng = random.Random(13)
    xm1 = poly(-1, 1)
    for _ in range(100):
        p = IntPolynomial(rng.randrange(-9, 10) for _ in range(rng.randrange(7)))
        assert (p * xm1).divide_exact_by_x_minus_1() == p


def test_coefficient_transforms():
    # q = 2x for a single edge; r = 2x + 2x^2
    assert circuit_coeffs_from_interlace([0, 2]) == [0, 2, 2]
    # q = x^2 for two isolated vertices; r = x(1+x)^2
    assert circuit_coeffs_from_interlace([0, 0, 1]) == [0, 1, 2, 1]
    assert interlace_coeffs_from_circuit([0, 2, 2]) == [0, 2]
    # transforms agree with r = x * q(1+x)
    rng = random.Random(17)
    for _ in range(200):
        a = [rng.randrange(9) for _ in range(rng.randrange(7))]
        q = IntPolynomial(a)
        r = q.shift_argument(1).mul_x()
        assert circuit_coeffs_from_interlace(a) == list(r.coeffs)
        assert interlace_coeffs_from_circuit(list(r.coeffs)) == list(q.coeffs)


def test_unimodality_report():
    assert is_unimodal(poly(0, 2, 1, 1))
    assert is_unimodal(IntPolynomial([0, 0, 0, 1000] + [1] * 9))  # a spike
    assert not is_unimodal(poly(0, 1, 0, 1))  # an internal zero
    assert not is_unimodal(poly(0, 1, 2, 1, 2))  # rises after falling
    assert is_unimodal(IntPolynomial())
    with pytest.raises(NegativeCoefficientError):
        is_unimodal(poly(0, -1))


def test_log_concavity():
    assert is_log_concave(poly(0, 6, 5))
    assert not is_log_concave(poly(0, 2, 1, 1))  # 1*1 < 2*1 at the middle


def test_rendering():
    assert str(poly(0, 2, 1, 1)) == "2x + x^2 + x^3"
    assert str(poly()) == "0"
    assert str(poly(1, -2)) == "1 - 2x"
    assert str(poly(0, 0, -1)) == "-x^2"
    d = poly(0, 6, 5).to_json_dict()
    assert d == {"coeffs": ["0", "6", "5"]}
