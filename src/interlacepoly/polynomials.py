"""Exact dense univariate polynomials over arbitrary-precision integers.

Everything in this module is integer-exact: no floating point is used
anywhere.  Polynomials are stored as dense coefficient tuples indexed by
degree, normalized so that the top coefficient is nonzero (the zero
polynomial is the empty tuple).

Besides ring arithmetic, the module provides the coefficient analyses
needed by the interlace / circuit-partition machinery:

* argument shifts p(x) -> p(x+c), computed by exact binomial re-expansion;
* exact division by (x - 1), used to pass between the circuit partition
  polynomial r and the Martin polynomial m = r(x-1)/(x-1); with the
  shifts, this is the one route between the interlace polynomial q and
  r = x q(1+x);
* a unimodality test (an internal zero is a failure) for the
  coefficient-shape conjectures.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest
from typing import Iterable

NEG_INF = float("-inf")


class NonzeroRemainderError(ValueError):
    """Exact division was requested but the divisor does not divide."""


class NegativeCoefficientError(ValueError):
    """An analysis assuming nonnegative coefficients met a negative one."""


def _normalize(coeffs: Iterable[int]) -> tuple[int, ...]:
    out = list(coeffs)
    for c in out:
        if isinstance(c, bool) or not isinstance(c, int):
            raise TypeError(f"integer coefficient expected, got {type(c).__name__}")
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


@dataclass(frozen=True, slots=True, init=False, repr=False)
class IntPolynomial:
    """A univariate polynomial with (arbitrary-precision) integer coefficients.

    ``coeffs[i]`` is the coefficient of x^i; there are no trailing zeros.
    Instances are frozen dataclasses: hashable dictionary keys that
    threads share freely and that pickle and copy across processes.
    """

    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable[int] = ()):
        object.__setattr__(self, "coeffs", _normalize(coeffs))

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "IntPolynomial":
        return cls(())

    @classmethod
    def one(cls) -> "IntPolynomial":
        return cls((1,))

    @classmethod
    def x(cls) -> "IntPolynomial":
        return cls((0, 1))

    @classmethod
    def monomial(cls, degree: int) -> "IntPolynomial":
        if degree < 0:
            raise ValueError("degree must be >= 0")
        return cls((0,) * degree + (1,))

    # -- basic queries ------------------------------------------------

    @property
    def degree(self) -> int | float:
        """Degree of the polynomial; float('-inf') for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def lowest_degree(self) -> int | float:
        """Degree of the lowest nonzero term; float('-inf') if zero."""
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return NEG_INF

    # -- ring arithmetic ----------------------------------------------

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        return IntPolynomial(
            a + b for a, b in zip_longest(self.coeffs, other.coeffs, fillvalue=0)
        )

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return IntPolynomial(
            a - b for a, b in zip_longest(self.coeffs, other.coeffs, fillvalue=0)
        )

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(-a for a in self.coeffs)

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        if not self.coeffs or not other.coeffs:
            return IntPolynomial()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPolynomial(out)

    def scale(self, c: int) -> "IntPolynomial":
        return IntPolynomial(c * a for a in self.coeffs)

    def mul_x(self) -> "IntPolynomial":
        """Multiply by x (shift all coefficients up one degree)."""
        if not self.coeffs:
            return self
        return IntPolynomial((0,) + self.coeffs)

    def evaluate(self, x0: int) -> int:
        """Exact evaluation at an integer point, by Horner's rule."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x0 + c
        return acc

    # -- argument shifts and exact division ---------------------------

    def shift_argument(self, c: int) -> "IntPolynomial":
        """Return p(x + c), re-expanded exactly via the binomial theorem."""
        n = len(self.coeffs)
        if n == 0 or c == 0:
            return self
        out = [0] * n
        for k, a in enumerate(self.coeffs):
            if a:
                ck = 1  # C(k, j) * c^(k - j), built incrementally
                for j in range(k, -1, -1):
                    out[j] += a * ck
                    if j:
                        ck = ck * c * j // (k - j + 1)
        return IntPolynomial(out)

    def divide_exact_by_x_minus_1(self) -> "IntPolynomial":
        """Exact quotient p / (x - 1); raises if (x - 1) does not divide p.

        Synthetic division at 1: the remainder is p(1).
        """
        if not self.coeffs:
            return self
        quot = [0] * (len(self.coeffs) - 1)
        carry = 0
        for k in range(len(self.coeffs) - 1, 0, -1):
            carry += self.coeffs[k]
            quot[k - 1] = carry
        if carry + self.coeffs[0] != 0:
            raise NonzeroRemainderError(
                f"remainder p(1) = {carry + self.coeffs[0]} != 0"
            )
        return IntPolynomial(quot)

    # -- rendering ----------------------------------------------------

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                xpart = "x" if k == 1 else f"x^{k}"
                body = xpart if mag == 1 else f"{mag}{xpart}"
            if not terms:
                terms.append(body if c > 0 else f"-{body}")
            else:
                terms.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(terms)

    def __repr__(self) -> str:
        return f"IntPolynomial({list(self.coeffs)!r})"

    def to_json_dict(self) -> dict:
        """JSON form: coefficients as decimal strings, ascending degree."""
        return {"coeffs": [str(c) for c in self.coeffs]}


def is_unimodal(p: IntPolynomial) -> bool:
    """True when the coefficients of a nonnegative polynomial never
    strictly increase after having strictly decreased.  Leading zeros only
    rise, and an internal zero (a zero strictly between two nonzero
    coefficients) is a fall and then a rise, so it is a failure."""
    if any(c < 0 for c in p.coeffs):
        raise NegativeCoefficientError("unimodality analysis needs coeffs >= 0")
    descending = False
    for prev, cur in zip(p.coeffs, p.coeffs[1:]):
        if cur < prev:
            descending = True
        elif cur > prev and descending:
            return False
    return True


def is_log_concave(p: IntPolynomial) -> bool:
    """True if a_k^2 >= a_{k-1} a_{k+1} holds across the whole sequence."""
    c = p.coeffs
    return all(c[k] * c[k] >= c[k - 1] * c[k + 1] for k in range(1, len(c) - 1))
