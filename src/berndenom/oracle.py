"""Exact rational Bernoulli polynomials and power-sum polynomials.

This is the independent ground-truth path. A polynomial is held as integer
numerators over one positive shared denominator D, reduced so that
gcd(D, a_0, ..., a_m) = 1. Coefficient k is a_k / D, whose reduced
denominator is D / gcd(D, a_k), and the lcm of those over k is
D / gcd(D, a_0, ..., a_m) = D: the least common denominator of the
coefficients is the shared denominator itself. Nothing is shared with the
product-formula modules this module cross-checks.

Each call starts its own upward walk in m (_walk) and keeps nothing after it,
so threads may call any function at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, starmap
from math import gcd, lcm, perm
from numbers import Rational
from typing import Iterator

__all__ = [
    "RationalPolynomial",
    "bernoulli_numbers",
    "bernoulli_polynomial",
    "bernoulli_polynomials",
    "denominator_of",
    "derivative",
    "drop_constant_term",
    "sum_of_powers",
    "sum_of_powers_polynomial",
]


def _ratio(value) -> tuple[int, int]:
    """(numerator, positive denominator) of an exact rational; floats are refused."""
    if not isinstance(value, Rational):
        raise TypeError(f"exact rational expected, got {type(value).__name__} {value!r}")
    return int(value.numerator), int(value.denominator)


@dataclass(frozen=True, init=False)
class RationalPolynomial:
    """Polynomial with exact rational coefficients, ascending powers.

    Coefficient k is numerators[k] / denominator. Trailing zero coefficients
    are stripped on construction, the zero polynomial is a single zero
    coefficient, the denominator is positive and gcd(denominator,
    *numerators) = 1, so equal polynomials have equal fields. Coefficients
    must be exact rationals (int, Fraction); a float raises TypeError.
    """

    numerators: tuple[int, ...]
    denominator: int

    def __init__(self, coefficients):
        ratios = [_ratio(c) for c in coefficients]
        den = lcm(*(d for _, d in ratios))
        self._normalize([a * (den // d) for a, d in ratios], den)

    def _normalize(self, numerators: list[int], denominator: int) -> None:
        if denominator == 0:
            raise ZeroDivisionError("polynomial with zero denominator")
        while len(numerators) > 1 and numerators[-1] == 0:
            numerators.pop()
        if not numerators:
            numerators = [0]
        g = gcd(denominator, *numerators)
        if denominator < 0:
            g = -g
        if g != 1:
            numerators = [a // g for a in numerators]
        object.__setattr__(self, "numerators", tuple(numerators))
        object.__setattr__(self, "denominator", denominator // g)

    @classmethod
    def _over(cls, numerators: list[int], denominator: int) -> "RationalPolynomial":
        """sum(numerators[k] * x^k) / denominator, normalized; takes the list."""
        poly = cls.__new__(cls)
        poly._normalize(numerators, denominator)
        return poly

    @classmethod
    def zero(cls) -> "RationalPolynomial":
        return cls._over([0], 1)

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(a, self.denominator) for a in self.numerators)

    def __call__(self, x) -> Fraction:
        """P(p/q) = sum(a_k p^k q^(m-k)) / (D q^m), by Horner on integers."""
        p, q = _ratio(x)
        acc, power = 0, 1
        for a in reversed(self.numerators):
            acc = acc * p + a * power
            power *= q
        return Fraction(acc, self.denominator * (power // q))

    def __mul__(self, scalar) -> "RationalPolynomial":
        if not isinstance(scalar, Rational):
            return NotImplemented
        p, q = _ratio(scalar)
        return RationalPolynomial._over([a * p for a in self.numerators], self.denominator * q)

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "RationalPolynomial":
        if not isinstance(scalar, Rational):
            return NotImplemented
        p, q = _ratio(scalar)
        return RationalPolynomial._over([a * q for a in self.numerators], self.denominator * p)

    def substitute_affine(self, shift, scale) -> "RationalPolynomial":
        """Coefficients of P(shift + scale * x), by Horner over polynomials.

        With shift + scale * x = (u + v x) / w, the numerators are those of
        sum(a_k (u + v x)^k w^(m-k)) over D w^m.
        """
        s, s_den = _ratio(shift)
        t, t_den = _ratio(scale)
        u, v, w = s * t_den, s_den * t, s_den * t_den
        acc: list[int] = []
        power = 1
        for a in reversed(self.numerators):
            acc = [u * c + v * b for c, b in zip(acc + [0], [0] + acc)]
            acc[0] += a * power
            power *= w
        return RationalPolynomial._over(acc, self.denominator * (power // w))


def _walk():
    """For m = 0, 1, 2, ...: (row, numerators, denominators), the binomials C(m, 0..m) and
    B_0..B_m as reduced fractions numerators[k] / denominators[k]. The two lists are the
    walk's own and grow in place as it moves on; nothing outlives the walk.

    Each row comes from the one before by Pascal's rule, with additions only. Over
    L = lcm(D_0..D_(m-1)), B_m = -sum(C(m+1, k) S_k) / ((m+1) L) with S_k = N_k (L / D_k),
    reduced by one gcd. The S_k are kept over the running L and multiplied up only when L
    grows, which happens about once per prime up to m + 1 (von Staudt-Clausen), not at every m.
    """
    row, ahead = [1], [1, 1]  # C(m, .) and C(m + 1, .), which the recurrence for B_m reads
    numerators, denominators, scaled, common = [1], [1], [1], 1
    while True:
        yield row, numerators, denominators
        row, ahead = ahead, [1, *(a + b for a, b in zip(ahead, ahead[1:])), 1]
        acc = sum(binomial * s for binomial, s in zip(ahead, scaled) if s)
        den = len(row) * common
        g = gcd(acc, den)
        num, den = -acc // g, den // g
        grown = lcm(common, den)
        if grown != common:
            scaled = [s * (grown // common) for s in scaled]
            common = grown
        numerators.append(num)
        denominators.append(den)
        scaled.append(num * (grown // den))


def _at(n: int):
    """The walk's state at m = n."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    return next(islice(_walk(), n, None))


def bernoulli_numbers(n: int) -> list[Fraction]:
    """B_0..B_n as exact fractions, under the B_1 = -1/2 convention.

    Solved from the recurrence sum(C(m+1, k) * B_k, k=0..m) = 0 with no
    parity shortcuts, so vanishing odd values come out of the arithmetic
    rather than being asserted.
    """
    _, numerators, denominators = _at(n)
    return [Fraction(a, d) for a, d in zip(numerators, denominators)]


def _polynomial(row: list[int], numerators: list[int], denominators: list[int]) -> RationalPolynomial:
    """B_n(x) from the walk's state at m = n.

    Coefficient k is C(n, k) N_{n-k} / D_{n-k} with gcd(C(n, k), D_{n-k})
    cancelled first, and the shared denominator is the lcm of what is left:
    a multiple of the reduced one found from small numbers, where
    lcm(D_0..D_n) would leave a gcd of over a thousand bits to divide out.
    """
    terms = []
    for binomial, num, den in zip(row, reversed(numerators), reversed(denominators)):
        g = gcd(binomial, den)
        terms.append((binomial // g * num, den // g))
    common = lcm(*(den for _, den in terms))
    return RationalPolynomial._over([num * (common // den) for num, den in terms], common)


def bernoulli_polynomial(n: int) -> RationalPolynomial:
    """B_n(x) = sum of C(n, k) * B_{n-k} * x^k; monic of degree n."""
    return _polynomial(*_at(n))


def bernoulli_polynomials() -> Iterator[RationalPolynomial]:
    """B_0(x), B_1(x), B_2(x), ..., each built once, off one walk."""
    return starmap(_polynomial, _walk())


def derivative(poly: RationalPolynomial, k: int = 1) -> RationalPolynomial:
    """k-fold formal derivative."""
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    if k == 0:
        return poly
    nums = poly.numerators
    if k >= len(nums):
        return RationalPolynomial.zero()
    return RationalPolynomial._over(
        [nums[i + k] * perm(i + k, k) for i in range(len(nums) - k)], poly.denominator
    )


def drop_constant_term(poly: RationalPolynomial) -> RationalPolynomial:
    """The polynomial with its constant coefficient zeroed."""
    return RationalPolynomial._over([0, *poly.numerators[1:]], poly.denominator)


def sum_of_powers(bernoulli_next: RationalPolynomial) -> RationalPolynomial:
    """S_n from B_(n+1)(x): (B_(n+1)(x) - B_(n+1)) / (n + 1). The constant term of
    B_(n+1)(x) is exactly B_(n+1), so the subtraction just clears it."""
    return drop_constant_term(bernoulli_next) / (len(bernoulli_next.numerators) - 1)


def sum_of_powers_polynomial(n: int) -> RationalPolynomial:
    """Polynomial S_n with S_n(m) = 0^n + 1^n + ... + (m-1)^n for integer m >= 0."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    return sum_of_powers(bernoulli_polynomial(n + 1))


def denominator_of(poly: RationalPolynomial) -> int:
    """Least common multiple of the reduced coefficient denominators.

    The normal form makes it the shared denominator (see the module docstring).
    """
    return poly.denominator
