"""Exact rational Bernoulli polynomials and power-sum polynomials.

This is the independent ground-truth path. A polynomial is held as integer
numerators over one positive shared denominator D, reduced so that
gcd(D, a_0, ..., a_m) = 1. Coefficient k is a_k / D, whose reduced
denominator is D / gcd(D, a_k), and the lcm of those over k is
D / gcd(D, a_0, ..., a_m) = D: the least common denominator of the
coefficients is the shared denominator itself. Nothing is shared with the
product-formula modules this module cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, perm
from numbers import Rational

__all__ = [
    "RationalPolynomial",
    "bernoulli_numbers",
    "bernoulli_polynomial",
    "denominator_of",
    "derivative",
    "drop_constant_term",
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


_LAST_ROW = (0, [1])


def _binomial_row(n: int) -> list[int]:
    """C(n, 0), ..., C(n, n) by Pascal's rule, from the row built last when
    that lies at or below n: a walk upward in n builds each row once."""
    global _LAST_ROW
    m, row = _LAST_ROW if _LAST_ROW[0] <= n else (0, [1])
    for _ in range(m, n):
        row = [1, *(a + b for a, b in zip(row, row[1:])), 1]
    _LAST_ROW = (n, row)
    return row


# B_m = _NUMERATORS[m] / _DENOMINATORS[m], reduced, and also _SCALED[m] / _COMMON,
# where _COMMON is the lcm of every denominator computed so far
_NUMERATORS: list[int] = [1]
_DENOMINATORS: list[int] = [1]
_SCALED: list[int] = [1]
_COMMON = 1


def _extend_bernoulli(n: int) -> None:
    """Solve bernoulli_numbers' recurrence on integer pairs up to m = n.

    Over L = lcm(D_0..D_(m-1)), B_m = -sum(C(m+1, k) S_k) / ((m+1) L) with
    S_k = N_k (L / D_k), reduced by one gcd. The S_k are kept over the
    running L and multiplied up only when L grows, which happens about
    once per prime up to n + 1 (von Staudt-Clausen), not at every m.
    """
    global _COMMON
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    while len(_NUMERATORS) <= n:
        m = len(_NUMERATORS)
        acc = 0
        for binomial, scaled in zip(_binomial_row(m + 1), _SCALED):
            if scaled:
                acc += binomial * scaled
        den = (m + 1) * _COMMON
        g = gcd(acc, den)
        num, den = -acc // g, den // g
        grown = lcm(_COMMON, den)
        if grown != _COMMON:
            factor = grown // _COMMON
            _SCALED[:] = [scaled * factor for scaled in _SCALED]
            _COMMON = grown
        _NUMERATORS.append(num)
        _DENOMINATORS.append(den)
        _SCALED.append(num * (grown // den))


def bernoulli_numbers(n: int) -> list[Fraction]:
    """B_0..B_n as exact fractions, under the B_1 = -1/2 convention.

    Solved from the recurrence sum(C(m+1, k) * B_k, k=0..m) = 0 with no
    parity shortcuts, so vanishing odd values come out of the arithmetic
    rather than being asserted.
    """
    _extend_bernoulli(n)
    return [Fraction(a, d) for a, d in zip(_NUMERATORS[: n + 1], _DENOMINATORS)]


def bernoulli_polynomial(n: int) -> RationalPolynomial:
    """B_n(x) = sum of C(n, k) * B_{n-k} * x^k; monic of degree n.

    Coefficient k is C(n, k) N_{n-k} / D_{n-k} with gcd(C(n, k), D_{n-k})
    cancelled first, and the shared denominator is the lcm of what is left:
    a multiple of the reduced one found from small numbers, where
    lcm(D_0..D_n) would leave a gcd of over a thousand bits to divide out.
    The last two polynomials built are kept: sum_of_powers_polynomial(n)
    builds B_(n+1)(x), which a caller walking n upward asks for next.
    """
    return _bernoulli_polynomial(n)


# cached apart from bernoulli_polynomial, which stays a plain function
@lru_cache(maxsize=2)
def _bernoulli_polynomial(n: int) -> RationalPolynomial:
    row = _binomial_row(n)  # before the recurrence moves on to row n + 1
    _extend_bernoulli(n)
    terms = []
    for k, binomial in enumerate(row):
        den = _DENOMINATORS[n - k]
        g = gcd(binomial, den)
        terms.append((binomial // g * _NUMERATORS[n - k], den // g))
    common = lcm(*(den for _, den in terms))
    return RationalPolynomial._over([num * (common // den) for num, den in terms], common)


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


def sum_of_powers_polynomial(n: int) -> RationalPolynomial:
    """Polynomial S_n with S_n(m) = 0^n + 1^n + ... + (m-1)^n for integer m >= 0.

    Computed as (B_{n+1}(x) - B_{n+1}) / (n + 1); the constant term of
    B_{n+1}(x) is exactly B_{n+1}, so the subtraction just clears it.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    shifted = drop_constant_term(bernoulli_polynomial(n + 1))
    return shifted / (n + 1)


def denominator_of(poly: RationalPolynomial) -> int:
    """Least common multiple of the reduced coefficient denominators.

    The normal form makes it the shared denominator (see the module docstring).
    """
    return poly.denominator
