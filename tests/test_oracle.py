import ast
import inspect
from fractions import Fraction
from math import comb, lcm, perm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from berndenom import oracle
from berndenom.oracle import (
    RationalPolynomial,
    bernoulli_numbers,
    bernoulli_polynomial,
    denominator_of,
    derivative,
    drop_constant_term,
    sum_of_powers_polynomial,
)

F = Fraction


def akiyama_tanigawa(n):
    # independent algorithm for B_0..B_n; yields B_1 = +1/2, flip the sign
    row = [F(0)] * (n + 1)
    out = []
    for m in range(n + 1):
        row[m] = F(1, m + 1)
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        out.append(row[0])
    if n >= 1:
        out[1] = -out[1]
    return out


def reference_polynomials(n):
    # Fraction per coefficient, from akiyama_tanigawa's numbers: ascending
    # coefficient tuples of B_n(x), its derivatives k = 1..3 and S_n(x)
    numbers = akiyama_tanigawa(n + 1)
    bern = lambda m: [comb(m, k) * numbers[m - k] for k in range(m + 1)]
    coeffs = bern(n)
    derivatives = {
        k: [coeffs[i + k] * perm(i + k, k) for i in range(n + 1 - k)] or [F(0)]
        for k in (1, 2, 3)
    }
    powers = [F(0)] + [c / (n + 1) for c in bern(n + 1)[1:]]
    return coeffs, derivatives, powers


def reference_denominator(coeffs):
    return lcm(*(F(c).denominator for c in coeffs))


class TestBernoulliNumbers:
    def test_first_values(self):
        b = bernoulli_numbers(6)
        assert b == [F(1), F(-1, 2), F(1, 6), F(0), F(-1, 30), F(0), F(1, 42)]

    def test_odd_values_vanish(self):
        b = bernoulli_numbers(99)
        assert all(b[n] == 0 for n in range(3, 100, 2))

    def test_denominator_of_b4(self):
        assert bernoulli_numbers(4)[4].denominator == 30

    def test_against_akiyama_tanigawa(self):
        assert bernoulli_numbers(60) == akiyama_tanigawa(60)

    def test_against_fraction_recurrence_to_400(self):
        # sum(C(m+1, k) B_k, k = 0..m) = 0, one Fraction at a time
        expected = [F(1)]
        for m in range(1, 401):
            expected.append(-sum(comb(m + 1, k) * b for k, b in enumerate(expected)) / (m + 1))
        assert bernoulli_numbers(400) == expected

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            bernoulli_numbers(-1)


class TestRationalPolynomial:
    def test_normalization(self):
        p = RationalPolynomial((F(1), F(2), F(0), F(0)))
        assert p.coefficients == (F(1), F(2))
        assert len(p.numerators) - 1 == 1
        zero = RationalPolynomial((F(0), F(0)))
        assert zero == RationalPolynomial.zero() and len(zero.numerators) - 1 == 0

    def test_arithmetic(self):
        p = RationalPolynomial((F(1), F(2)))
        assert (2 * p).coefficients == (F(2), F(4))
        assert (p / 2).coefficients == (F(1, 2), F(1))

    def test_evaluation_by_horner(self):
        p = RationalPolynomial((F(1), F(0), F(1)))  # 1 + x^2
        assert p(3) == 10
        assert p(F(1, 2)) == F(5, 4)

    def test_affine_substitution(self):
        p = RationalPolynomial((F(0), F(0), F(1)))  # x^2
        assert p.substitute_affine(1, -1).coefficients == (F(1), F(-2), F(1))


class TestBernoulliPolynomial:
    def test_small_cases(self):
        assert bernoulli_polynomial(1).coefficients == (F(-1, 2), F(1))
        assert bernoulli_polynomial(2).coefficients == (F(1, 6), F(-1), F(1))

    def test_monic_of_degree_n(self):
        for n in range(0, 51):
            p = bernoulli_polynomial(n)
            assert len(p.numerators) - 1 == n
            assert p.coefficients[-1] == 1

    def test_constant_term_is_bernoulli_number(self):
        numbers = bernoulli_numbers(30)
        for n in range(0, 31):
            assert bernoulli_polynomial(n).coefficients[0] == numbers[n]

    def test_reflection(self):
        for n in range(0, 51):
            p = bernoulli_polynomial(n)
            sign = 1 if n % 2 == 0 else -1
            assert p.substitute_affine(1, -1) == sign * p


class TestDerivative:
    def test_derivative_lowers_to_scaled_predecessor(self):
        assert derivative(bernoulli_polynomial(4)) == 4 * bernoulli_polynomial(3)
        for n in range(1, 30):
            assert derivative(bernoulli_polynomial(n)) == n * bernoulli_polynomial(n - 1)

    def test_zeroth_is_identity(self):
        p = bernoulli_polynomial(7)
        assert derivative(p, 0) is p

    def test_overdifferentiation_vanishes(self):
        assert derivative(bernoulli_polynomial(2), 3) == RationalPolynomial.zero()

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            derivative(bernoulli_polynomial(2), -1)


class TestSumOfPowers:
    def test_small_cases(self):
        assert sum_of_powers_polynomial(0).coefficients == (F(0), F(1))
        s1 = sum_of_powers_polynomial(1)
        assert s1.coefficients == (F(0), F(-1, 2), F(1, 2))
        assert denominator_of(s1) == 2

    def test_direct_power_sums(self):
        for n in range(0, 11):
            poly = sum_of_powers_polynomial(n)
            for m in range(0, 21):
                assert poly(m) == sum(nu**n for nu in range(m))

    def test_s2_at_4(self):
        assert sum_of_powers_polynomial(2)(4) == 14

    def test_zero_constant_term(self):
        for n in range(0, 40):
            assert sum_of_powers_polynomial(n).coefficients[0] == 0

    @pytest.mark.parametrize("n", [0, 1, 7, 64])
    def test_independent_of_call_order(self, n):
        # bernoulli_polynomial keeps the last polynomials it built
        oracle._bernoulli_polynomial.cache_clear()
        alone = sum_of_powers_polynomial(n)
        oracle._bernoulli_polynomial.cache_clear()
        first = bernoulli_polynomial(n + 1)
        assert sum_of_powers_polynomial(n) == alone
        assert bernoulli_polynomial(n + 1) == first
        oracle._bernoulli_polynomial.cache_clear()
        assert bernoulli_polynomial(n + 1) == first


class TestDenominatorOf:
    def test_examples(self):
        assert denominator_of(RationalPolynomial((F(-1, 2), F(1)))) == 2
        assert denominator_of(RationalPolynomial((F(3), F(7), F(1)))) == 1
        assert denominator_of(RationalPolynomial((F(0),))) == 1

    def test_centered_bernoulli_denominators(self):
        expected = [1, 1, 2, 1, 6, 2, 6, 3, 10, 2]
        got = [
            denominator_of(drop_constant_term(bernoulli_polynomial(n)))
            for n in range(1, 11)
        ]
        assert got == expected


class TestAgainstFractionReference:
    @pytest.mark.parametrize("n", range(0, 81))
    def test_polynomials_and_denominators(self, n):
        coeffs, derivatives, powers = reference_polynomials(n)
        poly = bernoulli_polynomial(n)
        assert poly.coefficients == tuple(coeffs)
        assert denominator_of(poly) == reference_denominator(coeffs)
        centered = [F(0)] + coeffs[1:]
        assert denominator_of(drop_constant_term(poly)) == reference_denominator(centered)
        for k, expected in derivatives.items():
            derived = derivative(poly, k)
            while len(expected) > 1 and expected[-1] == 0:
                expected = expected[:-1]
            assert derived.coefficients == tuple(expected)
            assert denominator_of(derived) == reference_denominator(expected)
        s_n = sum_of_powers_polynomial(n)
        assert s_n.coefficients == tuple(powers)
        assert denominator_of(s_n) == reference_denominator(powers)


rationals = st.fractions(max_denominator=10**6) | st.integers(-(10**30), 10**30) | st.just(0)


class TestSharedDenominator:
    @settings(max_examples=300, deadline=None)
    @given(coeffs=st.lists(rationals, min_size=1, max_size=12))
    def test_denominator_is_lcm_of_reduced_denominators(self, coeffs):
        poly = RationalPolynomial(tuple(coeffs))
        assert denominator_of(poly) == reference_denominator(coeffs)
        assert denominator_of(poly) == poly.denominator > 0
        stripped = list(coeffs)
        while len(stripped) > 1 and stripped[-1] == 0:
            stripped.pop()
        assert poly.coefficients == tuple(F(c) for c in stripped)

    @settings(max_examples=100, deadline=None)
    @given(
        coeffs=st.lists(rationals, min_size=1, max_size=8),
        scale=st.fractions(max_denominator=1000).filter(bool),
    )
    def test_operations_agree_with_fractions(self, coeffs, scale):
        poly = RationalPolynomial(tuple(coeffs))
        ref = [F(c) for c in coeffs]
        assert (poly * scale).coefficients == RationalPolynomial(tuple(c * scale for c in ref)).coefficients
        assert (poly / scale) * scale == poly
        assert poly(scale) == sum(c * scale**k for k, c in enumerate(ref))
        shifted = poly.substitute_affine(scale, -scale)
        for x in (F(0), F(1), F(-2, 3)):
            assert shifted(x) == poly(scale - scale * x)

    def test_equal_whatever_the_input_scaling(self):
        half = RationalPolynomial((F(1, 2),))
        assert RationalPolynomial((F(2, 4),)) == half
        assert RationalPolynomial((2,)) / 4 == half
        assert (RationalPolynomial((F(1, 2), F(1, 3))) * 6) / 6 == RationalPolynomial((F(1, 2), F(1, 3)))
        p = RationalPolynomial((F(3, 10), F(-7, 4), 5))
        scaled = (p * F(12, 7)) * F(7, 12)
        assert scaled == p and hash(scaled) == hash(p)
        assert (scaled.numerators, scaled.denominator) == (p.numerators, p.denominator)
        assert RationalPolynomial((F(-1, 2), 0)) == half * -1
        assert p * 0 == RationalPolynomial.zero() == RationalPolynomial(())

    def test_negative_scalar_keeps_denominator_positive(self):
        p = RationalPolynomial((F(1, 3), 1)) / -2
        assert p.denominator == 6 and p.coefficients == (F(-1, 6), F(-1, 2))

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            RationalPolynomial((0.1,))
        with pytest.raises(TypeError):
            RationalPolynomial((F(1, 2), 0.5))
        with pytest.raises(TypeError):
            RationalPolynomial((0.25,))
        p = RationalPolynomial((F(1, 2), 1))
        with pytest.raises(TypeError):
            p * 0.5
        with pytest.raises(TypeError):
            p / 0.5
        with pytest.raises(TypeError):
            p(0.5)
        with pytest.raises(TypeError):
            p.substitute_affine(1, -1.0)

    def test_rejects_zero_divisor(self):
        with pytest.raises(ZeroDivisionError):
            RationalPolynomial((F(1, 2),)) / 0


def test_oracle_imports_nothing_from_berndenom():
    tree = ast.parse(inspect.getsource(oracle))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"relative import of {node.module!r}"
            imported.add(node.module)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert imported, "no imports found; the walk is broken"
    assert not any(name.split(".")[0] == "berndenom" for name in imported), imported
