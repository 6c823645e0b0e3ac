"""The fault hook of run_verification, family by family, and a family
failing on a real fault in the code it checks.

A fault flips the verdict of one index, so a passing family must then fail
with that index as its witness, and checked must be its position in the
family's index order.
"""

import functools
from math import isqrt

import numpy as np
import pytest

from berndenom import arith, denom, oracle, verify

LIMIT, ORACLE_LIMIT = 300, 30


@functools.cache
def family_indices() -> dict[str, list[int]]:
    return {name: list(indices) for name, indices, _ in verify._suite(LIMIT, ORACLE_LIMIT)}


def result_of(family: str, **kwargs) -> verify.FamilyResult:
    """The result of family in one run of the whole suite."""
    [result] = [r for r in verify.run_verification(**kwargs) if r.family == family]
    return result


def test_results_come_in_families_order():
    assert [r.family for r in verify.run_verification(50, 5)] == list(verify.FAMILIES)


@pytest.mark.parametrize("oracle_limit, top", [(5, 11), (60, 61)])
def test_the_oracle_families_build_each_polynomial_once(monkeypatch, oracle_limit, top):
    # B_0(x)..B_top(x), top = max(oracle_limit, 10) + 1, in order off one walk: S_n(x)
    # comes from B_(n + 1)(x), and oracle-power-sums reads S_0..S_10 at any oracle_limit
    built, polynomial = [], oracle._polynomial

    def build(row, *numbers):
        built.append(len(row) - 1)
        return polynomial(row, *numbers)

    monkeypatch.setattr(oracle, "_polynomial", build)
    assert all(r.passed for r in verify.run_verification(limit=100, oracle_limit=oracle_limit))
    assert built == list(range(top + 1))


@pytest.mark.parametrize("family", verify.FAMILIES)
def test_fault_fails_the_family_at_its_index(family):
    indices = family_indices()[family]
    for position in sorted({1, (len(indices) + 1) // 2, len(indices)}):
        x = indices[position - 1]
        results = verify.run_verification(limit=LIMIT, oracle_limit=ORACLE_LIMIT, fault=(family, x))
        [result] = [r for r in results if r.family == family]
        assert (result.passed, result.witness, result.checked) == (False, x, position)
        # the hook flips one family only
        assert all(r.passed for r in results if r.family != family)


def test_derivative_small_primes_catches_a_mask_that_drops_primes(monkeypatch):
    # every prime this mask keeps still exceeds k, so only a route to the
    # primes of db_k apart from the mask can tell it is wrong
    monkeypatch.setattr(denom.PrimePairs, "kept", lambda self, k: (self.n + k - 1) % self.p >= k + 1)
    result = result_of("derivative-small-primes")
    assert (result.passed, result.witness, result.checked) == (False, 3, 3)


def test_lambda_prime_bound_catches_runs_that_start_early(monkeypatch):
    # a run of p > sqrt(n) one index early holds p at n = 2p - 2, which is
    # even with lambda(n) = (2p - 1) // 3 < p: first at p = 2, whose run [3, 3]
    # then holds n = 2 with lambda(2) = 1
    runs = denom.heavy_runs

    def early(*args, **kwargs):
        for index, begin, stop in runs(*args, **kwargs):
            yield index, np.maximum(begin - 1, 0), stop

    monkeypatch.setattr(denom, "heavy_runs", early)
    result = result_of("lambda-prime-bound", limit=1000)
    assert (result.passed, result.witness, result.checked) == (False, 2, 1)


@pytest.mark.parametrize("family, witness", [("decomposition", 37), ("triple-product", 36)])
def test_complements_catch_a_factoriser_that_drops_the_large_prime(monkeypatch, family, witness):
    # the block [1, 1025] divides by the primes to 32; 37 is the first index
    # whose prime above that is lost, and triple-product reads it at n + 1
    factors = denom._factors

    def small_only(lo, hi):
        found = factors(lo, hi)
        keep = found.p <= isqrt(hi)
        return denom.PrimePairs(lo, hi, found.n[keep], found.p[keep])

    monkeypatch.setattr(denom, "_factors", small_only)
    result = result_of(family, limit=3000, oracle_limit=1)
    assert (result.passed, result.witness, result.checked) == (False, witness, witness)


class TestLambdaPrimeBound:
    def test_no_heavy_prime_above_bound_to_1e5(self):
        result = result_of("lambda-prime-bound", limit=10**5, oracle_limit=1)
        assert result.passed, f"prime {result.witness} beats the bound"

    def test_per_prime_verdicts_match_brute_force(self):
        def full_range(p, limit):
            # the family's statement over every n in [2p - 1, limit]
            lo = 2 * p - 1
            if lo > limit:
                return True
            n = np.arange(lo, limit + 1, dtype=np.int64)
            bound = np.where(n % 2 == 1, (n + 1) // 2, (n + 1) // 3)
            return not np.any((arith.digit_sums(n, p) >= p) & (p > bound))

        primes = arith.sieve(10**4).array
        for limit in (1, 2, 4, 5, 6, 97, 1000, 10**4):
            [(chosen, verdicts)] = [
                (indices, verdicts) for name, indices, verdicts in verify._suite(limit, 1)
                if name == "lambda-prime-bound"
            ]
            # a prime the family does not index has no n in [2p - 1, limit]
            got = dict(zip(chosen.tolist(), verdicts.tolist()))
            expected = [full_range(p, limit) for p in primes.tolist()]
            assert [got.get(p, True) for p in primes.tolist()] == expected, limit


@pytest.mark.parametrize("lo, hi", [(1, 1), (1, 300), (250, 1024), (1000, 1500)])
def test_multiples_match_brute_force(lo, hi):
    # primes to 2000, so some steps exceed hi and have no multiple in the window;
    # the steps of the kernels, p, and of dn, max(p - 1, 2), where p = 2 and 3 share 2
    primes = arith.sieve(2000).array
    for steps in (primes, np.maximum(primes - 1, 2)):
        expected = sorted(
            m << verify._SHIFT | p
            for p, step in zip(primes.tolist(), steps.tolist())
            for m in range(lo, hi + 1)
            if m % step == 0
        )
        assert verify._multiples(lo, hi, primes, steps).tolist() == expected
