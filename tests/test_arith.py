import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from berndenom import arith
from berndenom.arith import (
    SieveSizeError,
    decimal_str,
    digit_sum,
    digit_sums,
    is_prime,
    prime_divisors,
    product,
    radical,
    sieve,
)


@pytest.fixture(scope="module")
def sieve_20k():
    """The primes to 20,002, sieved directly: these tests are of PrimeSieve
    and of products over many primes, not of the shared cache."""
    return sieve(20_002)


def eratosthenes(limit):
    """The primes to limit from one flag per integer: the whole-range sieve,
    an independent reference for the segmented one."""
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags).tolist()


def brute_radical_primes(n):
    # independent route: scan every candidate divisor, no early factor removal
    return tuple(p for p in range(2, n + 1) if n % p == 0 and is_prime(p))


class TestDigitSum:
    def test_zero_has_empty_expansion(self):
        for p in (2, 3, 5, 101):
            assert digit_sum(0, p) == 0

    def test_single_digit_when_base_exceeds_n(self):
        for n in range(0, 60):
            for p in (61, 67, 1009):
                assert digit_sum(n, p) == n

    def test_known_expansions(self):
        assert digit_sum(10, 3) == 2  # 10 = (101) base 3
        assert digit_sum(255, 2) == 8
        assert digit_sum(7, 3) == 3
        assert digit_sum(9, 5) == 5

    def test_matches_base_repr_digits(self):
        for p in (2, 3, 5, 7):
            for n in range(0, 300):
                expected = sum(int(c) for c in np.base_repr(n, p))
                assert digit_sum(n, p) == expected

    def test_congruent_to_n_mod_base_minus_one(self):
        for p in (2, 3, 5, 7, 11, 13, 97):
            for n in range(0, 500):
                assert (digit_sum(n, p) - n) % (p - 1) == 0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            digit_sum(5, 1)
        with pytest.raises(ValueError):
            digit_sum(5, 0)
        with pytest.raises(ValueError):
            digit_sum(-1, 2)
        with pytest.raises(ValueError):
            digit_sums(np.arange(5), 1)
        with pytest.raises(ValueError):
            digit_sums(np.arange(5), np.array([2, 3, 1, 5, 7]))
        with pytest.raises(ValueError):
            digit_sums(np.array([3, -1]), 2)

    def test_table_agrees_with_scalar(self):
        n = np.arange(0, 2001, dtype=np.int64)
        for p in (2, 3, 7, 97):
            assert digit_sums(n, p).tolist() == [digit_sum(m, p) for m in range(2001)]
            assert digit_sums(n[1234:], np.int64(p)).tolist() == [digit_sum(m, p) for m in range(1234, 2001)]

    def test_sums_take_a_base_per_entry(self):
        top = (1 << 27) - 1
        n = np.array([0, 0, 1, 5, 6, 96, 97, 9408, top, top - 1, top, top, 1 << 26, 1 << 27], dtype=np.int64)
        p = np.array([2, 97, 2, 7, 5, 97, 97, 97, 2, 2, 3, 11_587, 2, 134_217_757], dtype=np.int64)
        # n = 0, p > n, n near 2^27 in bases 2, 3 and past its square root, and n < p once more
        assert digit_sums(n, p).tolist() == [digit_sum(m, q) for m, q in zip(n.tolist(), p.tolist())]
        assert digit_sums(top, p).tolist() == [digit_sum(top, q) for q in p.tolist()]
        assert digit_sums(n[:0], 2).size == 0


class TestFloorCondition:
    def test_equivalent_to_digit_sum_above_sqrt(self, sieve_20k):
        # digit_sum(n, p) >= p and the floor gap pick out the same primes
        # strictly above sqrt(n); exhaustive for n <= 10^4 via verify helper
        from berndenom.verify import _check_floor_equivalence

        for p in sieve_20k.primes_in(2, 10**4):
            assert _check_floor_equivalence(p, 10**4)


class TestLambdaPrimeBound:
    def test_exhaustive_small(self):
        # the bound the lambda-prime-bound verify family checks
        for n in range(1, 300):
            bound = (n + 1) // 2 if n % 2 else (n + 1) // 3
            for p in range(bound + 1, n + 1):
                if is_prime(p):
                    assert digit_sum(n, p) < p


class TestRadical:
    def test_examples(self):
        assert radical(12) == 6
        assert radical(1) == 1
        assert radical(10) == 10
        assert prime_divisors(1024) == (2,)

    def test_against_divisor_scan(self):
        for n in range(1, 2000):
            assert prime_divisors(n) == brute_radical_primes(n)
            assert radical(n) == math.prod(brute_radical_primes(n))

    def test_fixes_squarefree_values(self, sieve_20k):
        import itertools

        base = sieve_20k.primes_in(2, 40)
        for r in range(0, 4):
            for combo in itertools.combinations(base, r):
                assert prime_divisors(product(combo)) == combo
                assert radical(product(combo)) == product(combo)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            radical(0)
        with pytest.raises(ValueError):
            prime_divisors(0)


class TestSieve:
    def test_examples(self):
        assert sieve(10).primes == (2, 3, 5, 7)
        assert sieve(1).primes == ()
        thirty = sieve(30).primes
        assert len(thirty) == 10 and thirty[-1] == 29

    def test_complete_and_sound(self):
        sv = sieve(500)
        reference = tuple(n for n in range(2, 501) if all(n % d for d in range(2, n)))
        assert sv.primes == reference

    def test_strictly_increasing(self, sieve_20k):
        assert all(a < b for a, b in zip(sieve_20k.primes, sieve_20k.primes[1:]))

    def test_budget_guard(self, monkeypatch):
        with pytest.raises(SieveSizeError, match="exceeds the cap of 67108864"):
            sieve(10**12)
        monkeypatch.setattr(arith, "DEFAULT_SIEVE_CAP", 1000)
        with pytest.raises(SieveSizeError):
            sieve(1001)
        assert sieve(1000).limit == 1000

    def test_array_is_read_only(self):
        sv = sieve(100)
        assert sv.array.dtype == np.int64 and sv.array.tolist() == list(sv.primes)
        with pytest.raises(ValueError):
            sv.array[0] = 4

    def test_sieves_compare_by_identity(self):
        sv = sieve(100)
        assert sv == sv and sv != sieve(100)
        assert len({sv, sv, sieve(100)}) == 2

    def test_primes_in_coverage_guard(self):
        sv = sieve(100)
        with pytest.raises(SieveSizeError):
            sv.primes_in(2, 101)
        assert sv.primes_in(90, 100).tolist() == [97]

    def test_window_matches_sieve(self):
        seg = arith._SEGMENT
        top = 3 * seg + 5
        full = np.zeros(top + 1, dtype=bool)
        full[eratosthenes(top)] = True
        # one marking pass with the primes to isqrt(hi), whether or not the sieve reaches hi
        for sv in (sieve(55), sieve(400), sieve(3000)):
            for lo in (0, 1, 2, 3, 54, 55, 56, 399, 400, 401, 2000):
                for hi in (lo - 1, lo, lo + 1, lo + 97, 3000):
                    assert sv.window(lo, hi).tolist() == full[lo : hi + 1].tolist(), (sv.limit, lo, hi)
        assert sieve(55).window(0, -1).size == 0  # the empty window asks for no primes
        # windows wider than a segment, and ones straddling the seams between segments
        for lo, hi in ((0, top), (seg - 3, 2 * seg + 7), (2 * seg - 1, 3 * seg + 1), (seg, seg)):
            assert sieve(3000).window(lo, hi).tolist() == full[lo : hi + 1].tolist(), (lo, hi)
        with pytest.raises(SieveSizeError):
            sieve(50).window(2600, 2610)  # isqrt(2610) = 51
        with pytest.raises(ValueError):
            sieve(50).window(10, 8)

    def test_segments_tile_the_range(self):
        sv = sieve(3000)
        seg = arith._SEGMENT
        for lo, hi in ((0, 0), (5, 4), (1, seg), (seg - 1, 2 * seg + 3), (7, 3 * seg - 1)):
            pieces = list(sv.segments(lo, hi))
            assert [start for start, _ in pieces] == list(range(lo, hi + 1, seg))
            assert all(0 < f.size <= seg for _, f in pieces)
            assert sum(f.size for _, f in pieces) == hi + 1 - lo
            joined = np.concatenate([f for _, f in pieces] + [np.zeros(0, dtype=bool)])
            assert joined.tolist() == sv.window(lo, hi).tolist()  # one pass over the whole span

    def test_matches_whole_range_sieve_at_segment_seams(self):
        seg = arith._SEGMENT
        for limit in range(1, 101):
            trial_division = tuple(n for n in range(2, limit + 1) if all(n % d for d in range(2, n)))
            assert sieve(limit).primes == trial_division, limit
        for limit in (seg - 1, seg, seg + 1, 3 * seg + 5):
            assert sieve(limit).array.tolist() == eratosthenes(limit), limit

    def test_tiny_segments(self, monkeypatch):
        # seams every few integers: each one lands on, before and after a prime
        reference = eratosthenes(5000)
        for seg in (1, 2, 3, 7, 64):
            monkeypatch.setattr(arith, "_SEGMENT", seg)
            for limit in (1, 2, 3, 4, 5, 48, 49, 50, 997, 5000):
                assert sieve(limit).array.tolist() == [p for p in reference if p <= limit], (seg, limit)

    def test_memory_is_the_primes_not_the_flags(self):
        # one array sized by the bound on pi(x), 17% above pi(2**24), cut to its count in
        # place, plus one segment's flags: never a second copy of the primes while the
        # segments are gathered, nor one flag per integer up to the limit
        tracemalloc.start()
        try:
            primes = sieve(1 << 24).array
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * primes.nbytes + (2 << 20), (peak, primes.nbytes)

    def test_prime_count_bound(self, monkeypatch):
        for x in (2, 3, 10, 100, 5000, 1 << 16):
            assert arith._prime_count_bound(x) > len(eratosthenes(x)), x
        # a bound that no longer holds fails loudly instead of dropping primes
        monkeypatch.setattr(arith, "_prime_count_bound", lambda x: x // 10)
        for limit in (30, 5000):
            with pytest.raises(RuntimeError, match="past their bound"):
                sieve(limit)

    def test_membership(self):
        sv = sieve(100)
        assert sv.primes_in(97, 97).tolist() == [97]
        assert sv.primes_in(91, 91).tolist() == []
        assert sv.array.size == 25

    def test_primes_in_is_a_read_only_view_of_the_array(self):
        sv = sieve(100)
        view = sv.primes_in(10, 50)
        assert np.shares_memory(view, sv.array) and view.dtype == np.int64
        assert view.tolist() == [11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
        with pytest.raises(ValueError, match="read-only"):
            view[0] = 4
        assert sv.array[4] == 11  # the sieve is as it was
        assert sv.primes_in(90, 96).size == 0 and sv.primes_in(50, 10).size == 0


class TestIsPrime:
    def test_small_values(self):
        reference = {n for n in range(2, 2000) if all(n % d for d in range(2, n))}
        for n in range(0, 2000):
            assert is_prime(n) == (n in reference)

    def test_carmichael_and_large(self):
        assert not is_prime(561)
        # OEIS A014233: the least strong pseudoprime to the first k prime bases,
        # so each ends the range of one witness prefix and starts the next
        for n in (
            2_047,
            1_373_653,
            25_326_001,
            3_215_031_751,
            2_152_302_898_747,
            3_474_749_660_383,
            341_550_071_728_321,
            3_825_123_056_546_413_051,
            318_665_857_834_031_151_167_461,  # 399165290221 * 798330580441
        ):
            assert not is_prime(n), n
        # a strong pseudoprime to every base 2..41: refused, never guessed
        with pytest.raises(ValueError, match="exact only below"):
            is_prime(3_317_044_064_679_887_385_961_981)
        assert is_prime(2**61 - 1)

    def test_agrees_with_a_sieve_around_each_prefix_bound(self):
        # each window straddles a bound where the next witness joins the test
        base = sieve(1_870_000)  # up to sqrt(3474749660383 + 3000)
        bounds = (2_047, 1_373_653, 25_326_001, 3_215_031_751, 2_152_302_898_747, 3_474_749_660_383)
        for bound in bounds:
            lo, hi = bound - 2000, bound + 3000
            assert [is_prime(m) for m in range(lo, hi + 1)] == base.window(lo, hi).tolist(), bound
        assert is_prime(3_317_044_064_679_887_385_961_813)  # the largest prime below the limit


class TestProduct:
    def test_matches_math_prod(self, sieve_20k):
        primes = sieve_20k.primes
        for count in (0, 1, 2, 15, 16, 17, 33, 1000, len(primes)):
            assert product(primes[:count]) == math.prod(primes[:count])
        assert product(iter([3, 5, 7])) == 105

    def test_int64_arrays_multiply_exactly(self, sieve_20k):
        # numpy scalars would wrap at 2^63: these three to -5985261957399142337
        assert product(np.array([1000000007, 998244353, 1000000009])) == 998244368971909710889394239
        assert product(sieve_20k.array) == math.prod(sieve_20k.primes)
        assert product(sieve_20k.array[:0]) == 1


@pytest.fixture
def unlimited_str_digits():
    """Lift Python's int-to-str digit limit around the test, where it exists."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(before)


class TestDecimalStr:
    @pytest.mark.usefixtures("unlimited_str_digits")
    def test_matches_str(self):
        import random

        rng = random.Random(11)
        cases = [0, 1, 9, 10, 2**4096 - 1, 2**4096, 10**1233, 10**1234 - 1]
        cases += [10**5000 + 7, -(10**6000)]
        cases += [rng.getrandbits(bits) for bits in (4095, 4097, 8193, 50_000, 200_001)]
        for n in cases:
            assert decimal_str(n) == str(n), n.bit_length()


def test_prime_sieve_entries_are_prime(sieve_20k):
    for p in sieve_20k.primes[::97]:
        assert is_prime(p)


def test_shared_sieve_grows():
    small = arith.shared_sieve(10)
    bigger = arith.shared_sieve(small.limit + 1)
    assert bigger.limit > small.limit
    assert arith.shared_sieve(10).limit >= bigger.limit


@pytest.mark.parametrize("m", [0, 1, 10, 2_500_000])
def test_shared_sieve_builds_exactly_what_is_asked(monkeypatch, m):
    monkeypatch.setattr(arith, "_SHARED", None)
    assert arith.shared_sieve(m).limit == max(m, 1)


def test_shared_sieve_rebuilds_only_to_grow(monkeypatch):
    monkeypatch.setattr(arith, "_SHARED", None)
    first = arith.shared_sieve(1000)
    assert arith.shared_sieve(999) is first and arith.shared_sieve(1000) is first
    assert arith.shared_sieve(1001).limit == 1001
    assert arith.shared_sieve(10).limit == 1001


def test_shared_sieve_grows_under_one_lock(monkeypatch):
    # two threads ask for 1,000 and 2,000 while the first build is still running: with
    # the check and the build under one lock, the second waits and grows the cache to
    # 2,000; unlocked, it would cache 2,000 first and the slow 1,000 would replace it
    monkeypatch.setattr(arith, "_SHARED", None)
    real_sieve, building, asked, got = arith.sieve, threading.Event(), threading.Event(), {}

    def slow_sieve(limit):
        if limit == 1000:
            building.set()
            asked.wait(5)
            time.sleep(0.2)  # time for an unlocked second caller to build and cache 2,000
        return real_sieve(limit)

    def ask(bound):
        if bound == 2000:
            building.wait(5)
            asked.set()
        got[bound] = arith.shared_sieve(bound)

    monkeypatch.setattr(arith, "sieve", slow_sieve)
    threads = [threading.Thread(target=ask, args=(bound,)) for bound in (1000, 2000)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert arith._SHARED.limit == 2000
    assert got[1000].limit >= 1000 and got[2000].limit >= 2000
