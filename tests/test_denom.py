import hashlib
import itertools
import math
import tracemalloc
from math import isqrt

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from berndenom import arith, denom, oracle
from berndenom.arith import digit_sum, is_prime, prime_divisors, radical, sieve
from berndenom.denom import (
    SEQUENCES,
    db,
    db_k,
    dd,
    dd_split_divisibility,
    dd_split_sqrt,
    dn,
    ds,
    heavy_runs,
    omega_dd_plus,
    profile,
    qualifying_primes,
    sequence,
    support_at,
    support_block,
    support_blocks,
)

# reference values for n = 1..10 (ds starts at n = 0)
DD_FIRST = [1, 1, 2, 1, 6, 2, 6, 3, 10, 2]
DN_FIRST = [2, 6, 1, 30, 1, 42, 1, 30, 1, 66]
DB_FIRST = [2, 6, 2, 30, 6, 42, 6, 30, 10, 66]
DS_FIRST = [1, 2, 6, 4, 30, 12, 42, 24, 90, 20]

INTEGRAL_DERIVATIVE_SET = (1, 2, 4, 6, 10, 12, 28, 30, 36, 60)
MR_LIMIT = 3_317_044_064_679_887_385_961_981  # is_prime refuses from here on


def divisor_scan(n):
    """The divisors of n, ascending, by trial division of every d <= isqrt(n)."""
    small = []
    large = []
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
    return small + large[::-1]


def supports(lo, hi):
    """The range route's support of every n in [lo, hi], one tuple per index."""
    return [support for block in support_blocks(lo, hi) for support in block.tuples()]


# the parts of one support as plain predicates on (n, p), independent of PrimePairs
PARTS = {
    "minus": lambda n, p: p * p < n,
    "plus": lambda n, p: p * p > n,
    "shared": lambda n, p: n % p == 0,
    "coprime": lambda n, p: n % p != 0,
}


def db_k_formula(n, k):
    """db_k(n, k) as db(n - k) with the primes of (n)_k divided out; 1 for n <= k."""
    if n <= k:
        return 1
    db_prev = db(n - k)
    return db_prev // math.gcd(db_prev, math.perm(n, k))


def eratosthenes(bound):
    """The primes up to bound, by a sieve written here rather than read from arith."""
    flags = bytearray([0, 0]) + bytearray([1]) * (bound - 1)
    for p in range(2, isqrt(bound) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, bound + 1, p)))
    return list(itertools.compress(range(bound + 1), flags))


LUCAS_PRIMES = eratosthenes(10**6 + 1)


def lucas_coprime(m, t, p):
    """p does not divide C(m, t): by Lucas' theorem, no base-p digit of t exceeds m's."""
    while t:
        if t % p > m % p:
            return False
        m, t = m // p, t // p
    return True


def lucas_terms(m):
    """{p: the least t} for the primes p of the denominator of B_m(x) = sum C(m, t) B_t x^(m - t),
    m <= 10^6. p divides the denominator of B_t exactly when (p - 1) | t and B_t != 0, t even or 1
    (von Staudt-Clausen), and that of its term unless p | C(m, t). It reads no digit sum, run,
    mask or sieve of berndenom's."""
    least = {}
    for p in itertools.takewhile(lambda p: p <= m + 1, LUCAS_PRIMES):
        ts = itertools.chain([1], range(2, m + 1, 2)) if p == 2 else range(p - 1, m + 1, p - 1)
        t = next((t for t in ts if t <= m and lucas_coprime(m, t, p)), None)
        if t is not None:
            least[p] = t
    return least


class TestLucasOracle:
    """A second oracle: the k-th derivative of B_n(x) is (n)_k B_m(x), m = n - k, so p divides
    its denominator exactly when p divides none of n, ..., n - k + 1 and some term of B_m(x)
    keeps p; B_n(x) - B_n drops the term t = m. Both routes, to n = 1000 and k = 4, and at
    random n to 10^6 with k to 64."""

    def test_db_dd_and_db_k_to_1000(self):
        terms = [lucas_terms(m) for m in range(1001)]
        db_ = [math.prod(terms[n]) for n in range(1001)]
        dd_ = [math.prod(p for p, t in terms[n].items() if t < n) for n in range(1, 1001)]
        assert list(map(db, range(1001))) == list(sequence("db", 0, 1000)) == db_
        assert list(map(dd, range(1, 1001))) == list(sequence("dd", 1, 1000)) == dd_
        for k in range(1, 5):
            db_k_ = [
                math.prod(p for p in terms[n - k] if all((n - i) % p for i in range(k))) if n > k else 1
                for n in range(1, 1001)
            ]
            assert [db_k(n, k) for n in range(1, 1001)] == list(sequence("db_k", 1, 1000, k)) == db_k_, k


    @settings(max_examples=15, deadline=None)  # lucas_terms takes about 0.1 s near 10^6
    @given(n=st.integers(1001, 10**6), k=st.integers(1, 64))
    @example(n=10**6, k=64)
    def test_random_n_to_1e6(self, n, k):
        terms, shifted = lucas_terms(n), lucas_terms(n - k)
        assert db(n) == math.prod(terms)
        assert dd(n) == math.prod(p for p, t in terms.items() if t < n)
        db_k_ = math.prod(p for p in shifted if all((n - i) % p for i in range(k)))
        assert db_k(n, k) == db_k_
        assert list(sequence("db_k", n, n, k)) == [db_k_]


class TestDD:
    def test_first_ten(self):
        assert [dd(n) for n in range(1, 11)] == DD_FIRST

    def test_n_twelve(self):
        assert dd(12) == 2

    def test_odd_exactly_at_powers_of_two(self):
        for n in range(1, 4097):
            odd = dd(n) % 2 == 1
            assert odd == (n & (n - 1) == 0)

    def test_matches_oracle_for_small_n(self):
        for n in range(1, 41):
            expected = oracle.denominator_of(
                oracle.drop_constant_term(oracle.bernoulli_polynomial(n))
            )
            assert dd(n) == expected

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            dd(0)


class TestSplits:
    def test_sqrt_split_examples(self):
        assert dd_split_sqrt(7) == (2, 3)
        assert dd_split_sqrt(9) == (2, 5)
        assert dd_split_sqrt(4) == (1, 1)

    def test_divisibility_split_examples(self):
        assert dd_split_divisibility(3) == (1, 2, 3)
        assert dd_split_divisibility(12) == (2, 1, 3)
        assert dd_split_divisibility(7) == (1, 6, 7)

    def test_splits_recombine(self):
        for n in range(1, 801):
            whole = dd(n)
            below, above = dd_split_sqrt(n)
            shared, coprime, complement = dd_split_divisibility(n)
            assert below * above == whole
            assert shared * coprime == whole
            assert shared * complement == radical(n)


def test_carmichael_numbers_keep_every_prime_of_theirs():
    # Korselt: n is squarefree and composite, and p - 1 divides n - 1 for each p | n.
    # So s_p(n) = n = 1 (mod p - 1), and s_p(n) > 1 as n is no power of p: s_p(n) >= p
    # puts every p | n in the support, and the complement is 1 (Kellner and Sondow,
    # Integers 2021). The 43 such n below 10^6 are found over _factors blocks.
    top, step, found = 10**6, 1 << 16, []
    for lo in range(1, top + 1, step):
        factors = denom._factors(lo, min(lo + step - 1, top))
        width = factors.hi - lo + 1
        rad = np.ones(width, dtype=np.int64)
        np.multiply.at(rad, factors.n - lo, factors.p)
        primes = np.bincount(factors.n - lo, minlength=width)
        strays = np.bincount(factors.n - lo, (factors.n - 1) % (factors.p - 1) != 0, width)
        m = np.arange(lo, lo + width)
        found += m[(rad == m) & (primes >= 2) & (strays == 0)].tolist()
    assert len(found) == 43 and found[:3] == [561, 1105, 1729] and found[-1] == 997_633
    for n in found:
        assert profile(n).dd_complement == 1, n
        assert list(sequence("dd_complement", n, n)) == [1], n


class TestDN:
    def test_first_ten(self):
        assert [dn(n) for n in range(1, 11)] == DN_FIRST

    def test_examples(self):
        assert dn(4) == 30
        assert dn(9) == 1
        assert dn(1) == 2

    def test_matches_bernoulli_number_denominators(self):
        numbers = oracle.bernoulli_numbers(60)
        for n in range(1, 61):
            assert dn(n) == numbers[n].denominator

    def test_matches_von_staudt_clausen_over_the_sieve(self):
        # the primes p with (p - 1) | n, each at most n + 1; B_n = 0 for odd n >= 3
        primes = sieve(20_001).array
        for n in range(1, 20_001):
            expected = math.prod(primes[n % (primes - 1) == 0].tolist()) if n == 1 or n % 2 == 0 else 1
            assert dn(n) == expected, n

    @pytest.mark.parametrize("n", [10**12 + 38, 10**14 + 32, 10**15 + 36])
    def test_matches_divisor_scan_at_large_n(self, n):
        assert dn(n) == math.prod(d + 1 for d in divisor_scan(n) if is_prime(d + 1))


class TestDB:
    def test_first_ten(self):
        assert [db(n) for n in range(1, 11)] == DB_FIRST

    def test_boundary_cases(self):
        assert db(0) == 1
        assert db(9) == 10

    def test_equivalent_forms(self):
        for n in range(1, 801):
            value = db(n)
            whole_next = dd(n + 1)
            _, _, complement_next = dd_split_divisibility(n + 1)
            kernel_next = radical(n + 1)
            assert value == whole_next * complement_next
            assert value == math.lcm(whole_next, kernel_next)
            assert value == math.lcm(dd(n), dn(n))

    def test_matches_oracle_for_small_n(self):
        for n in range(0, 41):
            expected = oracle.denominator_of(oracle.bernoulli_polynomial(n))
            assert db(n) == expected


class TestDS:
    def test_first_ten(self):
        assert [ds(n) for n in range(0, 10)] == DS_FIRST
        assert ds(3) == 4

    def test_kernel_of_ds_is_db(self):
        for n in range(1, 301):
            assert radical(ds(n)) == db(n)

    def test_matches_oracle_for_small_n(self):
        for n in range(0, 41):
            expected = oracle.denominator_of(oracle.sum_of_powers_polynomial(n))
            assert ds(n) == expected


class TestDBK:
    def test_examples(self):
        assert db_k(8, 2) == 3
        assert db_k(2, 3) == 1
        assert db_k(5, 5) == 1

    def test_first_derivative_is_coprime_part(self):
        ones = []
        for n in range(1, 301):
            _, coprime, _ = dd_split_divisibility(n)
            value = db_k(n, 1)
            assert value == coprime
            if value == 1:
                ones.append(n)
        assert tuple(ones) == INTEGRAL_DERIVATIVE_SET

    def test_all_three_forms_agree(self):
        for n in range(1, 41):
            for k in range(1, 41):
                value = db_k(n, k)
                if n <= k:
                    assert value == 1
                    continue
                db_prev = db(n - k)
                assert value == db_prev // math.gcd(db_prev, math.perm(n, k))
                ff = math.perm(n, k)
                explicit = math.prod(
                    p for p in qualifying_primes(n - k + 1).tolist() if ff % p
                )
                assert value == explicit

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_sequence_and_db_k_match_the_formula_to_5000(self, data):
        k = data.draw(st.integers(1, 64), label="k")
        hi = data.draw(st.integers(1, 5000), label="hi")
        lo = data.draw(st.integers(max(hi - 300, 1), hi), label="lo")
        expected = [db_k_formula(n, k) for n in range(lo, hi + 1)]
        assert list(sequence("db_k", lo, hi, k)) == expected
        assert [db_k(n, k) for n in range(lo, hi + 1)] == expected

    def test_small_primes_never_divide(self):
        for n in range(1, 51):
            for k in range(1, 51):
                assert math.gcd(db_k(n, k), math.factorial(k)) == 1

    def test_matches_oracle_derivatives(self):
        for n in range(1, 31):
            poly = oracle.bernoulli_polynomial(n)
            for k in range(1, 5):
                expected = oracle.denominator_of(oracle.derivative(poly, k))
                assert db_k(n, k) == expected

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            db_k(0, 1)
        with pytest.raises(ValueError):
            db_k(1, 0)


class TestOmegaPlus:
    def test_examples(self):
        assert omega_dd_plus(7) == 1
        assert omega_dd_plus(4) == 0
        assert omega_dd_plus(9) == 1

    def test_counts_the_sqrt_split(self):
        for n in range(1, 2001):
            _, above = dd_split_sqrt(n)
            assert omega_dd_plus(n) == len(prime_divisors(above))

    @pytest.mark.parametrize("lo", [10**6, 10**7, 10**8])
    def test_mean_follows_the_candidate_model(self, lo):
        # mu(n) gives each quotient a <= sqrt(n) one candidate n // (a + 1) + 1, prime with
        # density 1 / ln(n / (a + 1)) and heavy for about a / (a + 1) of the n near it; over
        # 2^16 indices the mean count lies within 1% of mu at the middle, at all three
        hi = lo + (1 << 16) - 1
        mid = (lo + hi) / 2
        mu = sum(a / (a + 1) / math.log(mid / (a + 1)) for a in range(1, isqrt(int(mid)) + 1))
        mean = sum(sequence("omega_plus", lo, hi)) / (1 << 16)
        assert abs(mean / mu - 1) < 0.02


class TestProfile:
    def test_n5_fields(self):
        prof = profile(5)
        assert prof.dd == 6
        assert prof.dd_minus == 2
        assert prof.dd_plus == 3
        assert prof.dd_shared == 1
        assert prof.dd_coprime == 6
        assert prof.dd_complement == 5
        assert prof.dn == 1
        assert prof.db == 6
        assert prof.ds == 12
        assert prof.rad_n == 5
        assert prof.rad_n1 == 6
        assert prof.omega_plus == 1

    def test_n8_is_in_rad_set(self):
        prof = profile(8)
        assert prof.dd == 3
        assert prof.rad_n1 == 3
        assert prof.dd == prof.rad_n1
        assert prof.in_rad_set

    def test_in_rad_set_is_dd_equal_to_rad_n1(self):
        for n in range(1, 2001):
            prof = profile(n)
            assert prof.in_rad_set == (prof.dd == prof.rad_n1) == (dd(n) == radical(n + 1)), n

    def test_n1(self):
        prof = profile(1)
        assert prof.dd == 1
        assert prof.dn == 2
        assert prof.db == 2
        assert prof.omega_plus == 0

    def test_validate_holds_over_range(self):
        for n in range(1, 301):
            profile(n)  # validate() runs inside

    def test_trial_divides_each_radical_once(self, monkeypatch):
        calls = []

        def counted(n):
            calls.append(n)
            return radical(n)

        monkeypatch.setattr(denom, "radical", counted)
        for n in (1, 100, 1679, 27886):
            calls.clear()
            profile(n)
            assert sorted(calls) == [n, n + 1]

    def test_builds_one_sieve_for_both_supports(self, monkeypatch):
        # n + 1 = 10^8 is a square: sized for isqrt(n) = 9,999 first, the sieve was built twice
        limits = []
        real_sieve = arith.sieve
        monkeypatch.setattr(arith, "_SHARED", None)
        monkeypatch.setattr(arith, "sieve", lambda limit: limits.append(limit) or real_sieve(limit))
        profile(10**8 - 1)  # validate() runs inside
        assert limits == [10_000]

    def test_validate_rejects_tampering(self):
        import dataclasses

        broken = dataclasses.replace(profile(5), omega_plus=2)
        with pytest.raises(ValueError):
            broken.validate(support_at(5))


def test_derivative_one_members_have_prime_successor():
    for n in INTEGRAL_DERIVATIVE_SET:
        assert db_k(n, 1) == 1
        assert is_prime(n + 1)


def by_every_quotient(n):
    """qualifying_primes(n) in plain ints, with no windows: every quotient a <= isqrt(n)."""
    root = isqrt(n)
    small = [p for p in sieve(root).array.tolist() if digit_sum(n, p) >= p]
    # p > a makes a = n // p the first of p's two digits, and a falling gives p rising
    large = [p for a in range(root, 0, -1) if n % (a + 1) and (p := n // (a + 1) + 1) > a and is_prime(p)]
    return small + large


class TestQualifyingPrimes:
    """The single-index route against the range route, which shares no code with it."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 10**7))
    def test_matches_supports_at_random_n(self, n):
        [expected] = supports(n, n)
        assert tuple(qualifying_primes(n).tolist()) == expected
        # a cache of the primes to isqrt(n) alone: the candidate window is sieved in segments
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(arith, "_SHARED", sieve(max(isqrt(n), 1)))
            assert tuple(qualifying_primes(n).tolist()) == expected

    def test_matches_supports_exhaustively(self):
        for n, expected in enumerate(supports(1, 2 * 10**5), start=1):
            assert tuple(qualifying_primes(n).tolist()) == expected, n

    def test_sound_where_int64_squares_overflow(self):
        # candidates up to 5e11: squaring them in int64 would overflow
        n = 10**12 + 39
        found = qualifying_primes(n).tolist()
        assert all(a < b for a, b in zip(found, found[1:]))
        above = [p for p in found if p > 10**6]
        assert above[-1] ** 2 > 2**63 and all(n // p + n % p >= p for p in above)
        assert all(is_prime(p) for p in above[::50])

    def test_every_candidate_to_dense_bound_is_sieved(self, monkeypatch):
        # 16 * isqrt(n) lies 2.1e7 above isqrt(n), dozens of segments: every candidate
        # up to it is sieved, and only those past it reach is_prime
        n = 2_000_000_000_003
        tested = []
        real_is_prime = denom.is_prime
        monkeypatch.setattr(denom, "is_prime", lambda p: tested.append(p) or real_is_prime(p))
        found = qualifying_primes(n).tolist()
        assert tested and min(tested) > 16 * isqrt(n)
        assert len(found) == 145_364
        digest = hashlib.sha256(",".join(map(str, found)).encode("ascii")).hexdigest()
        assert digest == "ab6a25f2cae0397e41fdc5b7001003a29e30835f220517dc3ff092d20e14f598"

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(2**30, 10**10))
    def test_window_seams_lose_no_candidate(self, n):
        # 16 * isqrt(n) spans one to three segments of 2^19, each with its own candidates
        assert qualifying_primes(n).tolist() == by_every_quotient(n)

    @pytest.mark.parametrize("n", [10**10 + 19, 2**32 + 15])
    def test_tail_slices_lose_no_candidate(self, monkeypatch, n):
        # the tail past 16 * isqrt(n) goes to is_prime in slices, here of 1,000 candidates; it
        # holds about one per quotient up to isqrt(n) / 16, so more than four slices
        assert isqrt(n) // 16 > 4000
        monkeypatch.setattr(denom, "_SEGMENT", 1000)
        assert qualifying_primes(n).tolist() == by_every_quotient(n)

    def test_candidates_peak_at_one_window(self):
        # one segment's candidates at a time, and the 306,290 primes found kept in int64
        # (2.3 MiB), stay under 16 MiB; the same primes as Python ints in a list take 11 MiB more
        n = 10**13 + 37
        arith.shared_sieve(isqrt(n))  # built before tracing: the call alone is measured
        tracemalloc.start()
        try:
            found = qualifying_primes(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(found) == 306_290
        assert peak < 16 * 2**20, peak

    def test_single_index_calls_sieve_to_sqrt_only(self, monkeypatch):
        limits = []
        real_sieve = arith.sieve

        def recording_sieve(limit, *args, **kwargs):
            limits.append(limit)
            return real_sieve(limit, *args, **kwargs)

        monkeypatch.setattr(arith, "_SHARED", None)
        monkeypatch.setattr(arith, "sieve", recording_sieve)
        n = 10**9 + 7
        profile(n)  # validate() runs inside
        dd(n), db(n), ds(n), db_k(n, 3), omega_dd_plus(n)
        assert limits and max(limits) <= isqrt(n + 1), limits

    @pytest.mark.parametrize("n", [1, 3, 8, 10**4 + 7, 10**8 + 7])
    def test_one_ascending_int64_array(self, n):
        found = qualifying_primes(n)
        assert isinstance(found, np.ndarray) and found.dtype == np.int64 and found.ndim == 1
        assert np.all(found[1:] > found[:-1]) and found.size == len(supports(n, n)[0])

    def test_support_at_holds_the_very_array(self, monkeypatch):
        found = qualifying_primes(10**6 + 3)
        monkeypatch.setattr(denom, "qualifying_primes", lambda n: found)
        assert support_at(10**6 + 3).p is found

    def test_int64_bound_fails_loudly(self):
        with pytest.raises(ValueError, match="2\\*\\*63"):
            qualifying_primes(1 << 63)


BATCHES = pytest.mark.parametrize("batch", [None, 7, 1], ids=["batch-default", "batch-7", "batch-1"])


def supports_with_batch(lo, hi, batch):
    """supports(lo, hi) with at most batch runs or pairs per batch
    (None keeps the default); 1 and 7 cut batches inside a1 slices and runs."""
    with pytest.MonkeyPatch.context() as mp:
        if batch is not None:
            mp.setattr(denom, "_RUN_BATCH", batch)
        return supports(lo, hi)


class TestSupports:
    @BATCHES
    def test_small_windows(self, batch):
        expected = [()] + [tuple(qualifying_primes(n).tolist()) for n in range(1, 401)]
        # each call costs a few hundred microseconds, so not every pair (lo, hi):
        # every hi with every lo close to it, every prefix, every suffix of [1, 400]
        top, reach = {None: (400, 40), 7: (150, 15), 1: (60, 8)}[batch]
        windows = {(lo, hi) for hi in range(1, top + 1) for lo in range(max(1, hi - reach), hi + 1)}
        step = 1 if batch is None else 13
        windows |= {(1, hi) for hi in range(1, 401, step)} | {(lo, 400) for lo in range(1, 401, step)}
        for lo, hi in sorted(windows):
            assert supports_with_batch(lo, hi, batch) == expected[lo : hi + 1], (lo, hi)

    def test_blocks_tile_the_range(self, monkeypatch):
        expected = [tuple(qualifying_primes(n).tolist()) for n in range(1, 2001)]
        monkeypatch.setattr(denom, "_SUPPORT_BLOCK", 7)
        assert supports(1, 2000) == expected
        assert supports(995, 1300) == expected[994:1300]

    @BATCHES
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_random_windows(self, batch, data):
        # wide enough at the default batch to span several blocks of indices
        max_width = {None: 10_000, 7: 2_100, 1: 40}[batch]
        hi = data.draw(st.integers(1, 2 * 10**6), label="hi")
        width = data.draw(st.integers(1, min(max_width, hi)), label="width")
        lo = hi - width + 1
        picks = data.draw(st.lists(st.integers(lo, hi), max_size=4), label="picks")
        found = supports_with_batch(lo, hi, batch)
        assert len(found) == width
        for n in sorted({lo, hi, *picks}):
            assert found[n - lo] == tuple(qualifying_primes(n).tolist()), n

    def test_blocks_size_the_sieve_once(self, monkeypatch):
        # grown block by block to exactly what each asks for, it would be built per block
        limits = []
        real_sieve = arith.sieve
        monkeypatch.setattr(arith, "_SHARED", None)
        monkeypatch.setattr(arith, "sieve", lambda limit: limits.append(limit) or real_sieve(limit))
        next(support_blocks(200_000, 300_000))
        assert limits == [150_000]

    def test_a_block_peaks_under_twice_its_pairs(self):
        # 1,904,529 pairs, 29.1 MiB: each piece is keyed as it comes and the keys are
        # sorted and split in place, so the peak is 29.1 MiB (three copies took 87.7)
        lo, hi = 134_200_000, 134_201_023
        arith.shared_sieve((hi + 1) // 2)  # built before tracing: the block alone is measured
        tracemalloc.start()
        try:
            block = support_block(lo, hi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert block.n.size > 1_900_000
        assert peak < 2 * (block.n.nbytes + block.p.nbytes), peak

    def test_empty_range_and_bad_start(self):
        assert supports(10, 9) == []
        with pytest.raises(ValueError):
            supports(0, 10)


def pairs(lo, hi):
    """The (n, p) arrays of support_blocks(lo, hi), concatenated."""
    blocks = list(support_blocks(lo, hi))
    return np.concatenate([b.n for b in blocks]), np.concatenate([b.p for b in blocks])


class TestPrimePairs:
    """The range route's blocks as (n, p) arrays, read without the tuple view."""

    def test_pairs_are_qualifying_primes_to_5000(self):
        n, p = pairs(1, 5000)
        expected = [(m, q) for m in range(1, 5001) for q in qualifying_primes(m).tolist()]
        assert list(zip(n.tolist(), p.tolist())) == expected

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_windows_to_1e7(self, data):
        block = denom._SUPPORT_BLOCK
        hi = data.draw(st.integers(1, 10**7), label="hi")
        # widths around one and two blocks put a boundary inside the window
        width = data.draw(
            st.sampled_from([1, 2, block - 1, block, block + 1, 2 * block + 1]) | st.integers(1, 3 * block),
            label="width",
        )
        lo = max(hi - width + 1, 1)
        n, p = pairs(lo, hi)
        keys = n * (hi + 1) + p
        assert np.all(keys[1:] > keys[:-1]) and n.min(initial=lo) >= lo and n.max(initial=hi) <= hi
        picks = data.draw(st.lists(st.integers(lo, hi), max_size=3), label="picks")
        for m in sorted({lo, hi, min(lo + block - 1, hi), min(lo + block, hi), *picks}):
            assert np.array_equal(p[n == m], qualifying_primes(m)), m
        mid = (lo + hi) // 2
        window = support_block(lo, hi).window(mid, hi)
        assert (window.lo, window.hi) == (mid, hi)
        assert np.array_equal(window.p, support_block(mid, hi).p)

    def test_masks_are_the_split(self):
        for block in support_blocks(1, 3000):
            supports = block.tuples()
            for name, mask in [
                ("minus", block.minus),
                ("plus", ~block.minus),
                ("shared", block.shared),
                ("coprime", ~block.shared),
            ]:
                keep = PARTS[name]
                parts = [tuple(p for p in s if keep(m, p)) for m, s in enumerate(supports, block.lo)]
                assert block.tuples(mask) == parts, name
                assert block.products(mask) == [math.prod(part) for part in parts], name

    def test_kept_is_the_db_k_support(self):
        for block in support_blocks(1, 3000):
            supports = block.tuples()
            for k in (1, 2, 3, 7, 40):
                # at index m the primes dividing none of m, ..., m + k - 1
                parts = [
                    tuple(p for p in s if all((m + i) % p for i in range(k)))
                    for m, s in enumerate(supports, block.lo)
                ]
                assert block.tuples(block.kept(k)) == parts, k

    @pytest.mark.parametrize("n", [10**11 + 3, 10**12 + 39])
    def test_minus_where_int64_squares_overflow(self, n):
        support = support_at(n)
        assert (support.lo, support.hi) == (n, n) and np.all(support.n == n)
        assert np.array_equal(support.p, qualifying_primes(n))
        expected = [p * p < n for p in support.p.tolist()]
        assert support.minus.tolist() == expected
        # the square itself wraps in int64 and misplaces some primes
        assert (support.p * support.p < support.n).tolist() != expected


class TestFactors:
    """The block factoriser against arith.prime_divisors, which shares no code with it."""

    def test_matches_prime_divisors_exhaustively(self):
        # windows of one block, and of an odd width, that straddle the block seams
        block = denom._SUPPORT_BLOCK
        for first, width in [(block // 2, block), (333, 777)]:
            starts = [1, *range(first + 1, 30_000, width)]
            for lo, hi in zip(starts, [*(s - 1 for s in starts[1:]), 30_000]):
                found = denom._factors(lo, hi)
                assert (found.lo, found.hi) == (lo, hi)
                assert found.tuples() == [prime_divisors(m) for m in range(lo, hi + 1)], (lo, hi)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_random_windows_to_1e12(self, data):
        hi = data.draw(st.integers(1, 10**12), label="hi")
        lo = max(hi - data.draw(st.integers(1, 1 << 12), label="width") + 1, 1)
        found = denom._factors(lo, hi).tuples()
        assert len(found) == hi - lo + 1
        # trial division near 10^12 takes up to 0.1 s an index, so most indices are
        # checked from the definition: ascending primes whose powers make up m
        for m, primes in zip(range(lo, hi + 1), found):
            assert list(primes) == sorted(set(primes)) and all(map(is_prime, primes)), m
            rest = m
            for q in primes:
                assert rest % q == 0, (m, q)
                while rest % q == 0:
                    rest //= q
            assert rest == 1, m
        picks = data.draw(st.lists(st.integers(lo, hi), max_size=3), label="picks")
        for m in sorted({lo, hi, *picks}):
            assert found[m - lo] == prime_divisors(m), m


class TestHeavyRuns:
    @pytest.mark.parametrize("cut", [0, 1, 2, 6])
    def test_cut_runs_count_primes_missing_the_next_cut_indices(self, cut):
        lo, hi = 150, 1200
        counts = np.zeros(hi - lo + 1, dtype=np.int64)
        for _, begin, stop in heavy_runs(lo, hi, cut):
            assert np.all(begin < stop)
            for a, b in zip(begin.tolist(), stop.tolist()):
                counts[a:b] += 1
        for m in range(lo, hi + 1):
            above = [p for p in qualifying_primes(m).tolist() if PARTS["plus"](m, p)]
            missing = [p for p in above if all((m + i) % p for i in range(1, cut + 1))]
            assert counts[m - lo] == len(missing), m

    @pytest.mark.parametrize("depth", [0, 1, 2, 5])
    @pytest.mark.parametrize("lo, hi, cut", [(1, 3000, 0), (150, 1200, 1), (2000, 2100, 0), (4000, 9000, 3)])
    def test_depth_keeps_the_runs_among_the_top_quotients(self, lo, hi, cut, depth):
        # a run of p holds n with quotient a = n // p; with a depth it is kept
        # exactly when a >= isqrt(n) - depth at some n it holds in [lo, hi]
        runs = lambda d: {
            (p, lo + b, lo + s)
            for owner, begin, stop in heavy_runs(lo, hi, cut, d)
            for p, b, s in zip(owner.tolist(), begin.tolist(), stop.tolist())
        }
        full, deep = runs(None), runs(depth)
        assert deep <= full
        for p, b, s in full:
            assert ((p, b, s) in deep) == any(n // p >= isqrt(n) - depth for n in range(b, s))

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1 << 27, 10**15 - 10**10), below=st.integers(0, 64))
    @example(n=1 << 27, below=0)
    @example(n=10**15 - 10**10, below=64)
    def test_a_run_past_the_old_cap_has_its_exact_ends(self, n, below):
        # past 2^27 no count checks the runs, and the cover's zeros cannot see a run one
        # index short or long; the window holds one index more on either side of p's run
        a = isqrt(n) - below  # among the 65 largest quotients, as the cover at depth 64 reads
        p = max(n // (a + 1), a) + 1
        while not is_prime(p):
            p += 1
        top = (a + 1) * p
        assume(a >= isqrt(top) - 64)
        lo = top - a - 1
        ends = [
            (lo + b, lo + s)
            for owner, begin, stop in heavy_runs(lo, top, 0, 64)
            for q, b, s in zip(owner.tolist(), begin.tolist(), stop.tolist())
            if q == p
        ]
        assert ends == [(top - a, top)], (a, p)
        assert digit_sum(top - a - 1, p) < p <= digit_sum(top - a, p)
        assert digit_sum(top - 1, p) >= p > digit_sum(top, p)


class TestRagged:
    """The one expansion of (first, count) progressions, against a plain Python one."""

    @settings(max_examples=100, deadline=None)
    @given(groups=st.lists(st.tuples(st.integers(-(2**40), 2**40), st.integers(0, 40)), max_size=40))
    @example(groups=[])
    @example(groups=[(5, 0), (-3, 0)])
    @example(groups=[(7, 0), (2, 3), (9, 0), (-1, 1), (4, 0)])
    def test_matches_a_python_expansion(self, groups):
        first = np.array([f for f, _ in groups], dtype=np.int64)
        count = np.array([c for _, c in groups], dtype=np.int64)
        expanded = denom._ragged(first, count)
        assert expanded.dtype == np.int64
        assert expanded.tolist() == [f + i for f, c in groups for i in range(c)]


def runs_of(lo, hi, picks):
    """For each prime in picks, every n in [lo, hi] that its runs from heavy_runs and
    _small_runs hold, once per run, after checking that every run lies in the window."""
    held = {p: [] for p in picks}
    for owner, begin, stop in [*heavy_runs(lo, hi), *denom._small_runs(lo, hi)]:
        assert np.all((0 <= begin) & (begin <= stop) & (stop <= hi - lo + 1))
        keep = np.isin(owner, picks)
        for p, b, s in zip(owner[keep].tolist(), begin[keep].tolist(), stop[keep].tolist()):
            held[p] += range(lo + b, lo + s)
    return held


class TestSmallRuns:
    """The runs of a prime p <= isqrt(hi), from p^2 on by _small_runs and below it by
    heavy_runs, hold each n with digit_sum(n, p) >= p once, and no other n."""

    def check(self, lo, hi, picks):
        for p, held in runs_of(lo, hi, picks).items():
            assert sorted(held) == [n for n in range(lo, hi + 1) if digit_sum(n, p) >= p], (lo, hi, p)

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 97, 1009, 11_579])
    def test_windows_across_the_square(self, p):
        # t from lo // p, not p, would give the two-digit runs below p^2 again
        for lo, hi in [(p * p - 2048, p * p + 3 * p), (p * p - 1, p * p), (p * p - 2 * p, p * p + 2 * p + 1)]:
            self.check(max(lo, 1), hi, [p])

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_random_windows_to_2_27(self, data):
        # isqrt(hi) = root, so windows near a square come often, up to hi < 2^27
        root = data.draw(st.integers(2, 11_585), label="root")
        hi = data.draw(st.integers(root * root, min((root + 1) ** 2 - 1, (1 << 27) - 1)), label="hi")
        lo = max(hi - data.draw(st.integers(1, 2048), label="width") + 1, 1)
        small = arith.shared_sieve((hi + 1) // 2).primes_in(2, root)
        picks = data.draw(st.lists(st.sampled_from(small), max_size=4), label="picks")
        self.check(lo, hi, sorted({2, small[-1], *picks}))


class TestSequence:
    @pytest.mark.parametrize("lo, hi", [(1, 60), (1, 2), (700, 760)])
    def test_matches_per_index_functions(self, lo, hi):
        per_index = {
            "dd": dd,
            "dn": dn,
            "db": db,
            "ds": lambda n: ds(n),
            "dd_plus": lambda n: dd_split_sqrt(n)[1],
            "dd_minus": lambda n: dd_split_sqrt(n)[0],
            "dd_shared": lambda n: dd_split_divisibility(n)[0],
            "dd_coprime": lambda n: dd_split_divisibility(n)[1],
            "dd_complement": lambda n: dd_split_divisibility(n)[2],
            "omega_plus": lambda n: omega_dd_plus(n),
        }
        assert set(per_index) | {"db_k"} == set(SEQUENCES)
        for name, value in per_index.items():
            got = list(sequence(name, lo, hi))
            assert got == [value(n) for n in range(lo, hi + 1)], name
        for k in (1, 2, 3, 5):
            got = list(sequence("db_k", lo, hi, k))
            assert got == [db_k(n, k) for n in range(lo, hi + 1)], k

    def test_db_and_ds_start_at_zero(self):
        assert list(sequence("db", 0, 9)) == [1] + DB_FIRST[:9]
        assert list(sequence("ds", 0, 9)) == DS_FIRST

    # each raises at the call, before any value is asked for
    @pytest.mark.parametrize(
        "args, message",
        [
            (("nope", 1, 10), "unknown sequence 'nope'"),
            (("db_k", 1, 10), "seq db_k requires --k"),
            (("db_k", 1, 10, 0), "db_k needs k >= 1, got 0"),
            (("db_k", 1, 10, -2), "db_k needs k >= 1, got -2"),
            (("dd", 1, 10, 2), "--k applies only to db_k, not dd"),
            (("db", 1, 10, 1), "--k applies only to db_k, not db"),
            (("db", -1, 2), "db is defined from n = 0, got lo = -1"),
            (("ds", -1, 2), "ds is defined from n = 0, got lo = -1"),
            (("dd", 0, 3), "dd is defined from n = 1, got lo = 0"),
            (("dn", 0, 3), "dn is defined from n = 1, got lo = 0"),
            (("omega_plus", 0, 3), "omega_plus is defined from n = 1, got lo = 0"),
            (("db_k", 0, 3, 2), "db_k is defined from n = 1, got lo = 0"),
            (("dd", 5, 3), "need lo <= hi, got 5 > 3"),
            (("dn", 5, 3), "need lo <= hi, got 5 > 3"),
            # dn(n) tests n + 1 by is_prime, exact only below its last bound
            (("dn", 10**25, 10**25), f"is_prime is exact only below {MR_LIMIT}, got {10**25 + 1}"),
            (("dn", 1, MR_LIMIT - 1), f"is_prime is exact only below {MR_LIMIT}, got {MR_LIMIT}"),
        ],
    )
    def test_bad_arguments_raise_at_the_call(self, args, message):
        with pytest.raises(ValueError) as exc:
            sequence(*args)
        assert str(exc.value) == message

    def test_dn_runs_to_the_last_index_is_prime_decides(self):
        assert list(sequence("dn", MR_LIMIT - 2, MR_LIMIT - 2)) == [1]  # odd: B_n = 0
