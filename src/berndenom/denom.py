"""Denominator families of Bernoulli polynomials, computed purely from prime
and digit-sum conditions; no rational arithmetic appears on this path.

The central object is the support of dd(n): the primes p whose base-p digit
sum of n reaches p. A prime p > sqrt(n) has the two digits a = n // p and
n % p, so it qualifies exactly when (a+1)p - a <= n < (a+1)p: on one run of
indices per quotient 1 <= a < p. This module alone decides the support, by
one of two routes:

* One index: qualifying_primes(n) tests the primes up to isqrt(n) by digit
  sum, then solves the run condition for p at each a <= isqrt(n). That
  leaves one candidate per quotient, looked up in a sieved window or
  checked by Miller-Rabin, so a single index costs O(sqrt n) candidates
  and primes to isqrt(n) only. They come as one int64 array, which
  support_at(n) holds, uncopied, as a one-index PrimePairs.
* A range: support_blocks(lo, hi) yields the supports of every n in
  [lo, hi] a block of indices at a time, as PrimePairs: the pairs (n, p) in
  sorted int64 arrays, read off runs of heavy indices alone. heavy_runs()
  enumerates every prime's runs below p^2 quotient-major, the plus part;
  _small_runs() gives those of the primes up to isqrt(hi) from p^2 on, the
  minus part, by s_p(n) = s_p(n // p) + n mod p. _run_counts() counts the
  runs of heavy_runs() without materialising any support: that count is
  omega_+(n), seq omega_plus.

Either way a support is cut by the masks of PrimePairs: minus (p below
sqrt(n)), shared (p divides n) and kept(k) (p divides none of n, ...,
n + k - 1). Every family below is read off those parts:

* ``dd(n)``   denominator of B_n(x) - B_n            (cf. OEIS A195441)
* ``dn(n)``   denominator of the number B_n           (cf. OEIS A027642)
* ``db(n)``   denominator of B_n(x)                   (cf. OEIS A144845)
* ``ds(n)``   denominator of the power-sum polynomial (cf. OEIS A064538)
* ``db_k(n, k)``  denominator of the k-th derivative of B_n(x)

Each family returns a plain int, and all but ds are squarefree: the product
of the primes one mask keeps. The primes are read from qualifying_primes(n),
support_at(n) and the masks, and the radicals in db from arith.radical, or
from _factors over a block. Every prime comes from arith.shared_sieve: each
search reads it for its own bound, and a range walker sizes it once first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from math import isqrt
from typing import Iterator, NamedTuple

import numpy as np

from .arith import _SEGMENT, digit_sum, digit_sums, is_prime, prime_divisors, product, radical, shared_sieve

__all__ = [
    "DenomProfile",
    "PrimePairs",
    "SEQUENCES",
    "db",
    "db_k",
    "dd",
    "dd_split_divisibility",
    "dd_split_sqrt",
    "dn",
    "ds",
    "heavy_reach",
    "heavy_runs",
    "omega_dd_plus",
    "profile",
    "qualifying_primes",
    "sequence",
    "support_at",
    "support_block",
    "support_blocks",
]

DEFAULT_CHUNK_SIZE = 1 << 20
"""Indices per step of seq omega_plus's run count, a scan's default chunk to 2^32, and the least
step of the scanner's cover, whose steps grow with sqrt(n) past 2^16."""

_RUN_BATCH = 1 << 15
"""Most runs or (prime, index) pairs in one batch: its int64 arrays take 256 KiB each."""

_SUPPORT_BLOCK = 1 << 10
"""Indices per block of support_blocks(), so memory is O(block * support size)."""

_DENSE = 16
"""Candidates above sqrt(n) lie about n / c^2 apart near c, so up to about
_DENSE * sqrt(n) sieving them segment by segment costs less than testing them one by one."""

def qualifying_primes(n: int) -> np.ndarray:
    """Ascending primes p with digit_sum(n, p) >= p as one int64 array, from the primes to isqrt(n).

    Primes p <= isqrt(n) are tested by digit_sum, one by one over the sieve's array, which
    costs less at small n than arith.digit_sums' fixed numpy calls. A prime p > sqrt(n)
    with a = n // p qualifies exactly when n + 1 <= (a+1)p <= n + a, which pins p to
    n // (a+1) + 1 and needs (a+1) not to divide n. A window [lo, hi] above isqrt(n) thus
    holds the candidates of the a <= isqrt(n) with n // hi < a + 1 <= n // (lo - 1), ascending
    as a falls; each window computes its own, so no array spans every quotient. Windows up to
    _DENSE * isqrt(n) are sieved a segment at a time; the tail's candidates go to is_prime as
    ints, _SEGMENT at a time, so no list holds them all. The parts are joined once.
    """
    if not 1 <= n < 1 << 63:
        raise ValueError(f"n must lie in [1, 2**63), got {n}")
    root = isqrt(n)

    def candidates(lo: int, hi: int) -> np.ndarray:  # in int64 with no products: no overflow
        q, r = np.divmod(n, np.arange(min(n // (lo - 1), root + 1), n // hi, -1, dtype=np.int64))
        return q[r != 0] + 1

    sv = shared_sieve(root)
    parts = [np.array([p for p in sv.primes_in(2, root).tolist() if digit_sum(n, p) >= p], np.int64)]
    top = min(n // 2 + 1, _DENSE * root)
    for lo, flags in sv.segments(root + 1, top):
        here = candidates(lo, lo + flags.size - 1)
        parts.append(here[flags[here - lo]])
    tail = candidates(top + 1, n // 2 + 1)
    for s in range(0, tail.size, _SEGMENT):
        parts.append(np.array([p for p in tail[s : s + _SEGMENT].tolist() if is_prime(p)], np.int64))
    return np.concatenate(parts)


def _ragged(first: np.ndarray, count: np.ndarray) -> np.ndarray:
    """first[g] + i for 0 <= i < count[g], group after group, as one array; count >= 0."""
    values = np.repeat(first - (np.cumsum(count) - count), count)
    values += np.arange(values.size)
    return values


def _multiples(lo: int, hi: int, steps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each step's multiples in [lo, hi], ascending, step after step, and how many each has."""
    first = -(-lo // steps)
    count = np.maximum(hi // steps - first + 1, 0)
    return _ragged(first, count) * np.repeat(steps, count), count


def _ragged_batches(keys: np.ndarray, first: np.ndarray, count: np.ndarray):
    """Expand group g into the pairs (keys[g], first[g] + i) for 0 <= i < count[g].

    The pairs of all groups, in order, are yielded as (key, value) arrays of
    at most _RUN_BATCH entries each; a group may straddle two batches, and each
    batch's values are _ragged of its groups' parts.
    """
    ends = np.cumsum(count)
    total = int(ends[-1]) if ends.size else 0
    for b0 in range(0, total, _RUN_BATCH):
        b1 = min(b0 + _RUN_BATCH, total)
        g0 = int(np.searchsorted(ends, b0, side="right"))
        g1 = int(np.searchsorted(ends, b1 - 1, side="right")) + 1
        begins = ends[g0:g1] - count[g0:g1]
        skip = np.maximum(b0 - begins, 0)
        take = np.minimum(b1 - begins, count[g0:g1]) - skip
        yield np.repeat(keys[g0:g1], take), _ragged(first[g0:g1] + skip, take)


def _searched(lo: int, hi: int, cut: int, depth: int | None, peaks: bool = False):
    """(quotients, lower, upper) of heavy_runs(lo, hi, cut, depth): quotient
    a1 = quotients[i] searches the primes p with lower[i] <= p <= upper[i]. With peaks, only
    the quotients where upper can peak, as Python ints: see heavy_reach."""
    least = cut + 1 if depth is None else max(cut + 1, isqrt(lo) - depth)
    turn = isqrt(hi + 1) - (depth or 0) - 1  # the last a1 with (a1 + depth + 1)^2 - 1 <= hi
    picks = [a1 for a1 in (least, turn, turn + 1) if least <= a1 <= isqrt(hi)]
    quotients = np.array(picks, object) if peaks else np.arange(least, isqrt(hi) + 1, dtype=np.int64)
    top = hi if depth is None else np.minimum(hi, (quotients + depth + 1) ** 2 - 1)
    lower = np.maximum(quotients + 1, -(-(lo + 1 + cut) // (quotients + 1)))
    return quotients, lower, (top + quotients) // (quotients + 1)


def heavy_reach(lo: int, hi: int, cut: int = 0, depth: int | None = None) -> int:
    """The largest bound heavy_runs(lo, hi, cut, depth) searches primes to, 0 when it
    reads no quotient. With no depth it is (hi + cut + 1) // (cut + 2); with one, quotient
    cut + 1 reaches (cut + depth + 2)^2 / (cut + 2) and the top ones about isqrt(hi) + depth.

    Exact for any hi, from at most three quotients. Up to the turn, quotient a1 = b - 1
    searches to the floor of b + 2 depth + 1 + (depth^2 - 2) / b, convex in b (rising for
    depth < 2), so there it peaks at the least quotient or at the turn; past the turn it
    searches to (hi + a1) // b, which falls, so there it peaks at the turn's successor."""
    return int(_searched(lo, hi, cut, depth, peaks=True)[2].max(initial=0))


def heavy_runs(lo: int, hi: int, cut: int = 0, depth: int | None = None):
    """Yield the runs of heavy indices of the primes that meet [lo, hi].

    The run of a prime p > a1 >= 1 is [(a1+1)p - a1, (a1+1)p - 1 - cut]: the
    indices below (a1+1)p where p's digit sum reaches p, less the top cut of
    them. Batches of at most _RUN_BATCH nonempty runs come as arrays
    (p, begin, stop): p is heavy at lo + begin <= n < lo + stop, its run
    clipped to [lo, hi]; the three are the batch's own, filled in place, so a
    batch holds three arrays.

    Quotient-major: for each a1 the primes whose run meets [lo, hi] form one
    slice of the primes, found for every a1 by one vectorised search. A run
    starts above a1^2, so a1 never exceeds sqrt(hi). With a depth, a1 yields only the runs
    below (a1 + depth + 1)^2, the n whose depth + 1 largest quotients include a1.
    It asks arith.shared_sieve for the primes to heavy_reach(lo, hi, cut, depth), the
    largest bound it searches, so no caller needs to know which primes a search reads;
    past the sieve cap, SieveSizeError when the first batch is asked for.
    """
    quotients, lower, upper = _searched(lo, hi, cut, depth)
    primes = shared_sieve(int(upper.max(initial=0))).array
    first = np.searchsorted(primes, lower)
    last = np.searchsorted(primes, upper, "right")
    for a1, p in _ragged_batches(quotients, first, np.maximum(last - first, 0)):
        # fill the batch's own three arrays in place, and let go of them before the next
        np.take(primes, p, out=p)
        stop = p * np.add(a1, 1, out=a1)  # (a1+1)p, with a1 + 1 left in a1
        begin = np.subtract(stop, a1, out=a1)
        np.maximum(np.add(begin, 1 - lo, out=begin), 0, out=begin)
        np.minimum(np.subtract(stop, lo + cut, out=stop), hi - lo + 1, out=stop)
        yield p, begin, stop
        del a1, p, begin, stop


def _run_counts(lo: int, hi: int) -> np.ndarray:
    """For each n in [lo, hi], how many runs of heavy_runs(lo, hi) hold n.

    That is omega_+(n), the number of heavy primes above sqrt(n): a run
    holds only n < (a1+1)p <= p^2. The counts fit int16: the
    runs of one a1, each the a1 indices below a multiple of a1 + 1, are disjoint,
    and a1 <= isqrt(hi) <= isqrt(2 * DEFAULT_SIEVE_CAP + 1) = 11,585 < 2^15.
    """
    length = hi - lo + 1
    delta = np.zeros(length + 1, dtype=np.int16)
    for _, begin, stop in heavy_runs(lo, hi):
        np.add.at(delta, begin, np.int16(1))  # a Python 1 takes a path 20x slower
        np.subtract.at(delta, stop, np.int16(1))
        del begin, stop  # before heavy_runs builds the next batch
    return np.cumsum(delta[:length], dtype=np.int16, out=delta[:length])


class PrimePairs(NamedTuple):
    """Primes attached to each n in [lo, hi], as int64 pair arrays (n, p)
    ascending in n, then in p. Both routes give the supports of dd(n) this
    way, and every part of a support is one mask over its pairs: minus (p
    below sqrt(n), plus above; p = sqrt(n) never qualifies), shared (p
    divides n, coprime does not; radical(n) // shared is the complement)
    and kept(k). A family's value at n is the int product of the primes
    its mask keeps there: tuples() lists them, products() multiplies them."""

    lo: int
    hi: int
    n: np.ndarray
    p: np.ndarray

    @property
    def minus(self) -> np.ndarray:
        # p * p < n without the square, which wraps in int64 past p = 3.04e9
        return self.p <= (self.n - 1) // self.p

    @property
    def shared(self) -> np.ndarray:
        return self.n % self.p == 0

    def kept(self, k: int | np.ndarray) -> np.ndarray:
        """p divides none of n, ..., n + k - 1: the primes of db_k(n + k - 1, k), k >= 1."""
        return (self.n + k - 1) % self.p >= k

    def window(self, lo: int, hi: int) -> "PrimePairs":
        """The pairs of lo <= n <= hi, a subrange of [self.lo, self.hi]."""
        a, b = self.n.searchsorted((lo, hi + 1))
        return PrimePairs(lo, hi, self.n[a:b], self.p[a:b])

    def tuples(self, mask: np.ndarray | None = None) -> list[tuple[int, ...]]:
        """For each n in [lo, hi], the ascending primes of its pairs that mask keeps."""
        n, p = (self.n, self.p) if mask is None else (self.n[mask], self.p[mask])
        ends = np.cumsum(np.bincount(n - self.lo, minlength=self.hi - self.lo + 1)).tolist()
        primes = p.tolist()
        return [tuple(primes[a:b]) for a, b in zip([0, *ends], ends)]

    def products(self, mask: np.ndarray | None = None) -> list[int]:
        """For each n in [lo, hi], the product of the primes that mask keeps."""
        return [math.prod(ps) for ps in self.tuples(mask)]


def support_at(n: int) -> PrimePairs:
    """qualifying_primes(n) as the pairs of the one index n: p is the very array it returns."""
    p = qualifying_primes(n)
    return PrimePairs(n, n, np.full(p.size, n, dtype=np.int64), p)


def _sorted_pairs(lo: int, hi: int, *parts) -> PrimePairs:
    """Pairs (lo + offset, p), p <= hi, by index then prime, from the keys offset * (hi + 1) + p
    in any order, in arrays that the iterables parts yield: one sort, then a split in place.
    Parts that yield as they go peak at the keys and one copy of them, the size of the pairs."""
    keys = np.concatenate([np.zeros(0, dtype=np.int64), *(key for part in parts for key in part)])
    keys.sort()
    n = keys // (hi + 1)
    keys %= hi + 1
    return PrimePairs(lo, hi, np.add(n, lo, out=n), keys)


def _small_runs(lo: int, hi: int):
    """Yield the runs of heavy indices from p^2 on of the primes p <= isqrt(hi) that meet
    [lo, hi], as arrays (p, begin, stop): p is heavy at lo + begin <= n < lo + stop. The
    primes come from arith.shared_sieve, to isqrt(hi).

    n = tp + r with t = n // p >= p has the digit sum s_p(t) + r, so p is heavy on the
    one run [(t+1)p - min(s_p(t), p), (t+1)p - 1] of each t; below p^2, heavy_runs() has them.
    """
    small = shared_sieve(isqrt(hi)).primes_in(2, isqrt(hi))
    first = np.maximum(lo // small, small)
    for p, t in _ragged_batches(small, first, hi // small - first + 1):
        stop = (t + 1) * p - lo  # the run ends at (t+1)p - 1
        begin = stop - np.minimum(digit_sums(t, p), p)
        yield p, np.clip(begin, 0, hi - lo + 1), np.minimum(stop, hi - lo + 1)


def support_block(lo: int, hi: int) -> PrimePairs:
    """The supports of every n in [lo, hi], from runs alone: heavy_runs() for every prime
    below its square, _small_runs() for those up to isqrt(hi) above, each keyed as it comes."""
    if lo < 1:
        raise ValueError(f"need lo >= 1, got {lo}")
    keys = (
        offset * (hi + 1) + owner
        for p, begin, stop in chain(heavy_runs(lo, hi), _small_runs(lo, hi))
        for owner, offset in _ragged_batches(p, begin, stop - begin)
    )
    return _sorted_pairs(lo, hi, keys)


def support_blocks(lo: int, hi: int) -> Iterator[PrimePairs]:
    """The supports of n = lo, ..., hi, one block of _SUPPORT_BLOCK indices at a time."""
    shared_sieve((hi + 1) // 2)  # once, for every block
    for b0 in range(lo, hi + 1, _SUPPORT_BLOCK):
        yield support_block(b0, min(b0 + _SUPPORT_BLOCK - 1, hi))


def _factors(lo: int, hi: int) -> PrimePairs:
    """The pairs (m, q) of each distinct prime q of each m in [lo, hi], lo >= 1, by
    division alone: with every power of the primes up to isqrt(hi) divided out of m,
    what is left is 1 or m's one prime above isqrt(hi); the small q's m are _multiples."""
    small = shared_sieve(isqrt(hi)).primes_in(2, isqrt(hi))
    rest = np.arange(lo, hi + 1, dtype=np.int64)
    for p in small.tolist():
        power = p
        while power <= hi:
            rest[-lo % power :: power] //= p
            power *= p
    above, step = np.flatnonzero(rest > 1), hi + 1
    multiples, count = _multiples(lo, hi, small)
    keys = (multiples - lo) * step + np.repeat(small, count)
    return _sorted_pairs(lo, hi, [keys, above * step + rest[above]])


def dd(n: int) -> int:
    """Denominator of B_n(x) - B_n: the full digit-sum prime product."""
    return product(qualifying_primes(n))


def dd_split_sqrt(n: int) -> tuple[int, int]:
    """Split dd(n) into the sub-products below and above sqrt(n)."""
    support = support_at(n)
    return product(support.p[support.minus]), product(support.p[~support.minus])


def dd_split_divisibility(n: int) -> tuple[int, int, int]:
    """Split by divisibility: (shared, coprime, complement).

    shared holds qualifying primes dividing n, coprime the qualifying primes
    not dividing n, and complement the primes of n that fail the digit test;
    shared * complement is the squarefree kernel of n.
    """
    support = support_at(n)
    shared = product(support.p[support.shared])
    return shared, product(support.p[~support.shared]), radical(n) // shared


def dn(n: int) -> int:
    """Denominator of the Bernoulli number B_n.

    Even n follows von Staudt-Clausen: the product of primes p with p-1
    dividing n, the divisors of n built from its prime_divisors. B_1 = -1/2
    gives dn(1) = 2, and B_n = 0 for odd n >= 3 makes those denominators 1.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if n == 1:
        return 2
    if n % 2:
        return 1
    divisors = [1]
    for p in prime_divisors(n):
        powers = [p]
        while n % (powers[-1] * p) == 0:
            powers.append(powers[-1] * p)
        divisors += [d * q for d in divisors for q in powers]
    return product(d + 1 for d in divisors if is_prime(d + 1))


def db(n: int) -> int:
    """Denominator of B_n(x): lcm(dd(n + 1), radical(n + 1))."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    return math.lcm(dd(n + 1), radical(n + 1))


def ds(n: int) -> int:
    """Denominator of the power-sum polynomial: (n+1) * dd(n+1), not squarefree."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    return (n + 1) * dd(n + 1)


def db_k(n: int, k: int) -> int:
    """Denominator of the k-th derivative of B_n(x).

    For n <= k the derivative is constant or zero, hence integral. Otherwise
    it equals (n)_k * B_{n-k}(x) up to lower derivatives, and the surviving
    denominator is the part of the support at n-k+1 whose primes divide
    none of n-k+1, ..., n: the mask kept(k) of support_at(n - k + 1).
    """
    if n < 1 or k < 1:
        raise ValueError(f"n and k must be positive, got ({n}, {k})")
    support = support_at(max(n - k + 1, 1))  # dd(1) = 1, so db_k(n, k) = 1 for n <= k
    return product(support.p[support.kept(k)])


def omega_dd_plus(n: int) -> int:
    """Number of primes above sqrt(n) in dd(n)."""
    return int(np.count_nonzero(~support_at(n).minus))


# name: (shift, values); values(block, k) gives the family at n = m - shift for
# each m of a support block. db_k's shift of 1 becomes 1 - k; values None marks
# the two families that read no support.
_SEQUENCES = {
    "dd": (0, lambda b, k: b.products()),
    "dn": (0, None),
    "db": (1, lambda b, k: [r * c for r, c in zip(_kernels(b), b.products(~b.shared))]),
    "ds": (1, lambda b, k: [m * d for m, d in enumerate(b.products(), b.lo)]),
    "dd_plus": (0, lambda b, k: b.products(~b.minus)),
    "dd_minus": (0, lambda b, k: b.products(b.minus)),
    "dd_coprime": (0, lambda b, k: b.products(~b.shared)),
    "dd_shared": (0, lambda b, k: b.products(b.shared)),
    "dd_complement": (0, lambda b, k: [r // s for r, s in zip(_kernels(b), b.products(b.shared))]),
    "omega_plus": (0, None),
    "db_k": (1, lambda b, k: b.products(b.kept(k))),
}
SEQUENCES = tuple(_SEQUENCES)


def _kernels(block: PrimePairs) -> list[int]:
    """radical(m) for each m of the block, the product of its _factors pairs: at most m, in int64."""
    factors, rad = _factors(block.lo, block.hi), np.ones(block.hi - block.lo + 1, dtype=np.int64)
    np.multiply.at(rad, factors.n - block.lo, factors.p)
    return rad.tolist()


def sequence(name: str, lo: int, hi: int, k: int | None = None) -> Iterator[int]:
    """One family's values for n = lo, ..., hi, read off support_blocks()
    over the range; omega_plus is the run count, and dn needs no support.

    k is the derivative order of db_k, whose value at n reads the support at
    n - k + 1; it is 1 wherever that index lies below 1, as n <= k there.
    Bad arguments raise ValueError at the call, worded for the seq command; so does
    a range past the sieve cap, or for dn past is_prime's bound (dn(hi) tests hi + 1).
    """
    if name not in _SEQUENCES:
        raise ValueError(f"unknown sequence {name!r}")
    if name == "db_k" and (k is None or k < 1):
        raise ValueError("seq db_k requires --k" if k is None else f"db_k needs k >= 1, got {k}")
    if name != "db_k" and k is not None:
        raise ValueError(f"--k applies only to db_k, not {name}")
    first = 0 if name in ("db", "ds") else 1
    if lo < first:
        raise ValueError(f"{name} is defined from n = {first}, got lo = {lo}")
    if lo > hi:
        raise ValueError(f"need lo <= hi, got {lo} > {hi}")
    if name == "dn":  # the one family that reads no sieve
        is_prime(hi + 1)  # past its exact bound, refused before any value
        return map(dn, range(lo, hi + 1))
    shift = _SEQUENCES[name][0] - (k if name == "db_k" else 0)
    shared_sieve((hi + shift + 1) // 2)  # the primes to half the top index read
    if name == "omega_plus":  # one chunk's counts at a time, not the range's
        starts = range(lo, hi + 1, DEFAULT_CHUNK_SIZE)
        return (v for s in starts for v in _run_counts(s, min(s + DEFAULT_CHUNK_SIZE - 1, hi)).tolist())
    return _values(name, lo, hi, shift, k)


def _values(name: str, lo: int, hi: int, shift: int, k: int | None) -> Iterator[int]:
    yield from [1] * (min(hi, -shift) - lo + 1)
    for block in support_blocks(max(lo + shift, 1), hi + shift):
        yield from _SEQUENCES[name][1](block, k)


@dataclass(frozen=True)
class DenomProfile:
    """Every denominator quantity attached to one index n."""

    n: int
    dd: int
    dd_minus: int
    dd_plus: int
    dd_shared: int
    dd_coprime: int
    dd_complement: int
    dn: int
    db: int
    ds: int
    omega_plus: int
    rad_n: int
    rad_n1: int

    @property
    def in_rad_set(self) -> bool:
        """Whether dd(n) equals rad(n + 1), the squarefree kernel of n + 1."""
        return self.dd == self.rad_n1

    def validate(self, support: PrimePairs) -> None:
        """Check the decomposition identities tying the fields together, and
        omega_plus against support, the support of n."""
        ok = (
            self.dd == self.dd_minus * self.dd_plus
            and self.dd == self.dd_shared * self.dd_coprime
            and self.rad_n == self.dd_shared * self.dd_complement
            and self.omega_plus == np.count_nonzero(~support.minus)
            and self.omega_plus * self.omega_plus < self.n
            and self.db == math.lcm(self.dd, self.dn)
        )
        if not ok:
            raise ValueError(f"inconsistent denominator profile at n={self.n}")


def profile(n: int) -> DenomProfile:
    """Assemble the full denominator profile for one index, validated.

    The large products are multiplied out once: dd from its two sqrt parts,
    its coprime part by dividing out the shared one, db and ds from dd(n + 1),
    with each radical trial-divided once, after both supports, so an n past
    the sieve cap is refused before any trial division."""
    shared_sieve(isqrt(n + 1))  # once, for both supports
    support, support_next = support_at(n), qualifying_primes(n + 1)
    rad_n, rad_n1 = radical(n), radical(n + 1)
    dd_minus, dd_plus = product(support.p[support.minus]), product(support.p[~support.minus])
    dd, dd_shared = dd_minus * dd_plus, product(support.p[support.shared])
    dd_next = product(support_next)
    prof = DenomProfile(
        n=n,
        dd=dd,
        dd_minus=dd_minus,
        dd_plus=dd_plus,
        dd_shared=dd_shared,
        dd_coprime=dd // dd_shared,
        dd_complement=rad_n // dd_shared,
        dn=dn(n),
        db=math.lcm(dd_next, rad_n1),
        ds=(n + 1) * dd_next,
        omega_plus=int(np.count_nonzero(~support.minus)),
        rad_n=rad_n,
        rad_n1=rad_n1,
    )
    prof.validate(support)
    return prof
