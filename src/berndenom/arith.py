"""Shared numeric substrate: base-p digit sums, prime sieving, primality
and radicals, with product trees and decimal output that stay subquadratic
for million-digit values. A squarefree value is a plain int: the product of
its primes, multiplied out once.

Everything here is exact integer arithmetic. A PrimeSieve is immutable once
built and safe to share across threads; the remaining functions are pure
functions of their inputs.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

__all__ = [
    "DEFAULT_SIEVE_CAP",
    "PrimeSieve",
    "SieveSizeError",
    "decimal_str",
    "digit_sum",
    "digit_sums",
    "is_prime",
    "prime_divisors",
    "product",
    "radical",
    "shared_sieve",
    "sieve",
]

DEFAULT_SIEVE_CAP = 1 << 26
"""Largest sieve limit accepted, so a mistyped bound fails fast instead of
allocating gigabytes."""


_SEGMENT = 1 << 19
"""Entries per window when a sieve runs in segments: its memory per piece."""


class SieveSizeError(ValueError):
    """A sieve past DEFAULT_SIEVE_CAP, or primes past a PrimeSieve's limit."""


def digit_sum(n: int, p: int) -> int:
    """Sum of the digits of n written in base p; digit_sum(0, p) == 0."""
    if p < 2:
        raise ValueError(f"base must be at least 2, got {p}")
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    total = 0
    while n:
        n, digit = divmod(n, p)
        total += digit
    return total


def digit_sums(n: np.ndarray | int, p: np.ndarray | int) -> np.ndarray:
    """Base-p digit sums of n, elementwise over int64 arrays whose bases may differ
    from entry to entry: one pass per digit of the longest expansion."""
    if np.any(p < 2) or np.any(n < 0):
        raise ValueError("need every base at least 2 and every n nonnegative")
    total = np.zeros(np.broadcast(n, p).shape, dtype=np.int64)
    while np.any(n):
        n, digit = np.divmod(n, p)
        total += digit
    return total


_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# (bound, k): the first k witnesses decide every n below bound. Each bound is
# the least composite strong pseudoprime to those k bases (OEIS A014233;
# Jaeschke 1993, Sorenson & Webster 2017).
_MR_PREFIXES = (
    (2_047, 1),
    (1_373_653, 2),
    (25_326_001, 3),
    (3_215_031_751, 4),
    (2_152_302_898_747, 5),
    (3_474_749_660_383, 6),
    (341_550_071_728_321, 7),
    (3_825_123_056_546_413_051, 9),
    (318_665_857_834_031_151_167_461, 12),
    (3_317_044_064_679_887_385_961_981, 13),
)
_MR_BOUNDS = tuple(bound for bound, _ in _MR_PREFIXES)
_MR_LIMIT = _MR_BOUNDS[-1]  # at and above it, is_prime refuses


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test, exact for n < 3.317e24.

    Uses the shortest prefix of the witnesses 2, 3, ..., 41 proven to decide
    n. At or above 3,317,044,064,679,887,385,961,981, a strong pseudoprime to
    all 13 bases, it raises ValueError rather than answer probabilistically.
    """
    if n >= _MR_LIMIT:
        raise ValueError(f"is_prime is exact only below {_MR_LIMIT}, got {n}")
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    if n < 1681:  # 41 * 41: n has no prime factor up to sqrt(n)
        return True
    d = n - 1
    r = (d & -d).bit_length() - 1
    d >>= r
    count = _MR_PREFIXES[bisect_right(_MR_BOUNDS, n)][1]
    for a in _MR_WITNESSES[:count]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def product(factors: Iterable[int]) -> int:
    """Product of the factors, multiplied pairwise in a balanced tree.

    Multiplying in sequence costs time quadratic in the size of the result;
    pairing operands of equal size lets Karatsuba pay off once a product
    runs to millions of bits, as dd(n) does near n = 10^12.
    """
    xs = list(factors)
    xs = [math.prod(xs[i : i + 16]) for i in range(0, len(xs), 16)]  # few-bit leaves
    while len(xs) > 1:
        xs = [a * b for a, b in zip(xs[::2], xs[1::2])] + xs[len(xs) & ~1 :]
    return xs[0] if xs else 1


_DECIMAL_LEAF_BITS = 1 << 12


def decimal_str(n: int) -> str:
    """str(n), in time subquadratic in the length of n.

    int-to-str is quadratic before Python 3.12: 7 s for the 640,000 digits
    of dd(10^12 + 39). Large n is split in binary halves and recombined in
    the decimal module, whose multiplication is subquadratic.
    """
    if n < 0:
        return "-" + decimal_str(-n)
    if n.bit_length() <= _DECIMAL_LEAF_BITS:
        return str(n)
    import decimal  # here alone: a command that prints no such int never loads it

    powers: dict[int, decimal.Decimal] = {}  # 2**half, one or two per level

    def convert(m: int, bits: int) -> decimal.Decimal:
        if bits <= _DECIMAL_LEAF_BITS:
            return decimal.Decimal(m)
        half = bits >> 1
        if half not in powers:
            powers[half] = decimal.Decimal(2) ** half
        high = m >> half
        return convert(high, bits - half) * powers[half] + convert(m - (high << half), half)

    with decimal.localcontext() as ctx:
        ctx.prec = decimal.MAX_PREC
        ctx.Emax = decimal.MAX_EMAX
        ctx.traps[decimal.Inexact] = True  # exact, or fail loudly
        return str(convert(n, n.bit_length()))


def prime_divisors(n: int) -> tuple[int, ...]:
    """The distinct primes dividing n, ascending, by trial division."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    primes = []
    m = n
    if m % 2 == 0:
        primes.append(2)
        while m % 2 == 0:
            m //= 2
    d = 3
    while d * d <= m:
        if m % d == 0:
            primes.append(d)
            while m % d == 0:
                m //= d
        d += 2
    if m > 1:
        primes.append(m)
    return tuple(primes)


def radical(n: int) -> int:
    """Squarefree kernel: the product of the distinct primes dividing n."""
    return math.prod(prime_divisors(n))


@dataclass(frozen=True, eq=False)
class PrimeSieve:
    """Every prime up to limit, held once as a read-only ascending int64 array;
    primes_in hands out views of it, and the primes property copies it into a tuple."""

    limit: int
    array: np.ndarray

    def __post_init__(self):
        self.array.flags.writeable = False

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(self.array.tolist())

    def primes_in(self, lo: int, hi: int) -> np.ndarray:
        """All sieved primes p with lo <= p <= hi, ascending: a read-only view of array."""
        if hi > self.limit:
            raise SieveSizeError(
                f"sieve holds primes up to {self.limit}, but primes up to {hi} were requested"
            )
        return self.array[self.array.searchsorted(lo) : self.array.searchsorted(hi, "right")]

    def window(self, lo: int, hi: int) -> np.ndarray:
        """Primality of lo, ..., hi as a bool array: the one sieving loop, a segmented
        sieve with the primes up to isqrt(hi) whose memory is the window alone."""
        if not 0 <= lo <= hi + 1:
            raise ValueError(f"need 0 <= lo <= hi + 1, got [{lo}, {hi}]")
        flags = np.ones(hi - lo + 1, dtype=bool)
        flags[: max(2 - lo, 0)] = False
        for p in self.primes_in(2, math.isqrt(max(hi, 0))).tolist():  # the empty window has hi = -1
            flags[max(p * p, -(-lo // p) * p) - lo :: p] = False
        return flags

    def segments(self, lo: int, hi: int) -> Iterator[tuple[int, np.ndarray]]:
        """(start, window(start, ...)) over lo, ..., hi in windows of at most _SEGMENT entries."""
        for start in range(lo, hi + 1, _SEGMENT):
            yield start, self.window(start, min(start + _SEGMENT - 1, hi))


def _prime_count_bound(x: int) -> int:
    """More than pi(x), the number of primes up to x: pi(x) < 1.25506 x / ln x
    for x > 1 (Rosser & Schoenfeld 1962)."""
    return int(1.25506 * x / math.log(x)) + 1 if x > 1 else 0


def _sieved(limit: int) -> PrimeSieve:
    """The primes up to limit, read window by window off those up to isqrt(limit)
    into one array sized by _prime_count_bound and cut to their count in place."""
    root = math.isqrt(limit)
    base = _sieved(root) if root > 1 else PrimeSieve(limit=root, array=np.zeros(0, dtype=np.int64))
    primes = np.empty(_prime_count_bound(limit), dtype=np.int64)
    count = 0
    for start, flags in base.segments(0, limit):
        found = np.flatnonzero(flags)
        if count + found.size > primes.size:
            raise RuntimeError(f"more than {primes.size} primes up to {limit}, past their bound")
        primes[count : count + found.size] = found + start
        count += found.size
    primes.resize(count, refcheck=False)
    return PrimeSieve(limit=limit, array=primes)


def sieve(limit: int) -> PrimeSieve:
    """The primes up to limit (inclusive), at most DEFAULT_SIEVE_CAP, sieved in
    windows of _SEGMENT entries: no array of limit + 1 flags is ever built."""
    if limit < 1:
        raise ValueError(f"sieve limit must be positive, got {limit}")
    if limit > DEFAULT_SIEVE_CAP:  # the one refusal: every command asks for the primes it reads
        raise SieveSizeError(f"sieve limit {limit} exceeds the cap of {DEFAULT_SIEVE_CAP}")
    return _sieved(limit)


_SHARED: PrimeSieve | None = None
_SHARED_LOCK = threading.Lock()


def shared_sieve(min_limit: int) -> PrimeSieve:
    """The one source of primes: a process-wide sieve, rebuilt to exactly max(min_limit, 1)
    when it holds less. It never shrinks, and past DEFAULT_SIEVE_CAP sieve() refuses. The
    check and the build hold one lock, so threads that ask for different bounds at once
    never leave the smaller sieve cached."""
    global _SHARED
    with _SHARED_LOCK:
        if _SHARED is None or _SHARED.limit < min_limit:
            _SHARED = sieve(max(min_limit, 1))
        return _SHARED
