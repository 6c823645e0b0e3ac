"""Shared numeric substrate: base-p digit sums, prime sieving, radicals,
falling factorials, and squarefree prime products.

Everything here is exact integer arithmetic. A PrimeSieve is immutable once
built and safe to share across worker processes; the remaining functions are
pure functions of their inputs.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

__all__ = [
    "DEFAULT_SIEVE_CAP",
    "PrimeSieve",
    "SieveSizeError",
    "SquarefreeProduct",
    "digit_sum",
    "digit_sum_table",
    "falling_factorial",
    "floor_condition",
    "is_prime",
    "lambda_prime_bound",
    "radical",
    "shared_sieve",
    "sieve",
]

DEFAULT_SIEVE_CAP = 1 << 26
"""Largest sieve limit accepted unless the caller raises the budget."""


class SieveSizeError(ValueError):
    """A sieve or scan request exceeds its memory budget or prime coverage."""


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


def digit_sum_table(p: int, limit: int, start: int = 0) -> np.ndarray:
    """Base-p digit sums of every n in [start, limit], as an int64 array."""
    if p < 2:
        raise ValueError(f"base must be at least 2, got {p}")
    if not 0 <= start <= limit:
        raise ValueError(f"need 0 <= start <= limit, got [{start}, {limit}]")
    remaining = np.arange(start, limit + 1, dtype=np.int64)
    total = np.zeros(limit + 1 - start, dtype=np.int64)
    scale = 1
    while scale <= limit:  # one pass per base-p digit of limit
        total += remaining % p
        remaining //= p
        scale *= p
    return total


def floor_condition(n: int, p: int) -> bool:
    """True iff floor((n-1)/(p-1)) > floor(n/p).

    For p*p > n this is equivalent to digit_sum(n, p) >= p. At p*p == n it is
    true even though the digit sum is 1, so callers that work near sqrt(n)
    must exclude that boundary themselves.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if p < 2:
        raise ValueError(f"p must be at least 2, got {p}")
    return (n - 1) // (p - 1) > n // p


def lambda_prime_bound(n: int) -> int:
    """Inclusive cutoff for primes that can satisfy digit_sum(n, p) >= p.

    Equals floor((n+1)/2) for odd n and floor((n+1)/3) for even n; every
    prime above the cutoff has digit sum below p, so product enumerations may
    stop here.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    return (n + 1) // 2 if n % 2 else (n + 1) // 3


def falling_factorial(n: int, k: int) -> int:
    """n * (n-1) * ... * (n-k+1), with the empty product equal to 1."""
    if n < 0 or k < 0:
        raise ValueError(f"arguments must be nonnegative, got ({n}, {k})")
    return math.perm(n, k) if k <= n else 0


_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test (exact for n < 3.3e24)."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = (d & -d).bit_length() - 1
    d >>= r
    for a in _MR_WITNESSES:
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


@dataclass(frozen=True)
class SquarefreeProduct:
    """A squarefree positive integer held as its sorted prime support plus value.

    The empty product is 1. Construct through from_primes() (checks primality)
    or from_known_primes() (trusts sieve output); the raw constructor verifies
    only that the support is strictly increasing and multiplies to the value.
    """

    primes: tuple[int, ...]
    value: int

    def __post_init__(self):
        prod = 1
        last = 1
        for p in self.primes:
            if p <= last:
                raise ValueError("prime support must be strictly increasing")
            last = p
            prod *= p
        if prod != self.value:
            raise ValueError(f"value {self.value} is not the product of {self.primes}")

    @classmethod
    def one(cls) -> "SquarefreeProduct":
        return cls((), 1)

    @classmethod
    def from_primes(cls, primes: Iterable[int]) -> "SquarefreeProduct":
        """Build from arbitrary distinct primes; entries are primality-checked."""
        ps = tuple(sorted(primes))
        for p in ps:
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
        return cls(ps, math.prod(ps))

    @classmethod
    def from_known_primes(cls, primes: Iterable[int]) -> "SquarefreeProduct":
        """Build from ascending primes that came from a sieve; not re-checked."""
        ps = tuple(primes)
        return cls(ps, math.prod(ps))

    @property
    def omega(self) -> int:
        return len(self.primes)

    @property
    def is_one(self) -> bool:
        return not self.primes

    def __int__(self) -> int:
        return self.value

    def __str__(self) -> str:
        return str(self.value)

    def __mul__(self, other: "SquarefreeProduct") -> "SquarefreeProduct":
        if not isinstance(other, SquarefreeProduct):
            return NotImplemented
        if self.is_one:
            return other
        if other.is_one:
            return self
        merged = sorted(self.primes + other.primes)
        for a, b in zip(merged, merged[1:]):
            if a == b:
                raise ValueError(f"factors share the prime {a}; product is not squarefree")
        return SquarefreeProduct(tuple(merged), self.value * other.value)

    def lcm(self, other: "SquarefreeProduct") -> "SquarefreeProduct":
        ps = tuple(sorted(set(self.primes) | set(other.primes)))
        return SquarefreeProduct(ps, math.prod(ps))


def radical(n: int) -> SquarefreeProduct:
    """Squarefree kernel: the product of the distinct primes dividing n."""
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
    return SquarefreeProduct(tuple(primes), math.prod(primes))


@dataclass(frozen=True)
class PrimeSieve:
    """Immutable table of every prime up to limit, strictly increasing."""

    limit: int
    primes: tuple[int, ...]

    def primes_in(self, lo: int, hi: int) -> tuple[int, ...]:
        """All sieved primes p with lo <= p <= hi."""
        if hi > self.limit:
            raise SieveSizeError(
                f"sieve holds primes up to {self.limit}, but primes up to {hi} were requested"
            )
        i = bisect_left(self.primes, lo)
        j = bisect_right(self.primes, hi)
        return self.primes[i:j]

    @cached_property
    def array(self) -> np.ndarray:
        """The primes as an int64 array, built on first use and kept."""
        return np.asarray(self.primes, dtype=np.int64)

    def __contains__(self, n: int) -> bool:
        i = bisect_left(self.primes, n)
        return i < len(self.primes) and self.primes[i] == n

    def __len__(self) -> int:
        return len(self.primes)


def sieve(limit: int, max_limit: int = DEFAULT_SIEVE_CAP) -> PrimeSieve:
    """Sieve of Eratosthenes up to limit (inclusive).

    Refuses limits above max_limit so a mistyped bound fails fast instead of
    allocating gigabytes; pass a larger max_limit to override deliberately.
    """
    if limit < 1:
        raise ValueError(f"sieve limit must be positive, got {limit}")
    if limit > max_limit:
        raise SieveSizeError(
            f"sieve limit {limit} exceeds the budget {max_limit}; "
            "pass max_limit explicitly to allow it"
        )
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return PrimeSieve(limit=limit, primes=tuple(np.flatnonzero(flags).tolist()))


_SHARED: PrimeSieve | None = None


def shared_sieve(min_limit: int) -> PrimeSieve:
    """Process-wide sieve cache, regrown (never mutated) on larger demands."""
    global _SHARED
    if _SHARED is None or _SHARED.limit < min_limit:
        target = max(1 << 16, 1 << max(min_limit - 1, 1).bit_length())
        if target > DEFAULT_SIEVE_CAP:
            target = max(min_limit, DEFAULT_SIEVE_CAP)
        _SHARED = sieve(target)
    return _SHARED
