"""Reference values the benchmark checks the CLI against.

Nothing here imports berndenom. Denominators come from a numpy digit-sum
product over the benchmark's own prime list; set queries and the scan are
checked against published lists.
"""

from __future__ import annotations

import math
import sys

import numpy as np

# A Python >= 3.11 interpreter refuses int <-> str conversions beyond 4300
# digits; the references for large indices are longer than that.
if hasattr(sys, "set_int_max_str_digits"):
    sys.set_int_max_str_digits(0)

# Every n <= 10^7 with no prime p > sqrt(n) whose base-p digit sum of n
# reaches p (the list is conjectured to stop at 192).
EXCEPTIONAL = (
    1, 2, 4, 6, 10, 11, 12, 15, 16, 28, 29, 30, 35, 36, 58, 59, 60,
    69, 70, 78, 79, 80, 174, 190, 191, 192,
)

# Published index sets: S_k holds the n whose k-th derivative of B_n(x) has
# integral coefficients; RAD_SET holds the n with dd(n) = rad(n + 1).
S_K = {
    1: (1, 2, 4, 6, 10, 12, 28, 30, 36, 60),
    2: (
        *range(1, 8), *range(9, 14), 15, 16, 21, 25, *range(28, 32),
        36, 37, 55, 57, 60, 61, 70, 121, 190,
    ),
    3: (
        *range(1, 19), 20, 21, 22, 25, 26, *range(28, 33), *range(35, 39),
        42, 50, 52, *range(55, 59), 60, 61, 62, 66, 70, 71, 72, 78, 80, 92,
        110, 121, 122, 156, 176, 177, 190, 191, 210, 392,
    ),
}
RAD_SET = (3, 5, 8, 9, 11, 27, 29, 35, 59)

PROFILE_FIELDS = (
    "n", "dd", "dd_minus", "dd_plus", "dd_shared", "dd_coprime",
    "dd_complement", "dn", "db", "ds", "omega_plus", "rad_n", "rad_n1",
    "in_rad_set",
)


def primes_upto(limit: int) -> np.ndarray:
    """Every prime <= limit, ascending, as int64."""
    if limit < 2:
        return np.zeros(0, dtype=np.int64)
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    flags[4::2] = False
    for p in range(3, math.isqrt(limit) + 1, 2):
        if flags[p]:
            flags[p * p :: 2 * p] = False
    return np.flatnonzero(flags).astype(np.int64)


def heavy_bound(n: int) -> int:
    """Largest p that can have digit sum of n >= p.

    Above (n + 1) / 2 the expansion is 1, n - p and its digit sum 1 + n - p
    stays below p.
    """
    return (n + 1) // 2


class Reference:
    """Denominator quantities for indices up to max_n + 1."""

    def __init__(self, max_n: int):
        self.primes = primes_upto(max(heavy_bound(max_n + 1), math.isqrt(max_n + 1) + 1, 2))

    def primes_le(self, x: int) -> np.ndarray:
        return self.primes[: np.searchsorted(self.primes, x, side="right")]

    def is_prime(self, m: int) -> bool:
        if m < 2:
            return False
        if m <= self.primes[-1]:
            i = np.searchsorted(self.primes, m)
            return bool(self.primes[i] == m)
        return all(m % int(p) for p in self.primes_le(math.isqrt(m)))

    def heavy(self, n: int) -> list[int]:
        """Ascending primes p with base-p digit sum of n at least p."""
        ps = self.primes_le(heavy_bound(n))
        small = ps[ps * ps <= n]
        large = ps[len(small) :]
        rest = np.full(small.shape, n, dtype=np.int64)
        sums = np.zeros_like(rest)
        while rest.any():
            sums += rest % small
            rest //= small
        two_digit = n // large + n % large
        return small[sums >= small].tolist() + large[two_digit >= large].tolist()

    def rad_primes(self, n: int) -> list[int]:
        out = []
        m = n
        for p in self.primes_le(math.isqrt(n)).tolist():
            if m % p == 0:
                out.append(p)
                while m % p == 0:
                    m //= p
        if m > 1:
            out.append(m)
        return out

    def dn(self, n: int) -> int:
        """Von Staudt-Clausen, with B_1 = -1/2 and B_odd = 0 beyond it."""
        if n == 1:
            return 2
        if n % 2:
            return 1
        divisors = set()
        for d in range(1, math.isqrt(n) + 1):
            if n % d == 0:
                divisors.update((d, n // d))
        return math.prod(d + 1 for d in divisors if self.is_prime(d + 1))

    def dd(self, n: int) -> int:
        return math.prod(self.heavy(n))

    def coprime(self, n: int) -> list[int]:
        return [p for p in self.heavy(n) if n % p]

    def db_k(self, n: int, k: int) -> int:
        if n <= k:
            return 1
        ff = math.perm(n, k - 1)
        return math.prod(p for p in self.coprime(n - k + 1) if ff % p)

    def profile(self, n: int) -> dict[str, str]:
        heavy = self.heavy(n)
        dd = math.prod(heavy)
        plus = [p for p in heavy if p * p > n]
        shared = [p for p in heavy if n % p == 0]
        rad_n = self.rad_primes(n)
        rad_n1 = math.prod(self.rad_primes(n + 1))
        dn = self.dn(n)
        values = {
            "n": n,
            "dd": dd,
            "dd_minus": math.prod(p for p in heavy if p * p < n),
            "dd_plus": math.prod(plus),
            "dd_shared": math.prod(shared),
            "dd_coprime": math.prod(p for p in heavy if n % p),
            "dd_complement": math.prod(p for p in rad_n if p not in shared),
            "dn": dn,
            "db": dd * dn // math.gcd(dd, dn),
            "ds": (n + 1) * self.dd(n + 1),
            "omega_plus": len(plus),
            "rad_n": math.prod(rad_n),
            "rad_n1": rad_n1,
            "in_rad_set": "true" if dd == rad_n1 else "false",
        }
        return {k: str(v) for k, v in values.items()}

    def seq_value(self, name: str, n: int, k: int | None) -> int:
        if name == "dd":
            return self.dd(n)
        if name == "ds":
            return (n + 1) * self.dd(n + 1)
        if name == "dd_plus":
            return math.prod(p for p in self.heavy(n) if p * p > n)
        if name == "dd_coprime":
            return math.prod(self.coprime(n))
        if name == "omega_plus":
            return sum(1 for p in self.heavy(n) if p * p > n)
        if name == "db_k":
            return self.db_k(n, k)
        raise ValueError(f"no reference for seq {name}")
