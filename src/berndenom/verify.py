"""Invariant suites cross-checking the product-formula modules against
independent routes: the rational-polynomial oracle, divisibility and parity
facts, and vectorized digit-sum recomputation.

Each family scans its index range in order and reports the first
counterexample. A fault hook can flip the verdict of one (family, index)
pair so that callers can exercise their failure paths honestly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, Iterable, Sequence

import numpy as np

from . import denom, oracle, scanner
from .arith import digit_sum_table, is_prime, radical, shared_sieve

__all__ = ["FAMILIES", "FamilyResult", "run_verification"]


@dataclass(frozen=True)
class FamilyResult:
    family: str
    passed: bool
    checked: int
    witness: int | None


@dataclass
class _Tables:
    """Supports, their parts and kernels for every n up to limit + 1; the
    kernels and dn come from sieves, independently of arith.radical, which
    gives the complements, and of denom.dn."""

    support: list[tuple[int, ...]]
    parts: list[denom.Parts]
    complement: list[tuple[int, ...]]
    rad_primes: list[tuple[int, ...]]
    rad: list[int]
    dd: list[int]
    dn: list[int]
    db: list[int]


def _build_tables(limit: int) -> _Tables:
    top = limit + 1
    primes = shared_sieve(top).primes_in(2, top)
    rad_lists: list[list[int]] = [[] for _ in range(top + 1)]
    for p in primes:
        for m in range(p, top + 1, p):
            rad_lists[m].append(p)
    rad_primes = [tuple(ps) for ps in rad_lists]
    support = [(), *denom.supports(1, top)]
    parts = [denom.Parts((), (), (), ())]
    parts += [denom.split(n, support[n]) for n in range(1, top + 1)]
    complement = [()] + [
        tuple(p for p in radical(n).primes if p not in parts[n].shared) for n in range(1, top + 1)
    ]
    rad = [math.prod(ps) for ps in rad_primes]
    # von Staudt-Clausen: p divides dn(m) for even m exactly when p - 1 divides m
    dn = [1] * (top + 1)
    dn[1] = 2
    for p in primes:
        step = max(p - 1, 2)  # the even multiples of p - 1
        for m in range(step, top, step):
            dn[m] *= p
    return _Tables(
        support=support,
        parts=parts,
        complement=complement,
        rad_primes=rad_primes,
        rad=rad,
        dd=[math.prod(s) for s in support],
        dn=dn,
        db=[1] + [math.prod(parts[n + 1].coprime) * rad[n + 1] for n in range(1, top)] + [1],
    )


class _Context:
    """What the families read: limits, and tables built on first use."""

    def __init__(self, limit: int, oracle_limit: int):
        self.limit = limit
        self.oracle_limit = oracle_limit
        self._members: dict[int, set[int]] = {}

    @cached_property
    def tables(self) -> _Tables:
        return _build_tables(self.limit)

    def members(self, k: int) -> set[int]:
        """Indices up to min(limit, 1000) with an integral k-th derivative."""
        if k not in self._members:
            report = scanner.find_sets(k, min(self.limit, 1000))
            self._members[k] = set(report.members)
        return self._members[k]


def _scan_indices(
    family: str,
    indices: Iterable[int],
    predicate: Callable[[int], bool],
    fault: tuple[str, int] | None,
) -> FamilyResult:
    checked = 0
    for n in indices:
        checked += 1
        ok = predicate(n)
        if fault is not None and fault == (family, n):
            ok = not ok
        if not ok:
            return FamilyResult(family, False, checked, n)
    return FamilyResult(family, True, checked, None)


def _check_decomposition(c: _Context, n: int) -> bool:
    t = c.tables
    qual = set(t.support[n])
    minus, plus, shared, coprime = t.parts[n]
    return (
        qual == set(minus) | set(plus)
        and not (set(minus) & set(plus))
        and qual == set(shared) | set(coprime)
        and not (set(shared) & set(coprime))
        and t.rad[n] == math.prod(shared) * math.prod(t.complement[n])
    )


def _check_triple_product(c: _Context, n: int) -> bool:
    t = c.tables
    m = n + 1
    parts = t.parts[m]
    coprime, complement = math.prod(parts.coprime), math.prod(t.complement[m])
    triple = coprime * math.prod(parts.shared) * complement
    via_kernel = coprime * t.rad[m]
    via_complement = t.dd[m] * complement
    via_lcm = t.dd[m] * t.rad[m] // math.gcd(t.dd[m], t.rad[m])
    via_dn = t.dd[n] * t.dn[n] // math.gcd(t.dd[n], t.dn[n])
    return t.db[n] == triple == via_kernel == via_complement == via_lcm == via_dn


def _check_composite_radical(c: _Context, n: int) -> bool:
    if is_prime(n + 1):
        return True
    kernel = set(c.tables.rad_primes[n + 1])
    return kernel <= set(c.tables.support[n]) and kernel <= set(c.tables.parts[n].coprime)


def _check_odd_lcm(c: _Context, n: int) -> bool:
    if n % 2 == 0 or n < 3:
        return True
    t = c.tables
    return t.dd[n] == t.dd[n + 1] * t.rad[n + 1] // math.gcd(t.dd[n + 1], t.rad[n + 1])


def _check_rad_of_ds(c: _Context, n: int) -> bool:
    t = c.tables
    support = set(t.rad_primes[n + 1]) | set(t.support[n + 1])
    return support == set(t.parts[n + 1].coprime) | set(t.rad_primes[n + 1])


def _check_coprime_parity(c: _Context, n: int) -> bool:
    coprime = c.tables.parts[n].coprime
    if n == 1:
        return coprime == ()
    return (2 in coprime) == (n % 2 == 1)


def _check_small_primes(c: _Context, n: int) -> bool:
    return all(p > k for k in range(1, 51) for p in denom.db_k(n, k).primes)


def _check_floor_equivalence(p: int, limit: int) -> bool:
    hi = min(p * p - 1, limit)
    if hi < p:
        return True
    n = np.arange(p, hi + 1, dtype=np.int64)
    digit_heavy = (n // p + n % p) >= p
    floor_gap = (n - 1) // (p - 1) > n // p
    return bool(np.array_equal(digit_heavy, floor_gap))


def _check_lambda_bound(p: int, limit: int) -> bool:
    lo = 2 * p - 1
    if lo > limit:
        return True
    n = np.arange(lo, limit + 1, dtype=np.int64)
    bound = np.where(n % 2 == 1, (n + 1) // 2, (n + 1) // 3)
    return not bool(np.any((digit_sum_table(p, limit, lo) >= p) & (p > bound)))


def _check_oracle_equivalence(c: _Context, n: int) -> bool:
    poly = oracle.bernoulli_polynomial(n)
    if oracle.denominator_of(poly) != denom.db(n).value:
        return False
    if oracle.denominator_of(oracle.drop_constant_term(poly)) != denom.dd(n).value:
        return False
    if poly(0).denominator != denom.dn(n).value:  # B_n(0) = B_n
        return False
    if oracle.denominator_of(oracle.sum_of_powers_polynomial(n)) != denom.ds(n):
        return False
    for k in (1, 2, 3):
        derived = oracle.derivative(poly, k)
        if oracle.denominator_of(derived) != denom.db_k(n, k).value:
            return False
    return True


def _check_reflection(c: _Context, n: int) -> bool:
    poly = oracle.bernoulli_polynomial(n)
    sign = 1 if n % 2 == 0 else -1
    return poly.substitute_affine(1, -1) == sign * poly


def _check_power_sums(c: _Context, n: int) -> bool:
    poly = oracle.sum_of_powers_polynomial(n)
    total = 0
    for m in range(21):
        if poly(m) != total:
            return False
        total += m**n
    return True


def _upto_limit(c: _Context) -> range:
    return range(1, c.limit + 1)


def _floor_bound(c: _Context) -> int:
    return min(c.limit, 10**4)


# name: (indices(context), predicate(context, index)), in reporting order
_FAMILIES = {
    "decomposition": (_upto_limit, _check_decomposition),
    "triple-product": (_upto_limit, _check_triple_product),
    "dd-odd-iff-power-of-two": (
        _upto_limit,
        lambda c, n: (c.tables.dd[n] % 2 == 1) == (n & (n - 1) == 0),
    ),
    "composite-radical-divides": (_upto_limit, _check_composite_radical),
    "odd-index-lcm": (_upto_limit, _check_odd_lcm),
    "plus-divides-coprime": (
        _upto_limit,
        lambda c, n: set(c.tables.parts[n].plus) <= set(c.tables.parts[n].coprime),
    ),
    "rad-of-power-sum-denom": (_upto_limit, _check_rad_of_ds),
    "db-even": (_upto_limit, lambda c, n: c.tables.db[n] % 2 == 0),
    "coprime-parity": (_upto_limit, _check_coprime_parity),
    "coprime-one-implies-prime": (
        _upto_limit,
        lambda c, n: bool(c.tables.parts[n].coprime) or is_prime(n + 1),
    ),
    "derivative-small-primes": (lambda c: range(1, 51), _check_small_primes),
    "set-nesting": (lambda c: (1, 2), lambda c, k: c.members(k) <= c.members(k + 1)),
    "floor-digit-equivalence": (
        lambda c: shared_sieve(c.limit).primes_in(2, _floor_bound(c)),
        lambda c, p: _check_floor_equivalence(p, _floor_bound(c)),
    ),
    "lambda-prime-bound": (
        lambda c: shared_sieve(c.limit).primes_in(2, c.limit),
        lambda c, p: _check_lambda_bound(p, c.limit),
    ),
    "oracle-equivalence": (lambda c: range(1, c.oracle_limit + 1), _check_oracle_equivalence),
    "oracle-reflection": (lambda c: range(0, min(c.oracle_limit, 50) + 1), _check_reflection),
    "oracle-power-sums": (lambda c: range(0, 11), _check_power_sums),
}
FAMILIES = tuple(_FAMILIES)


def run_verification(
    limit: int = 1000,
    oracle_limit: int = 100,
    families: Sequence[str] | None = None,
    fault: tuple[str, int] | None = None,
) -> list[FamilyResult]:
    """Run the invariant families and return one result per family.

    limit bounds the product-formula checks; oracle_limit bounds the rational
    cross-checks (kept separate because those grow quadratically). families
    selects a subset by name, and fault=(family, n) flips one verdict.
    """
    if limit < 1:
        raise ValueError(f"limit must be positive, got {limit}")
    if oracle_limit < 1:
        raise ValueError(f"oracle limit must be positive, got {oracle_limit}")
    selected = tuple(families) if families is not None else FAMILIES
    for name in selected:
        if name not in FAMILIES:
            raise ValueError(f"unknown verification family {name!r}")
    if fault is not None and fault[0] not in FAMILIES:
        raise ValueError(f"unknown verification family {fault[0]!r}")

    shared_sieve(limit + 2)  # once for every family below
    context = _Context(limit, oracle_limit)
    results = []
    for name in selected:
        indices, predicate = _FAMILIES[name]
        results.append(_scan_indices(name, indices(context), partial(predicate, context), fault))
    return results
