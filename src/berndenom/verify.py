"""Invariant suites cross-checking the product-formula modules against
independent routes: the rational-polynomial oracle, divisibility and parity
facts, and vectorized digit-sum recomputation.

run_verification runs every family, in FAMILIES order; each checks its
indices in order and reports the first counterexample. The families over
n = 1..limit are array predicates on one block of indices at a time: the
supports come from denom's range route as (n, p) pairs, and a product of
primes is compared as the sorted keys n << _SHIFT | p of its pairs.
lambda-prime-bound reads the same supports and has one verdict per prime up
to limit. The only hook, fault, flips the verdict of one (family, index)
pair so that callers can exercise their failure paths honestly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import islice, pairwise

import numpy as np

from . import denom, oracle, scanner
from .arith import radical, shared_sieve

__all__ = ["FAMILIES", "FamilyResult", "run_verification"]

_SHIFT = 32
_PRIME = (1 << _SHIFT) - 1
"""Pairs are compared as keys n << _SHIFT | p: every prime the tables hold
is at most _PRIME, and every index below 2**31."""


@dataclass(frozen=True)
class FamilyResult:
    family: str
    passed: bool
    checked: int
    witness: int | None


def _keys(pairs: denom.PrimePairs) -> np.ndarray:
    """The ascending keys of the pairs."""
    return pairs.n << _SHIFT | pairs.p


def _window(keys: np.ndarray, lo: int, hi: int, shift: int = 0) -> np.ndarray:
    """The ascending keys at lo <= n <= hi, moved to n - shift: a view when shift is 0."""
    a, b = keys.searchsorted((lo << _SHIFT, (hi + 1) << _SHIFT))
    return keys[a:b] - (shift << _SHIFT) if shift else keys[a:b]


def _multiples(lo: int, hi: int, primes: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """The ascending keys of (m, primes[i]) for each multiple m of steps[i] in [lo, hi]."""
    multiples, count = denom._multiples(lo, hi, steps)
    keys = multiples << _SHIFT | np.repeat(primes, count)
    keys.sort()
    return keys


def _isin(keys: np.ndarray, ascending: np.ndarray) -> np.ndarray:
    if not ascending.size:
        return np.zeros(keys.size, dtype=bool)
    return ascending[np.minimum(ascending.searchsorted(keys), ascending.size - 1)] == keys


def _product(*keys: np.ndarray) -> np.ndarray:
    """The keys of the product of the given products, repeated primes kept."""
    merged = np.concatenate(keys)
    merged.sort(kind="stable")
    return merged


def _lcm(*keys: np.ndarray) -> np.ndarray:
    merged = _product(*keys)
    return merged[np.append(True, merged[1:] != merged[:-1])] if merged.size else merged


def _differ(lo: int, size: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """For each n in [lo, lo + size), whether a and b differ at n, repeated
    keys counted: whether the products they stand for differ."""
    bad = np.zeros(size, dtype=bool)
    if not np.array_equal(a, b):  # only where some comparison fails
        keys, where = np.unique(np.concatenate((a, b)), return_inverse=True)
        surplus = np.bincount(where.ravel(), np.repeat((1, -1), (a.size, b.size)), keys.size)
        bad[(keys[surplus != 0] >> _SHIFT) - lo] = True
    return bad


def _block_verdicts(lo: int, hi: int, out: dict[str, np.ndarray]) -> np.ndarray:
    """Every block family's verdicts at n = lo, ..., hi - 1, written into
    out[family][lo - 1 : hi - 1]; returns the support primes above lambda(n).

    Products at n and at n + 1 (names ending in _next) are keyed at n. The
    supports come from denom's range route, the kernels from the prime
    multiples of a sieve, the complements (the primes of n outside the
    support) from the division of denom._factors, and dn(n) from von
    Staudt-Clausen, independently of denom.dn.
    """
    size, n = hi - lo, np.arange(lo, hi, dtype=np.int64)
    block = denom.support_block(lo, hi)
    s, m = block.window(lo, hi - 1), block.window(lo + 1, hi)
    # p > lambda(n) = (n + 1) // k, k = 2 for odd n and 3 for even n: k * p > n + 1
    beaten = s.p[s.p * (3 - s.n % 2) > s.n + 1]
    keys, factors = _keys(block), _keys(denom._factors(lo, hi))
    complement = factors[~_isin(factors, keys)]
    primes = shared_sieve(hi).primes_in(2, hi)
    kernel = _multiples(lo, hi, primes, primes)
    # p divides dn(n) for even n exactly when p - 1 divides n; dn(1) = 2
    dn = _multiples(lo, hi - 1, primes, np.maximum(primes - 1, 2))
    dn = np.sort(np.append(dn, 1 << _SHIFT | 2)) if lo == 1 else dn

    support, support_next = _window(keys, lo, hi - 1), _window(keys, lo + 1, hi, 1)
    shared, shared_next = s.shared, m.shared  # each mask once; every part is a selection
    coprime, coprime_next = support[~shared], support_next[~shared_next]
    kernel_next = _window(kernel, lo + 1, hi, 1)
    complement_next = _window(complement, lo + 1, hi, 1)
    db = _product(coprime_next, kernel_next)  # db(n): the kernel of n + 1 times its coprime part
    lcm_next = _lcm(support_next, kernel_next)  # also db(n): lcm(dd(n + 1), rad(n + 1))
    next_is_prime = _isin(n + 1, primes)
    hits = lambda keys: np.bincount((keys >> _SHIFT) - lo, minlength=size) > 0
    differ = partial(_differ, lo, size)
    odd = lambda keys: keys[keys >> _SHIFT & 1 == 1]
    stray = ~_isin(kernel_next, support) | ~_isin(kernel_next, coprime)
    decomposed = _product(support[shared], _window(complement, lo, hi - 1))
    triple = _product(coprime_next, support_next[shared_next], complement_next)
    for family, verdict in {
        "decomposition": ~hits(support[s.p * s.p == s.n])
        & ~differ(_window(kernel, lo, hi - 1), decomposed),
        "triple-product": ~differ(db, triple) & ~differ(db, _product(support_next, complement_next))
        & ~differ(db, lcm_next) & ~differ(db, _lcm(support, dn)),
        "dd-odd-iff-power-of-two": ~hits(support[s.p == 2]) == (n & (n - 1) == 0),
        "composite-radical-divides": next_is_prime | ~hits(kernel_next[stray]),
        "odd-index-lcm": (n % 2 == 0) | (n < 3) | ~differ(odd(support), odd(lcm_next)),
        "plus-divides-coprime": ~hits(support[(s.p * s.p > s.n) & shared]),
        "rad-of-power-sum-denom": ~differ(lcm_next, _lcm(coprime_next, kernel_next)),
        "db-even": hits(db[db & _PRIME == 2]),
        "coprime-parity": np.where(
            n == 1, ~hits(coprime), hits(coprime[coprime & _PRIME == 2]) == (n % 2 == 1)
        ),
        "coprime-one-implies-prime": hits(coprime) | next_is_prime,
    }.items():
        out[family][lo - 1 : hi - 1] = verdict
    return beaten


_BLOCK_FAMILIES = (
    "decomposition", "triple-product", "dd-odd-iff-power-of-two", "composite-radical-divides",
    "odd-index-lcm", "plus-divides-coprime", "rad-of-power-sum-denom", "db-even",
    "coprime-parity", "coprime-one-implies-prime",
)
FAMILIES = (
    *_BLOCK_FAMILIES, "derivative-small-primes", "set-nesting", "floor-digit-equivalence",
    "lambda-prime-bound", "oracle-equivalence", "oracle-reflection", "oracle-power-sums",
)
"""Every family, in the order _suite yields them and run_verification reports them."""


def _report(family: str, indices, verdicts, fault: tuple[str, int] | None) -> FamilyResult:
    """The first failing index, counting the one fault flips, and its position."""
    indices = np.asarray(indices, dtype=np.int64)
    failed = ~np.asarray(verdicts, dtype=bool)
    if fault is not None and fault[0] == family:
        failed ^= indices == fault[1]
    where = np.flatnonzero(failed)
    if where.size:
        return FamilyResult(family, False, int(where[0]) + 1, int(indices[where[0]]))
    return FamilyResult(family, True, indices.size, None)


def _support_matches(tables: denom.PrimePairs, n: int) -> bool:
    """The single-index route agrees with the tables' range route at n."""
    return np.array_equal(denom.qualifying_primes(n), tables.window(n, n).p)


def _check_small_primes(tables: denom.PrimePairs, n: int) -> bool:
    """db_k(n, k) for k <= 50 is the mask kept(k) at m = n - k + 1. The
    primes of m's support that divide no factor of the falling factorial
    n (n - 1) ... m are the same primes, found apart from the mask, and
    each of them exceeds k."""
    window = tables.window(max(n - 49, 1), n)
    k = n + 1 - window.n
    falling = np.array(
        [math.perm(n, j) % p != 0 for j, p in zip(k.tolist(), window.p.tolist())], dtype=bool
    )
    return (
        _support_matches(tables, n)
        and np.array_equal(window.kept(k), falling)
        and bool(np.all(window.p[falling] > k[falling]))
    )


def _check_floor_equivalence(p: int, limit: int) -> bool:
    top = min(p * p - 1, limit)
    n = np.arange(p, top + 1, dtype=np.int32 if top < 1 << 31 else np.int64)
    q, r = np.divmod(n, p)
    digit_heavy = q + r >= p
    floor_gap = (n - 1) // (p - 1) > q
    return bool(np.array_equal(digit_heavy, floor_gap))


def _check_oracle_equivalence(tables: denom.PrimePairs, n: int, poly, powers) -> bool:
    """The product formulas agree with the oracle's B_n(x), poly, and S_n(x), powers."""
    if not _support_matches(tables, n):
        return False
    dd, dd_next = tables.window(n, n + 1).products()
    if oracle.denominator_of(poly) != math.lcm(dd_next, radical(n + 1)):  # db(n)
        return False
    if oracle.denominator_of(oracle.drop_constant_term(poly)) != dd:
        return False
    if poly(0).denominator != denom.dn(n):  # B_n(0) = B_n
        return False
    if oracle.denominator_of(powers) != (n + 1) * dd_next:  # ds(n)
        return False
    window = tables.window(max(n - 2, 1), n)  # db_k(n, k) for k <= 3, as above; 1 for n <= k
    for k, db_k in zip((1, 2, 3), window.products(window.kept(n + 1 - window.n))[::-1] + [1, 1]):
        if oracle.denominator_of(oracle.derivative(poly, k)) != db_k:
            return False
    return True


def _suite(limit: int, oracle_limit: int):
    """Each family's (name, indices, verdicts), in FAMILIES order.

    The block families' verdicts at n = 1..limit and lambda-prime-bound's per
    prime come first, from one pass over the blocks. Then come the supports
    of n = 1, ..., max(oracle_limit, 50) + 1 from the range route, of which
    the families that read single indices read one window per index, and for
    k = 1, 2, 3 the indices up to min(limit, 1000) with an integral k-th
    derivative. The oracle families come last, off one walk of the oracle's B_n(x)
    that holds two polynomials at a time: oracle-equivalence at n = 1..oracle_limit,
    oracle-reflection at n = 0..min(oracle_limit, 50) and oracle-power-sums at n = 0..10.
    """
    shared_sieve(max(limit + 1, (max(oracle_limit, 50) + 2) // 2))  # blocks and the oracle tables
    step, top = denom._SUPPORT_BLOCK, limit + 1
    # filled in place: holding each block's arrays to concatenate them fragments the heap
    verdicts = {name: np.zeros(limit, dtype=bool) for name in _BLOCK_FAMILIES}
    beaten = [_block_verdicts(lo, min(lo + step, top), verdicts) for lo in range(1, top, step)]
    primes = shared_sieve(limit).primes_in(2, limit)
    unbeaten = ~np.isin(primes, np.concatenate(beaten))
    tables = denom.support_block(1, max(oracle_limit, 50) + 1)
    members = {k: set(scanner.find_sets(k, min(limit, 1000))) for k in (1, 2, 3)}

    for name in _BLOCK_FAMILIES:
        yield name, range(1, limit + 1), verdicts[name]
    small = range(1, 51)
    yield "derivative-small-primes", small, [_check_small_primes(tables, n) for n in small]
    yield "set-nesting", (1, 2), [members[k] <= members[k + 1] for k in (1, 2)]
    bound = min(limit, 10**4)
    floor = shared_sieve(limit).primes_in(2, bound)
    yield "floor-digit-equivalence", floor, [_check_floor_equivalence(p, bound) for p in floor.tolist()]
    yield "lambda-prime-bound", primes, unbeaten
    equivalent, reflected, summed = [], [], []
    pairs = pairwise(oracle.bernoulli_polynomials())  # B_n(x) and B_(n+1)(x), two at a time
    for n, (poly, poly_next) in enumerate(islice(pairs, max(oracle_limit, 10) + 1)):
        powers = oracle.sum_of_powers(poly_next)  # S_n(x)
        if 1 <= n <= oracle_limit:
            equivalent.append(_check_oracle_equivalence(tables, n, poly, powers))
        if n <= min(oracle_limit, 50):
            reflected.append(poly.substitute_affine(1, -1) == (-1) ** n * poly)
        if n <= 10:
            summed.append(all(powers(m) == sum(j**n for j in range(m)) for m in range(21)))
    yield "oracle-equivalence", range(1, oracle_limit + 1), equivalent
    yield "oracle-reflection", range(min(oracle_limit, 50) + 1), reflected
    yield "oracle-power-sums", range(11), summed


def run_verification(
    limit: int = 1000, oracle_limit: int = 100, fault: tuple[str, int] | None = None
) -> list[FamilyResult]:
    """Run every family in FAMILIES order and return one result per family.

    limit bounds the product-formula checks; oracle_limit bounds the rational
    cross-checks (kept separate because those grow quadratically). The one
    hook is fault=(family, n), which flips that family's verdict at n.
    """
    if limit < 1:
        raise ValueError(f"limit must be positive, got {limit}")
    if oracle_limit < 1:
        raise ValueError(f"oracle limit must be positive, got {oracle_limit}")
    if fault is not None and fault[0] not in FAMILIES:
        raise ValueError(f"unknown verification family {fault[0]!r}")
    return [_report(*family, fault) for family in _suite(limit, oracle_limit)]
