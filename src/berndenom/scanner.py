"""High-throughput range scans over the primes above sqrt(n).

The per-index digit-sum products invert cleanly: a prime p contributes to an
index n < p*p exactly when n = a1*p + a0 with a1 >= 1 and a0 + a1 >= p, so
the qualifying n form, for each pair (p, a1) with a1 < p, the run
[(a1+1)p - a1, (a1+1)p - 1] just before the multiple (a1 + 1) * p. Scans
accumulate run boundaries into a difference array instead of testing every
(n, p) pair; one cumulative sum then yields the counts for an entire chunk.

The pairs meeting a chunk [lo, hi] are enumerated quotient-major, with no
Python loop over primes: for each a1, the primes p with a1 < p whose run
meets the chunk are the slice of the prime array between
max(a1 + 1, ceil((lo+1)/(a1+1))) and floor((hi+a1)/(a1+1)), found for every
a1 by one vectorised search. Since a1 < p puts the run's start above a1^2,
a1 never exceeds sqrt(hi). The slices expand into pairs in batches of at
most _RUN_BATCH runs, so a chunk's transient memory is O(chunk + batch)
however many runs it holds.

Chunks are embarrassingly parallel, merge deterministically, and persist to
a line-delimited JSON checkpoint so interrupted scans resume byte-identically.
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from math import isqrt
from typing import Iterable, Sequence

import numpy as np

from .arith import PrimeSieve, SieveSizeError, radical, shared_sieve
from .arith import sieve as build_sieve
from .denom import db_k, dd, falling_factorial

__all__ = [
    "CheckpointError",
    "ChunkRecord",
    "DEFAULT_CHUNK_SIZE",
    "KappaStats",
    "ScanChunk",
    "ScanConfig",
    "ScanResult",
    "ScanState",
    "SetReport",
    "checkpoint_resume",
    "checkpoint_save",
    "chunk_checksum",
    "find_rad_set",
    "find_sets",
    "kappa_ratio",
    "merge_chunks",
    "run_scan",
    "scan_omega_plus",
]

DEFAULT_CHUNK_SIZE = 1 << 20
CHECKPOINT_VERSION = 1

_COUNTER_MAX = (1 << 16) - 1
_RUN_BATCH = 1 << 18
"""Most runs handed to one bincount, so transient memory is O(chunk + batch)."""


class CheckpointError(RuntimeError):
    """Checkpoint file disagrees with the requested scan or is corrupt."""


def chunk_checksum(lo: int, hi: int, exceptional: Sequence[int]) -> str:
    """Digest of a chunk's persisted results (bounds plus exceptional list)."""
    payload = "omega-scan:%d:%d:%s" % (lo, hi, ",".join(map(str, exceptional)))
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


@dataclass(frozen=True, eq=False)
class ScanChunk:
    """Scan results for the inclusive index range [lo, hi].

    omega_counts[i] is the number of primes above sqrt(lo + i) whose base-p
    digit sum of lo + i reaches p; exceptional lists the indices where that
    count is zero.
    """

    lo: int
    hi: int
    omega_counts: np.ndarray
    exceptional: tuple[int, ...]
    checksum: str


def _ragged_batches(keys: np.ndarray, first: np.ndarray, count: np.ndarray):
    """Expand group g into the pairs (keys[g], first[g] + i) for 0 <= i < count[g].

    The pairs of all groups, in order, are yielded as (key, value) arrays of
    at most _RUN_BATCH entries each; a group may straddle two batches.
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
        base = first[g0:g1] + skip - (np.cumsum(take) - take)
        yield np.repeat(keys[g0:g1], take), np.repeat(base, take) + np.arange(b1 - b0)


def scan_omega_plus(lo: int, hi: int, sieve: PrimeSieve | None = None) -> ScanChunk:
    """Count, for every n in [lo, hi], the primes p > sqrt(n) with digit sum >= p."""
    if lo < 1 or lo > hi:
        raise ValueError(f"need 1 <= lo <= hi, got [{lo}, {hi}]")
    need = (hi + 1) // 2
    sv = shared_sieve(max(need, 2)) if sieve is None else sieve
    if sv.limit < need:
        raise SieveSizeError(
            f"sieve holds primes up to {sv.limit}, but scanning to {hi} needs {need}"
        )

    # Quotient-major: for each a1, the primes p > a1 whose a1-run meets
    # [lo, hi] form one slice of the prime array, and no pair has a1 > sqrt(hi).
    primes = sv.array
    quotients = np.arange(1, isqrt(hi) + 1, dtype=np.int64)
    lower = np.maximum(quotients + 1, -(-(lo + 1) // (quotients + 1)))
    first = np.searchsorted(primes, lower)
    last = np.searchsorted(primes, (hi + quotients) // (quotients + 1), "right")

    length = hi - lo + 1
    delta = np.zeros(length + 1, dtype=np.int64)
    for a1, index in _ragged_batches(quotients, first, np.maximum(last - first, 0)):
        top = (a1 + 1) * primes[index]
        delta += np.bincount(np.maximum(top - a1, lo) - lo, minlength=length + 1)
        delta -= np.bincount(np.minimum(top - 1, hi) - lo + 1, minlength=length + 1)
    counts = np.cumsum(delta[:length], out=delta[:length])

    if int(counts.max(initial=0)) > _COUNTER_MAX:
        raise OverflowError(f"omega counter overflow in [{lo}, {hi}]")
    exceptional = tuple((np.flatnonzero(counts == 0) + lo).tolist())
    return ScanChunk(
        lo=lo,
        hi=hi,
        omega_counts=counts.astype(np.uint16),
        exceptional=exceptional,
        checksum=chunk_checksum(lo, hi, exceptional),
    )


def merge_chunks(chunks: Iterable[ScanChunk]) -> ScanChunk:
    """Fold adjacent chunks into one; the tiling must be contiguous."""
    ordered = sorted(chunks, key=lambda c: c.lo)
    if not ordered:
        raise ValueError("nothing to merge")
    for left, right in zip(ordered, ordered[1:]):
        if right.lo != left.hi + 1:
            raise ValueError(
                f"chunks [{left.lo}, {left.hi}] and [{right.lo}, {right.hi}] do not tile"
            )
    lo, hi = ordered[0].lo, ordered[-1].hi
    exceptional = tuple(n for c in ordered for n in c.exceptional)
    return ScanChunk(
        lo=lo,
        hi=hi,
        omega_counts=np.concatenate([c.omega_counts for c in ordered]),
        exceptional=exceptional,
        checksum=chunk_checksum(lo, hi, exceptional),
    )


def _plus_prime_lists(limit: int, sieve: PrimeSieve) -> list[list[int]]:
    """lists[n] = ascending primes p > sqrt(n) with digit_sum(n, p) >= p, n <= limit."""
    need = (limit + 1) // 2
    if sieve.limit < need:
        raise SieveSizeError(
            f"sieve holds primes up to {sieve.limit}, but limit {limit} needs {need}"
        )
    lists: list[list[int]] = [[] for _ in range(limit + 1)]
    if limit < 3:
        return lists
    for p in sieve.primes_in(2, need):
        a1_max = min(p - 1, (limit - p) // (p - 1))
        for a1 in range(1, a1_max + 1):
            end = min(a1 * p + p - 1, limit)
            for n in range(a1 * (p - 1) + p, end + 1):
                lists[n].append(p)
    return lists


@dataclass(frozen=True)
class SetReport:
    """Members of one computed index set; k is the derivative order (0 marks
    the radical-match set, which is not tied to a derivative)."""

    k: int
    limit: int
    members: tuple[int, ...]


def find_sets(k: int, limit: int, sieve: PrimeSieve | None = None) -> SetReport:
    """All n <= limit whose k-th Bernoulli-polynomial derivative is integral.

    Indices n <= k give a constant or vanishing derivative and are members
    outright. Beyond that, membership forces every prime above sqrt(n-k+1)
    with a heavy digit sum to divide the falling factorial (n)_{k-1}; that
    prefilter discards almost every index, and the survivors are confirmed
    with the full db_k product before being reported.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if limit < 1:
        raise ValueError(f"limit must be positive, got {limit}")
    sv = shared_sieve(max((limit + 2) // 2, 2)) if sieve is None else sieve
    members = list(range(1, min(k, limit) + 1))
    plus_lists = _plus_prime_lists(max(limit - k + 1, 1), sv)
    for n in range(k + 1, limit + 1):
        ff = falling_factorial(n, k - 1)
        if all(ff % p == 0 for p in plus_lists[n - k + 1]):
            if db_k(n, k, sv).is_one:
                members.append(n)
    return SetReport(k=k, limit=limit, members=tuple(members))


def find_rad_set(limit: int, sieve: PrimeSieve | None = None) -> SetReport:
    """All n <= limit where dd(n) equals the squarefree kernel of n + 1."""
    if limit < 1:
        raise ValueError(f"limit must be positive, got {limit}")
    sv = shared_sieve(max(limit + 1, 2)) if sieve is None else sieve
    if sv.limit < limit + 1:
        raise SieveSizeError(
            f"sieve holds primes up to {sv.limit}, but the kernel table needs {limit + 1}"
        )

    kernels = np.ones(limit + 2, dtype=np.int64)
    for p in sv.primes_in(2, limit + 1):
        kernels[p::p] *= p

    plus_lists = _plus_prime_lists(limit, sv)
    members = []
    for n in range(1, limit + 1):
        value = 1
        for p in sv.primes_in(2, isqrt(n)):
            if p * p < n:
                s = 0
                m = n
                while m:
                    m, digit = divmod(m, p)
                    s += digit
                if s >= p:
                    value *= p
        for p in plus_lists[n]:
            value *= p
        if value == int(kernels[n + 1]):
            # candidate came from the fast table; confirm via the denom module
            if dd(n, sv).value == radical(n + 1).value:
                members.append(n)
    return SetReport(k=0, limit=limit, members=tuple(members))


@dataclass(frozen=True)
class KappaStats:
    """Summary of omega(dd_plus(n)) * ln(n) / sqrt(n) over a window."""

    lo: int
    hi: int
    mean: float
    minimum: float
    maximum: float


def kappa_ratio(lo: int, hi: int, sieve: PrimeSieve | None = None) -> KappaStats:
    """Mean, min, and max of the normalized prime count over [lo, hi]."""
    if lo < 2:
        raise ValueError(f"window must start at 2 or later, got {lo}")
    chunk = scan_omega_plus(lo, hi, sieve)
    n = np.arange(lo, hi + 1, dtype=np.float64)
    ratios = chunk.omega_counts.astype(np.float64) * np.log(n) / np.sqrt(n)
    return KappaStats(
        lo=lo,
        hi=hi,
        mean=float(ratios.mean()),
        minimum=float(ratios.min()),
        maximum=float(ratios.max()),
    )


@dataclass(frozen=True)
class ScanConfig:
    """Identity of one scan: range plus chunking; hashed into checkpoints."""

    lo: int
    hi: int
    chunk_size: int

    def header(self) -> dict:
        return {
            "berndenom_checkpoint": CHECKPOINT_VERSION,
            "kind": "omega_scan",
            "lo": self.lo,
            "hi": self.hi,
            "chunk_size": self.chunk_size,
        }

    def config_hash(self) -> str:
        blob = json.dumps(self.header(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("ascii")).hexdigest()

    def chunk_ranges(self) -> list[tuple[int, int]]:
        return [
            (lo, min(lo + self.chunk_size - 1, self.hi))
            for lo in range(self.lo, self.hi + 1, self.chunk_size)
        ]


@dataclass(frozen=True)
class ChunkRecord:
    """The persisted results of one completed chunk."""

    lo: int
    hi: int
    exceptional: tuple[int, ...]
    checksum: str


@dataclass
class ScanState:
    """A scan in progress: configuration plus completed chunk records."""

    config: ScanConfig
    records: dict[int, ChunkRecord] = field(default_factory=dict)
    complete: bool = False


def _dump(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def checkpoint_save(path, state: ScanState) -> None:
    """Write the whole checkpoint atomically (temp file plus rename)."""
    path = os.fspath(path)
    lines = [_dump(state.config.header())]
    for rec in sorted(state.records.values(), key=lambda r: r.lo):
        lines.append(
            _dump(
                {
                    "lo": rec.lo,
                    "hi": rec.hi,
                    "exceptional": list(rec.exceptional),
                    "checksum": rec.checksum,
                }
            )
        )
    if state.complete:
        lines.append(_dump({"complete": True, "config_hash": state.config.config_hash()}))
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
    os.replace(tmp, path)


def checkpoint_resume(path, config: ScanConfig) -> ScanState:
    """Load and validate a checkpoint; a missing or empty file starts fresh."""
    state = ScanState(config=config)
    path = os.fspath(path)
    if not os.path.exists(path):
        return state
    with open(path, "r", encoding="ascii") as fh:
        raw = fh.read()
    if not raw.strip():
        warnings.warn(f"checkpoint {path} is empty; starting fresh", stacklevel=2)
        return state

    lines = raw.splitlines()
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"unreadable checkpoint header: {exc}") from exc
    if not isinstance(header, dict) or header.get("berndenom_checkpoint") != CHECKPOINT_VERSION:
        raise CheckpointError("unsupported checkpoint version")
    if header != config.header():
        raise CheckpointError("checkpoint was written for a different scan configuration")

    grid = dict(config.chunk_ranges())
    for line in lines[1:]:
        if not line.strip():
            continue
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CheckpointError(f"corrupt checkpoint record: {exc}") from exc
        if "complete" in payload:
            if payload.get("config_hash") != config.config_hash():
                raise CheckpointError("completion marker carries a foreign config hash")
            state.complete = True
            continue
        try:
            lo = int(payload["lo"])
            hi = int(payload["hi"])
            exceptional = tuple(int(x) for x in payload["exceptional"])
            checksum = str(payload["checksum"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"malformed checkpoint record: {line!r}") from exc
        if grid.get(lo) != hi:
            raise CheckpointError(f"record [{lo}, {hi}] does not match the chunk grid")
        if lo in state.records:
            raise CheckpointError(f"duplicate record for the chunk starting at {lo}")
        if chunk_checksum(lo, hi, exceptional) != checksum:
            raise CheckpointError(f"checksum mismatch in chunk [{lo}, {hi}]")
        state.records[lo] = ChunkRecord(lo, hi, exceptional, checksum)

    if state.complete and len(state.records) != len(grid):
        raise CheckpointError("checkpoint marked complete but chunks are missing")
    return state


@dataclass(frozen=True)
class ScanResult:
    """Final report of a full scan from 1 to limit."""

    limit: int
    chunk_size: int
    exceptional: tuple[int, ...]
    digest: str
    chunks: int


_WORKER_SIEVE: PrimeSieve | None = None


def _worker_init(prime_limit: int) -> None:
    global _WORKER_SIEVE
    _WORKER_SIEVE = build_sieve(prime_limit)


def _scan_range(task: tuple[int, int]) -> ChunkRecord:
    lo, hi = task
    chunk = scan_omega_plus(lo, hi, _WORKER_SIEVE)
    return ChunkRecord(lo, hi, chunk.exceptional, chunk.checksum)


def run_scan(
    limit: int,
    *,
    threads: int = 1,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    checkpoint_path=None,
    sieve: PrimeSieve | None = None,
) -> ScanResult:
    """Scan [1, limit] in chunks, optionally in parallel and checkpointed.

    The report depends only on (limit, chunk_size); thread count, interruption,
    and resumption leave it bit-for-bit unchanged.
    """
    if limit < 1:
        raise ValueError(f"limit must be positive, got {limit}")
    if threads < 1:
        raise ValueError(f"threads must be positive, got {threads}")
    if chunk_size < 1:
        raise ValueError(f"chunk size must be positive, got {chunk_size}")

    config = ScanConfig(lo=1, hi=limit, chunk_size=chunk_size)
    if checkpoint_path is not None:
        state = checkpoint_resume(checkpoint_path, config)
    else:
        state = ScanState(config=config)

    pending = [r for r in config.chunk_ranges() if r[0] not in state.records]
    if pending:
        need = max((limit + 1) // 2, 2)
        if threads > 1 and len(pending) > 1:
            with ProcessPoolExecutor(
                max_workers=min(threads, len(pending)),
                initializer=_worker_init,
                initargs=(need,),
            ) as pool:
                for rec in pool.map(_scan_range, pending):
                    state.records[rec.lo] = rec
                    if checkpoint_path is not None:
                        checkpoint_save(checkpoint_path, state)
        else:
            sv = shared_sieve(need) if sieve is None else sieve
            for lo, hi in pending:
                chunk = scan_omega_plus(lo, hi, sv)
                state.records[lo] = ChunkRecord(lo, hi, chunk.exceptional, chunk.checksum)
                if checkpoint_path is not None:
                    checkpoint_save(checkpoint_path, state)

    state.complete = True
    if checkpoint_path is not None:
        checkpoint_save(checkpoint_path, state)

    ordered = sorted(state.records.values(), key=lambda r: r.lo)
    exceptional = tuple(n for rec in ordered for n in rec.exceptional)
    digest = hashlib.sha256("|".join(r.checksum for r in ordered).encode("ascii")).hexdigest()
    return ScanResult(
        limit=limit,
        chunk_size=chunk_size,
        exceptional=exceptional,
        digest=digest,
        chunks=len(ordered),
    )
