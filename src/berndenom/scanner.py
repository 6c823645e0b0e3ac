"""High-throughput range scans over the primes above sqrt(n).

omega_+(n) counts the primes p > sqrt(n) whose base-p digit sum of n
reaches p. Such a prime is heavy at n exactly on the runs
[(a1+1)p - a1, (a1+1)p - 1] with 1 <= a1 < p, and a1 = n // p <= isqrt(n).
A scan wants only the n where that count is zero: near a1 = sqrt(n) one
quotient's few runs hold about 2 / ln n of all indices, so each step of the
cover holds n with the runs of its largest quotients alone (_zeros).

The same test with every run cut short at the top by k - 1 is find_sets'
prefilter: a heavy prime p above sqrt(m) divides (m+1)...(m+k-1) exactly
when m >= (a1+1)p - (k-1), so a cut run holds exactly the m at which p
stays in the denominator of the k-th derivative at n = m + k - 1. The cut-1
test, passed where every heavy prime above sqrt(n) divides n + 1, is radset's.

The cover reads only the primes its runs can reach (denom.heavy_reach): 2,178
for a scan to 300,000, 11,641 for one to 1.34 * 10^8 and about sqrt(limit) + 64
beyond, + 129 from 10^12 on, not every prime to hi / 2. A step is covered first
at depth 64 below 10^12 and at 129, the first re-cover's depth, from there on,
where nearly every step needs it (_first_depth). A step whose cover leaves an
index past its depth is covered again, deeper, so the run rule lives in
denom.heavy_runs alone. Those primes are a sweep's only limit: sieve() refuses them past its cap
of 2^26, and a sweep whose top step's second re-cover would read past it is
refused before its first step (_refuse_past_cap), so scan and sets --k 1 run to
4,503,564,864,978,944 and radset to 4,503,564,328,108,032. A step grows with
sqrt(n) (_step), so it holds a few thousand periods of its top quotient and
about as many runs at any n: the rows `scan 1e10` and `scan 1e11` of the
BENCH_*.json files, written by tools/trajectory.py, give a scan's time there.
Depth 64 leaves 1,261 indices in [383,778,817, 384,827,392] and 437,348 in
[985,661,441, 986,710,016]; the first re-cover, at depth 129, leaves none
there.

A scan's chunk_size sets only what one checkpoint record covers; past a limit of
2^32 the default grows with it, so a checkpoint holds at most 4,096 records.
run_scan scans the cover's steps, in whole chunks, as one scan_omega_plus each,
and files a step's exceptional indices into its chunks' records; --threads runs
that many steps at once on threads, at most one per CPU. The chunk grid is
counted, never listed, and the report is folded as the chunks come, resumed ones
too, so an explicit small chunk costs no memory per chunk. A chunk's result, a
ScanChunk, is what a checkpoint persists: one JSON line appended per chunk after a
header naming the scan, so an interrupted scan resumes from the chunks it finished
and ends byte-identical, file and all, to one that never stopped. Its records are
always the grid's first chunks in grid order, and a resume refuses any other
order, so it scans on from the first chunk with no record. A sweep sizes
arith.shared_sieve for its whole range before its first step, so no step makes the
cache grow again unless it is covered again deeper.
"""

from __future__ import annotations

import json
import os
import warnings
from bisect import bisect_right
from collections import deque
from dataclasses import asdict, dataclass
from itertools import chain, islice, starmap
from math import isqrt
from typing import Iterator, Sequence

import numpy as np

from . import arith, denom
from .arith import SieveSizeError, radical, shared_sieve
from .denom import DEFAULT_CHUNK_SIZE, db_k, dd

__all__ = [
    "CheckpointError",
    "DEFAULT_CHUNK_SIZE",
    "ScanChunk",
    "ScanConfig",
    "ScanResult",
    "checkpoint_resume",
    "checkpoint_save",
    "chunk_checksum",
    "find_rad_set",
    "find_sets",
    "run_scan",
    "scan_omega_plus",
]

CHECKPOINT_VERSION = 2

try:  # CPython's built-in SHA-256, which hashlib falls back to: no scan loads OpenSSL
    from _sha2 import sha256  # Python 3.12 on
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256


class CheckpointError(RuntimeError):
    """Checkpoint file disagrees with the requested scan or is corrupt."""


def chunk_checksum(lo: int, hi: int, exceptional: Sequence[int]) -> str:
    """Digest of a chunk's persisted results (bounds plus exceptional list)."""
    payload = "omega-scan:%d:%d:%s" % (lo, hi, ",".join(map(str, exceptional)))
    return sha256(payload.encode("ascii")).hexdigest()


@dataclass(frozen=True)
class ScanChunk:
    """Scan results for the inclusive index range [lo, hi], as a checkpoint
    records them: exceptional lists the indices n with no prime above sqrt(n)
    whose base-p digit sum of n reaches p, and checksum digests both."""

    lo: int
    hi: int
    exceptional: tuple[int, ...]
    checksum: str


_DEPTH = 64
"""Largest quotients per index, past cut, that the cover reads first below 10^12 (_first_depth);
only speed depends on it: on [1, 5*10^6], 32 left 2,843 indices, 64 left 26, 128 doubled the runs."""


def _first_depth(n: int, cut: int) -> int:
    """The depth a step from n is covered at first: _DEPTH + cut below 10^12, and from there on
    the first re-cover's, which 40 of 40 steps from 10^12 needed: 1.95 ms a step, not 2.98."""
    depth = _DEPTH + cut
    return depth if n < 10**12 else 2 * depth + 1


def _uncovered(lo: int, hi: int, cut: int, depth: int) -> tuple[np.ndarray, np.ndarray]:
    """The gaps in [lo, hi] that no run of heavy_runs(lo, hi, cut, depth) holds, ascending, as
    (first, count) arrays, from the primes to that cover's reach: as many runs stop as begin at
    or below an index in no run, so with the begins and the stops sorted apart the gaps are
    [stops[i - 1], begins[i]), stops[-1] = 0, begins[runs] = hi - lo + 1."""
    starts, ends = [np.zeros(1, np.int64)], [np.full(1, hi - lo + 1, np.int64)]
    for _, begin, stop in denom.heavy_runs(lo, hi, cut, depth):
        ends.append(begin)
        starts.append(stop)
    starts, ends = np.concatenate(starts), np.concatenate(ends)
    starts.sort()  # in place, as is ends: 0 stays first and hi - lo + 1 goes last
    ends.sort()
    gaps = ends > starts  # the few nonempty ones, before any array the size of the runs
    return starts[gaps] + lo, ends[gaps] - starts[gaps]


def _sieve_bound(lo: int, hi: int, cut: int) -> int:
    """The primes _zeros(lo, hi, cut) reads first: those its cover's runs reach at the first
    depth of hi, the deepest of its steps' first depths, and those to isqrt(hi) that
    qualifying_primes reads in the confirmations of find_sets and find_rad_set (the reach
    passes isqrt(hi) unless the cover reads no quotient). sieve() refuses it past its cap,
    as it refuses any bound."""
    return max(denom.heavy_reach(lo, hi, cut, _first_depth(hi, cut)), isqrt(hi))


def _top_recover(lo: int, hi: int, cut: int) -> tuple[int, int]:
    """(depth, reach) of the second re-cover of the cover's top step over [lo, hi]: depth
    4 * (_DEPTH + cut) + 3, and the primes it reads, to about isqrt(hi) + depth. Of the 24,578
    steps to 4.5 * 10^15, 20,907 needed the first re-cover, 3,627 the second (the first of
    them from 1.57 * 10^11 on) and none a third; the top step reads the largest primes."""
    (start, _), depth = deque(_steps(lo, hi), maxlen=1)[0], 4 * (_DEPTH + cut) + 3
    return depth, denom.heavy_reach(start, hi, cut, depth)


def _refuse_past_cap(lo: int, hi: int, cut: int) -> None:
    """Refuse, naming the bound, a sweep of [lo, hi] whose top step's second re-cover would
    read primes past the sieve cap (_top_recover), before its first step: that step would raise
    only after every other step. A scan to 4,503,591,037,435,904 would read the primes to
    67,109,060 there. Past isqrt(hi) = cap no sweep fits: sieve() refuses its _sieve_bound."""
    if lo <= hi and isqrt(hi) <= arith.DEFAULT_SIEVE_CAP:
        depth, reach = _top_recover(lo, hi, cut)
        if reach > arith.DEFAULT_SIEVE_CAP:
            raise SieveSizeError(
                f"sieve limit {reach} exceeds the cap of {arith.DEFAULT_SIEVE_CAP} at a re-cover of depth {depth}"
            )


def _step(start: int) -> int:
    """Indices in the cover's step from start: 2^12 times the power of two past isqrt(start),
    at least DEFAULT_CHUNK_SIZE. A step then holds 2^12 to 2^13 periods of its top quotient,
    so its runs, and the time and memory a step takes, barely grow with start, and the steps
    to a limit L number about sqrt(L) / 2^11.5: 113 to 10^11, 11,374 to 10^15."""
    return max(denom.DEFAULT_CHUNK_SIZE, 1 << (isqrt(start).bit_length() + 12))


def _steps(lo: int, hi: int, grain: int = 1) -> Iterator[tuple[int, int]]:
    """The cover's steps over [lo, hi] as ascending (start, end) pairs, lazily: _step(start)
    indices from each start, rounded up to whole grains of grain indices from lo, the last one
    cut at hi. With a scan's chunk as its grain, each step is whole chunks of its grid."""
    while lo <= hi:
        end = min(lo - 1 + -(-_step(lo) // grain) * grain, hi)
        yield lo, end
        lo = end + 1


def _zeros(lo: int, hi: int, cut: int):
    """Ascending n in [lo, hi] that no heavy run cut short by cut holds, a step at a time, each
    covered first at its start's depth (_first_depth); a cut run holds only a1 - cut indices of
    its period, so the cover reads cut more quotients.
    Below (cut + depth + 2)^2 the cover reads every quotient, so what it leaves there is exact;
    a step that leaves an index past it is covered again at depth 2 * depth + 1, from the
    primes to that deeper cover's reach, until none is left past it: the top of its last gap
    decides. Where that reach passes the sieve cap, SieveSizeError names the index: only a
    dropped run or an exceptional index past 192 drives the depth toward sqrt(n) and the reach
    toward n / 2."""
    if lo > hi:
        return
    shared_sieve(_sieve_bound(lo, hi, cut))  # once, for every step at its first depth
    for start, end in _steps(lo, hi):
        depth = _first_depth(start, cut)
        first, count = _uncovered(start, end, cut, depth)
        while count.size and (n := int(first[-1] + count[-1] - 1)) >= (cut + depth + 2) ** 2:
            depth = 2 * depth + 1
            try:
                first, count = _uncovered(start, end, cut, depth)
            except SieveSizeError as exc:
                raise SieveSizeError(f"covering n = {n} at depth {depth}: {exc}; see `profile {n}`") from exc
        yield from denom._ragged(first, count).tolist()


def scan_omega_plus(lo: int, hi: int) -> ScanChunk:
    """The n in [lo, hi] with no prime p > sqrt(n) of digit sum >= p."""
    if lo < 1 or lo > hi:
        raise ValueError(f"need 1 <= lo <= hi, got [{lo}, {hi}]")
    exceptional = tuple(_zeros(lo, hi, 0))
    return ScanChunk(lo, hi, exceptional, chunk_checksum(lo, hi, exceptional))


def find_sets(k: int, limit: int) -> tuple[int, ...]:
    """Every n <= limit whose k-th Bernoulli-polynomial derivative is integral, ascending.

    Indices n <= k give a constant or vanishing derivative and are members
    outright. Beyond that, membership forces every prime above sqrt(n-k+1)
    with a heavy digit sum to divide the falling factorial (n)_{k-1}. That
    prefilter is the scan's test with each run cut short by k - 1 at
    m = n - k + 1; it discards almost every index, and the survivors are
    confirmed with the full db_k product before being reported.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if limit < 1:
        raise ValueError(f"limit must be positive, got {limit}")
    _refuse_past_cap(2, limit - k + 1, k - 1)
    survivors = (m + k - 1 for m in _zeros(2, limit - k + 1, k - 1))
    return (*range(1, min(k, limit) + 1), *(n for n in survivors if db_k(n, k) == 1))


def find_rad_set(limit: int) -> tuple[int, ...]:
    """Every n <= limit where dd(n) equals the squarefree kernel of n + 1, ascending.

    Each heavy prime above sqrt(n) must divide n + 1, which leaves find_sets'
    prefilter for k = 2; only its survivors are compared with radical(n + 1).
    """
    if limit < 1:
        raise ValueError(f"limit must be positive, got {limit}")
    _refuse_past_cap(2, limit, 1)
    return tuple(n for n in _zeros(2, limit, 1) if dd(n) == radical(n + 1))


@dataclass(frozen=True)
class ScanConfig:
    """Identity of one scan: range plus chunking, the checkpoint's header."""

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

    def chunk_ranges(self) -> Iterator[tuple[int, int]]:
        """Each chunk's (lo, hi), ascending and lazily: the grid is counted, never listed."""
        for lo in range(self.lo, self.hi + 1, self.chunk_size):
            yield lo, min(lo + self.chunk_size - 1, self.hi)


def _dump(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _record(chunk: ScanChunk) -> bytes:
    """chunk's record: the line a checkpoint holds for it."""
    return (_dump(asdict(chunk)) + "\n").encode("ascii")


def checkpoint_save(path, chunk: ScanChunk) -> None:
    """Append chunk's record to the checkpoint, as one line in one write."""
    with open(path, "ab", buffering=0) as fh:
        fh.write(_record(chunk))


def checkpoint_resume(path, config: ScanConfig) -> Iterator[ScanChunk]:
    """The validated chunks of a checkpoint, the grid's first chunks in grid order, as an
    iterator that reads a line at a time and raises CheckpointError at a bad record. The
    header is checked at the call; a missing or blank file is given config's header at the
    call and holds none, and a blank one also warns."""
    path = os.fspath(path)
    if os.path.exists(path):
        with open(path, "r", encoding="ascii") as fh:
            first = fh.readline()
            # a blank first line is no header, and unreadable if a record follows
            if first.strip() or any(line.strip() for line in fh):
                try:
                    header = json.loads(first.rstrip("\n"))
                except json.JSONDecodeError as exc:
                    raise CheckpointError(f"unreadable checkpoint header: {exc}") from exc
                version = header.get("berndenom_checkpoint") if isinstance(header, dict) else None
                if version != CHECKPOINT_VERSION:
                    raise CheckpointError(
                        f"checkpoint version {version} is not supported; "
                        f"berndenom reads version {CHECKPOINT_VERSION} only"
                    )
                if header != config.header():
                    raise CheckpointError("checkpoint was written for a different scan configuration")
                return _records(path, config)
        warnings.warn(f"checkpoint {path} is empty; starting fresh", stacklevel=2)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(_dump(config.header()) + "\n")
    return iter(())


def _records(path: str, config: ScanConfig) -> Iterator[ScanChunk]:
    """The chunks of a checkpoint's record lines, past its checked header, read a line at a
    time: each record must be the next chunk of config's grid, so one that skips, repeats or
    reorders a chunk is refused, and its checksum must hold."""
    grid = config.chunk_ranges()  # counted as the records come, never listed
    with open(path, "r", encoding="ascii") as fh:
        for line in islice(fh, 1, None):  # past the header
            line = line.rstrip("\n")
            if not line.strip():
                continue
            try:  # a malformed line raises KeyError, TypeError or ValueError
                payload = json.loads(line)
                exceptional = tuple(int(x) for x in payload["exceptional"])
                chunk = ScanChunk(int(payload["lo"]), int(payload["hi"]), exceptional, str(payload["checksum"]))
            except json.JSONDecodeError as exc:
                raise CheckpointError(f"corrupt checkpoint record: {exc}") from exc
            except (KeyError, TypeError, ValueError) as exc:
                raise CheckpointError(f"malformed checkpoint record: {line!r}") from exc
            lo, hi = chunk.lo, chunk.hi
            expected = next(grid, None)
            if (lo, hi) != expected:
                wanted = "none past its end" if expected is None else "[%d, %d]" % expected
                raise CheckpointError(f"record [{lo}, {hi}] does not match the chunk grid, expected {wanted}")
            if chunk_checksum(lo, hi, chunk.exceptional) != chunk.checksum:
                raise CheckpointError(f"checksum mismatch in chunk [{lo}, {hi}]")
            yield chunk


@dataclass(frozen=True)
class ScanResult:
    """Final report of a full scan from 1 to limit: the exceptional indices
    in ascending order, the digest of its chunks' checksums, and the chunk
    size that digest depends on."""

    exceptional: tuple[int, ...]
    digest: str
    chunk_size: int


def _walk(steps, threads: int):
    """scan_omega_plus(lo, hi) of each step, a (lo, hi) pair, in step order: a ScanChunk
    whose exceptional are the step's zeros. On more than one thread, a pool of threads
    threads runs the steps, with at most threads more queued behind them so that a thread
    done before an earlier, slower step starts the next at once; each is taken back in
    order, so an error raised in a step is raised once every earlier step has been taken,
    as on one thread, which starts no pool. Leaving early drops the queued steps and waits
    for the running ones."""
    if threads == 1:
        yield from starmap(scan_omega_plus, steps)
        return
    from concurrent.futures import ThreadPoolExecutor  # here alone: one thread never loads it

    pool = ThreadPoolExecutor(threads)
    try:
        futures = (pool.submit(scan_omega_plus, *step) for step in steps)
        ahead = deque(islice(futures, 2 * threads))
        while ahead:
            done = ahead.popleft().result()
            ahead.extend(islice(futures, 1))
            yield done
    finally:
        pool.shutdown(cancel_futures=True)  # the queued steps are dropped, the running ones joined


def run_scan(
    limit: int,
    *,
    threads: int = 1,
    chunk_size: int | None = None,
    checkpoint_path=None,
) -> ScanResult:
    """Scan [1, limit] in chunks, optionally on threads and checkpointed.

    The report depends only on (limit, chunk_size); thread count, interruption,
    and resumption leave it bit-for-bit unchanged. The default chunk is
    DEFAULT_CHUNK_SIZE up to 2^32 and doubles with each bit of limit - 1 past 32:
    limit / 4096 rounded up to a power of two, so a checkpoint holds at most 4,096
    records of about 0.5 KB each, where chunks of 2^20 made a million at 10^12.
    The cover's steps (_steps), rounded up to whole chunks, are each one scan_omega_plus, at
    most threads and os.cpu_count() of them at once; their zeros are filed into chunk records.
    The digest and the exceptional indices are folded as the chunks come, so a
    scan holds no record past its fold. The records resumed from a checkpoint are
    the grid's first chunks, folded as they are read and before any step is scanned,
    so a bad one stops the scan first; the steps go on from the first chunk after them.
    """
    if limit < 1:
        raise ValueError(f"limit must be positive, got {limit}")
    if threads < 1:
        raise ValueError(f"threads must be positive, got {threads}")
    if chunk_size is not None and chunk_size < 1:
        raise ValueError(f"chunk size must be positive, got {chunk_size}")

    _refuse_past_cap(1, limit, 0)  # past the cap, refused before the checkpoint is touched
    shared_sieve(_sieve_bound(1, limit, 0))
    size = chunk_size or DEFAULT_CHUNK_SIZE << max((limit - 1).bit_length() - 32, 0)
    config = ScanConfig(1, limit, size)
    resumed = iter(()) if checkpoint_path is None else checkpoint_resume(checkpoint_path, config)
    digest, exceptional = sha256(), []

    def fold(chunk: ScanChunk) -> None:
        digest.update(b"|" * (chunk.lo > 1) + chunk.checksum.encode("ascii"))
        exceptional.extend(chunk.exceptional)

    held = 0  # the resumed records, each let go once folded, all before any step is scanned
    for held, chunk in enumerate(resumed, 1):
        fold(chunk)
    steps = _steps(1 + held * size, limit, size)
    head = list(islice(steps, min(threads, os.cpu_count() or 1)))  # no more threads than steps, or CPUs
    for step in _walk(chain(head, steps), max(len(head), 1)):
        filed, zeros = 0, step.exceptional
        for lo in range(step.lo, step.hi + 1, size):  # the step's chunks, which are the grid's
            hi, first = min(lo + size - 1, step.hi), filed
            filed = bisect_right(zeros, hi, first)
            found = zeros[first:filed]
            chunk = ScanChunk(lo, hi, found, chunk_checksum(lo, hi, found))
            if checkpoint_path is not None:
                checkpoint_save(checkpoint_path, chunk)
            fold(chunk)
    return ScanResult(exceptional=tuple(exceptional), digest=digest.hexdigest(), chunk_size=size)
