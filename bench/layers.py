"""Per-layer split of a traced pass: self times, calls and work counters.

A span's self time is its duration minus the durations of its direct child
spans; summed over a request's spans it equals the duration of the root
span, so the self times plus the time no span covers (interpreter start-up,
imports and unwrapped code) add up to the request's wall time.

Work counters marked "computed" are evaluated by the benchmark from the
span arguments on its own prime array, with the same bounds the program
uses; they repeat exactly from run to run.
"""

from __future__ import annotations

from collections import defaultdict
from math import isqrt

import numpy as np

from reference import primes_upto
from tracer import TRACED

FUNCTIONS = tuple(f"{m}.{f}" for m, names in TRACED.items() for f in names)


def lambda_bound(n: int) -> int:
    """The program's cutoff for primes that can have digit sum >= p."""
    return (n + 1) // 2 if n % 2 else (n + 1) // 3


def chunk_work(lo: int, hi: int, primes: np.ndarray) -> tuple[int, int, int]:
    """(primes visited, primes adding a run, runs) of scan_omega_plus(lo, hi)."""
    a = np.searchsorted(primes, max(isqrt(lo), 2))
    b = np.searchsorted(primes, (hi + 1) // 2, side="right")
    p = primes[a:b]
    a1_min = np.maximum(1, -(-(lo + 1) // p) - 1)
    a1_max = np.minimum(p - 1, (hi - p) // (p - 1))
    runs = np.maximum(a1_max - a1_min + 1, 0)
    return len(p), int(np.count_nonzero(runs)), int(runs.sum())


def split(requests: list[dict]) -> tuple[dict, dict]:
    """Per-layer metrics of one traced pass.

    requests holds, per request, its wall time "wall", its spans "spans" and
    its standard output size "stdout_bytes". Returns (metrics, self seconds
    per function).
    """
    calls = dict.fromkeys(FUNCTIONS, 0)
    self_s = dict.fromkeys(FUNCTIONS, 0.0)
    count = defaultdict(int)
    wall = 0.0
    qual_n: list[int] = []
    chunks: list[tuple[int, int]] = []
    for req in requests:
        wall += req["wall"]
        count["cli.stdout_bytes"] += req["stdout_bytes"]
        spans = req["spans"]
        child_s = defaultdict(float)
        for _, parent, _, start, end, _ in spans:
            if parent is not None:
                child_s[parent] += end - start
        for span_id, _, name, start, end, fields in spans:
            calls[name] += 1
            self_s[name] += end - start - child_s[span_id]
            if not fields:  # the call raised, or records nothing
                continue
            if name == "arith.sieve":
                count["arith.sieve.primes_held"] += fields["primes"]
            elif name == "denom.qualifying_primes":
                qual_n.append(fields["n"])
                count["found"] += fields["found"]
            elif name == "scanner.scan_omega_plus":
                chunks.append((fields["lo"], fields["hi"]))
            elif name == "scanner.checkpoint_save":
                count["scanner.checkpoint_save.bytes_written"] += fields["bytes"]
            elif name == "scanner.checkpoint_resume":
                count["scanner.checkpoint_resume.bytes_read"] += fields["bytes"]
            elif name == "verify.run_verification":
                count["verify.checked"] += fields["checked"]

    top = max([lambda_bound(n) for n in qual_n] + [(hi + 1) // 2 for _, hi in chunks] + [2])
    primes = primes_upto(top)
    bounds = np.array([lambda_bound(n) for n in qual_n], dtype=np.int64)
    tested = int(np.searchsorted(primes, bounds, side="right").sum())
    for lo, hi in chunks:
        visited, useful, runs = chunk_work(lo, hi, primes)
        count["scanner.scan_omega_plus.indices"] += hi - lo + 1
        count["scanner.scan_omega_plus.primes_visited"] += visited
        count["scanner.scan_omega_plus.prime_yield"] += useful
        count["scanner.scan_omega_plus.runs"] += runs

    metrics: dict[str, tuple[float, str]] = {}
    for name in FUNCTIONS:
        metrics[f"{name}.calls"] = (calls[name], "count")
        metrics[f"{name}.self_pct"] = (100 * self_s[name] / wall, "%")
    unaccounted = wall - sum(self_s.values())
    metrics["unaccounted_pct"] = (100 * unaccounted / wall, "%")
    metrics["denom.qualifying_primes.primes_tested"] = (tested, "count")
    metrics["denom.qualifying_primes.yield"] = (count["found"] / tested if tested else 0.0, "ratio")
    for key in (
        "arith.sieve.primes_held",
        "scanner.scan_omega_plus.indices",
        "scanner.scan_omega_plus.primes_visited",
        "scanner.scan_omega_plus.prime_yield",
        "scanner.scan_omega_plus.runs",
        "verify.checked",
    ):
        metrics[key] = (count[key], "count")
    for key in (
        "scanner.checkpoint_save.bytes_written",
        "scanner.checkpoint_resume.bytes_read",
        "cli.stdout_bytes",
    ):
        metrics[key] = (count[key], "bytes")
    metrics["unaccounted_s"] = (unaccounted, "s")
    metrics["traced_wall_s"] = (wall, "s")
    return metrics, self_s
