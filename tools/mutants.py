"""Mutation gate: each check must catch the mutations it exists for.

Usage: python tools/mutants.py

Each row of MUTANTS names a file, a text that occurs there exactly once, the
text that replaces it, and the test that must fail once it is replaced. For each
row, src/, tests/ and pyproject.toml are copied to a temporary directory, the one
replacement is made there, and only the row's test runs, with -x. A mutant is
killed when that test fails (pytest exit status 1).
An equivalent mutant changes no behaviour, so its test must pass: it is run and
reported, and never fails the gate.

Exit status: 0 when every non-equivalent mutant is killed, 1 when one survives,
2 when a row no longer applies (its text is gone or repeated, or its test did not
run, or an equivalent mutant was killed).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
ARITH, DENOM, SCANNER = "src/berndenom/arith.py", "src/berndenom/denom.py", "src/berndenom/scanner.py"
ACCEPTANCE = "tests/test_acceptance.py::test_criterion_"
STOP = "np.subtract(stop, lo + cut, out=stop)"  # the top of every run, in denom.heavy_runs
RUN_ENDS = "tests/test_denom.py::TestHeavyRuns::test_a_run_past_the_old_cap_has_its_exact_ends"


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    test: str
    equivalent: bool = False


MUTANTS = (
    Mutant("every run cut short by one", DENOM, STOP,
           "np.subtract(stop, lo + cut + 1, out=stop)", ACCEPTANCE + "3_oracle_equivalence"),
    Mutant("every run past 2^27 cut short by one", DENOM, STOP,
           "np.subtract(stop, lo + cut + (lo >= 1 << 27), out=stop)", RUN_ENDS),
    Mutant("every run past 2^27 one index longer", DENOM, STOP,
           "np.subtract(stop, lo + cut - (lo >= 1 << 27), out=stop)", RUN_ENDS),
    Mutant("kept(k) as > k", DENOM, "return (self.n + k - 1) % self.p >= k",
           "return (self.n + k - 1) % self.p > k", ACCEPTANCE + "2_set_reproduction"),
    Mutant("minus runs one short", DENOM, "np.minimum(digit_sums(t, p), p)",
           "np.minimum(digit_sums(t, p), p - 1)", ACCEPTANCE + "3_oracle_equivalence"),
    Mutant("small primes qualifying as > p", DENOM, "if digit_sum(n, p) >= p]",
           "if digit_sum(n, p) > p]",
           "tests/test_denom.py::TestQualifyingPrimes::test_matches_supports_exhaustively"),
    Mutant("each step's multiples one short", DENOM, "count = np.maximum(hi // steps - first + 1, 0)",
           "count = np.maximum(hi // steps - first, 0)",
           "tests/test_denom.py::TestFactors::test_matches_prime_divisors_exhaustively"),
    Mutant("each window's smallest candidate dropped", DENOM, "here = candidates(lo, lo + flags.size - 1)",
           "here = candidates(lo, lo + flags.size - 1)[1:]", ACCEPTANCE + "1_golden_sequences"),
    Mutant("each window's largest candidate dropped", DENOM, "n // hi, -1", "n // hi + 1, -1",
           ACCEPTANCE + "1_golden_sequences"),
    Mutant("the tail past its first slice dropped", DENOM, "range(0, tail.size, _SEGMENT)",
           "range(0, min(tail.size, _SEGMENT), _SEGMENT)",
           "tests/test_denom.py::TestQualifyingPrimes::test_tail_slices_lose_no_candidate"),
    Mutant("minus as p <= n // p", DENOM, "return self.p <= (self.n - 1) // self.p",
           "return self.p <= self.n // self.p",
           "tests/test_denom.py::TestPrimePairs::test_minus_where_int64_squares_overflow",
           equivalent=True),  # p * p = n never qualifies: p's digit sum of p^2 is 1
    Mutant("re-cover switched off", SCANNER, "while count.size and", "while False and",
           "tests/test_scanner.py::TestCover::"
           "test_the_re_cover_decides_what_a_shallow_cover_leaves[1-20000-0]"),
    Mutant("first depth 64 past 10^12", SCANNER, "else 2 * depth + 1", "else depth",
           "tests/test_scanner.py::TestCover::test_a_step_from_10_12_on_starts_at_the_first_re_cover"),
    Mutant("every gap one short", SCANNER, "gaps = ends > starts", "gaps = ends > starts + 1",
           ACCEPTANCE + "2_set_reproduction"),
    Mutant("a step seam skips an index", SCANNER, "lo = end + 1", "lo = end + 2",
           "tests/test_scanner.py::TestCover::test_steps_tile_the_range_in_whole_grains"),
    Mutant("a zero on a chunk's hi filed under the next chunk", SCANNER,
           "bisect_right(zeros, hi, first)", "bisect_right(zeros, hi - 1, first)",
           "tests/test_scanner.py::TestRunScan::test_each_record_is_its_chunks_own_scan"),
    Mutant("no up-front refusal of a re-cover past the cap", SCANNER,
           "if reach > arith.DEFAULT_SIEVE_CAP:", "if False:",
           "tests/test_cli.py::TestScan::test_a_re_cover_past_the_cap_is_refused_before_any_step"),
    Mutant("shared sieve built with no lock", ARITH, "with _SHARED_LOCK:", "if True:",
           "tests/test_arith.py::test_shared_sieve_grows_under_one_lock"),
    Mutant("record checksum not checked", SCANNER,
           "if chunk_checksum(lo, hi, chunk.exceptional) != chunk.checksum:", "if False:",
           "tests/test_scanner.py::TestCheckpointing::test_corrupt_record_checksum_rejected"),
)


def run(mutant: Mutant) -> tuple[str, bool]:
    """Apply mutant to a fresh copy and run its test: (verdict, whether the gate holds)."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for tree in ("src", "tests"):
            shutil.copytree(ROOT / tree, Path(tmp, tree), ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", tmp)
        target = Path(tmp, mutant.path)
        text = target.read_text()
        if text.count(mutant.old) != 1:
            return f"stale: the text occurs {text.count(mutant.old)} times, not once", False
        target.write_text(text.replace(mutant.old, mutant.new))
        argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", mutant.test]
        env = dict(os.environ, PYTHONPATH=str(Path(tmp, "src")), PYTHONDONTWRITEBYTECODE="1")
        quiet = {"stdout": subprocess.DEVNULL, "stderr": subprocess.DEVNULL}
        status = subprocess.run(argv, cwd=tmp, env=env, **quiet).returncode
    if status == (0 if mutant.equivalent else 1):
        return ("survived, equivalent" if mutant.equivalent else "killed"), True
    if status == 0:
        return "SURVIVED", False
    return f"stale: pytest exited {status}", False


def main() -> int:
    survived = stale = 0
    for mutant in MUTANTS:
        start = time.perf_counter()
        verdict, holds = run(mutant)
        survived += not holds and verdict == "SURVIVED"
        stale += not holds and verdict != "SURVIVED"
        seconds = time.perf_counter() - start
        print(f"{verdict:<22} {seconds:6.1f} s  {mutant.name}  [{mutant.test}]", flush=True)
    return 2 if stale else 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
