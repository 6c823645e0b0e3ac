"""Time CLI rows of this checkout against another revision, in interleaved fresh-process pairs.

Usage: python tools/trajectory.py --against REV [--label LABEL]

REV is checked out with `git archive` into a temporary directory, so a run leaves
nothing in the repository's .git. The head side is this checkout's src/, as it
stands on disk. Each pair runs every row of ROWS once on both sides, in
alternating order, so drift over a session reaches every row and side alike. A
row runs in the first PAIRS pairs (12), or in as many as it sets itself: at least
two, since the quartiles need two runs a side.

Each request is a fresh `python -m berndenom` process, started from a small
launcher process and not from this script, because a forked child carries its
parent's peak RSS into its own ru_maxrss. The launcher reads the child's wall
time, CPU time (ru_utime + ru_stime) and ru_maxrss from os.wait4. The child's
stdout and stderr are hashed, and every run of a row must print the same bytes on
both sides, or the script stops with exit status 1.

The result goes to BENCH_<LABEL>.json at the repository root: the provenance
(nproc, CPU, Python, numpy, and each side's commit, dirty flag and digest of
its src/), and per row and side every run and the median and quartiles of each
measure. No module under bench/ is imported.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 12  # interleaved pairs per row, unless the row sets its own


class Row(NamedTuple):
    argv: str
    pairs: int = PAIRS  # the row runs in the first `pairs` pairs


ROWS = {
    "profile 1": Row("profile 1"),
    "profile 1e12": Row("profile 1000000000039"),
    "scan 1.34e8": Row("scan --limit 134000000"),
    "scan 1e10": Row("scan --limit 10000000000"),
    "scan 1e10 t2": Row("scan --limit 10000000000 --threads 2"),
    "scan 1e11": Row("scan --limit 100000000000"),
    "scan 1e13": Row("scan --limit 10000000000000"),
    "scan 1e13 t2": Row("scan --limit 10000000000000 --threads 2"),
    "sets k1 1e8": Row("sets --k 1 --limit 100000000"),
    "sets k64 1e7": Row("sets --k 64 --limit 10000000"),
    "sets k200 2e6": Row("sets --k 200 --limit 2000000"),
    "radset 1.34e8": Row("radset --limit 134000000"),
    "seq omega_plus 1e6": Row("seq omega_plus 1 1000000"),
    "seq dd_minus 1.342e8": Row("seq dd_minus 134200000 134203000"),
    "seq dd 1.342e8 11": Row("seq dd 134200000 134200010"),
    "seq dd 1e5": Row("seq dd 1 100000"),
    "seq dd 1e5 json": Row("--format json seq dd 1 100000"),
    "seq db 1e5": Row("seq db 1 100000"),
    "verify 1e5": Row("verify --limit 100000 --oracle-limit 1"),
    "verify 1e4 o300": Row("verify --limit 10000 --oracle-limit 300"),
    "verify 1e3 o1000": Row("verify --limit 1000 --oracle-limit 1000"),  # the oracle at the CLI's cap
    "scan 1e15": Row("scan --limit 1000000000000000", pairs=2),
}

# argv: result path, then the command; the command's stdout and stderr are the launcher's
LAUNCHER = """
import json, os, sys, time
start = time.perf_counter()
pid = os.fork()
if pid == 0:
    try:
        os.execv(sys.argv[2], sys.argv[2:])
    finally:
        os._exit(127)
_, status, usage = os.wait4(pid, 0)
wall = time.perf_counter() - start
with open(sys.argv[1], "w") as fh:
    json.dump({"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
               "maxrss_mb": usage.ru_maxrss / 1024, "status": os.waitstatus_to_exitcode(status)}, fh)
"""


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def src_digest(src: Path) -> str:
    """sha256 over the relative path and bytes of every .py file under src, in path order."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def side(rev: str | None, src: Path) -> dict:
    commit = git("rev-parse", rev or "HEAD")
    dirty = rev is None and bool(git("status", "--porcelain", "--", "src"))
    return {"rev": rev or "working tree", "commit": commit, "dirty": dirty, "src_sha256": src_digest(src)}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            return next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        return platform.processor()


def measure(src: Path, argv: list[str], work: Path) -> tuple[dict, str]:
    """One fresh process of argv on the source tree src: its measures and its output's digest."""
    result, out, err = work / "result.json", work / "stdout", work / "stderr"
    env = dict(os.environ, PYTHONPATH=str(src))
    command = [sys.executable, "-S", "-c", LAUNCHER, str(result), sys.executable, "-m", "berndenom", *argv]
    with open(out, "wb") as stdout, open(err, "wb") as stderr:
        subprocess.run(command, cwd=work, env=env, stdout=stdout, stderr=stderr, check=True)
    run = json.loads(result.read_text())
    output = hashlib.sha256(out.read_bytes() + b"\0" + err.read_bytes()).hexdigest()
    return run, output


def summary(runs: list[dict]) -> dict:
    """Median and quartiles of each measure over runs."""
    out = {}
    for key in ("wall_s", "cpu_s", "maxrss_mb"):
        q1, median, q3 = statistics.quantiles([r[key] for r in runs], n=4, method="inclusive")
        out[key] = {"median": median, "q1": q1, "q3": q3}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True, help="the revision to compare with, e.g. HEAD~1")
    parser.add_argument("--label", help="writes BENCH_<label>.json (default: the head commit's short hash)")
    args = parser.parse_args()
    label = args.label or git("rev-parse", "--short", "HEAD")

    with tempfile.TemporaryDirectory(prefix="trajectory-") as tmp:
        base = Path(tmp, "against")
        archive = subprocess.run(["git", "archive", args.against, "src"],
                                 cwd=ROOT, check=True, capture_output=True)
        base.mkdir()
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(base, filter="data")
        sides = {"head": ROOT / "src", "against": base / "src"}
        numpy = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                               check=True, capture_output=True, text=True).stdout.strip()
        report = {
            "provenance": {
                "nproc": os.cpu_count(),
                "cpu": cpu_model(),
                "python": platform.python_version(),
                "numpy": numpy,
                "head": side(None, sides["head"]),
                "against": side(args.against, sides["against"]),
                "pairs": PAIRS,
                "method": "fresh `python -m berndenom` processes from a launcher; wait4 rusage; "
                          "stdout and stderr discarded after hashing",
            },
            "rows": {name: {"argv": row.argv, "pairs": row.pairs, "head": [], "against": []}
                     for name, row in ROWS.items()},
        }
        outputs: dict[str, set] = {name: set() for name in ROWS}
        work = Path(tmp, "work")
        work.mkdir()
        pairs = max(row.pairs for row in ROWS.values())
        for pair in range(pairs):
            for name, row in ROWS.items():
                if pair >= row.pairs:
                    continue
                order = ("head", "against") if pair % 2 == 0 else ("against", "head")
                for which in order:
                    run, output = measure(sides[which], row.argv.split(), work)
                    report["rows"][name][which].append(run)
                    outputs[name].add(output)
                    if run["status"] != 0:
                        print(f"{name}: exit status {run['status']} on {which}", file=sys.stderr)
                        return 1
                if len(outputs[name]) != 1:
                    print(f"{name}: the output differs between runs or sides", file=sys.stderr)
                    return 1
            print(f"pair {pair + 1}/{pairs} done", file=sys.stderr, flush=True)

    for name, row in report["rows"].items():
        row["summary"] = {which: summary(row[which]) for which in ("head", "against")}
        head, against = row["summary"]["head"]["wall_s"], row["summary"]["against"]["wall_s"]
        row["wall_ratio"] = head["median"] / against["median"]
        # slower than the spread of the against side's own runs
        row["slower_past_spread"] = head["median"] - against["median"] > against["q3"] - against["q1"]
        print(f"{name:<22} wall {against['median']:.3f} -> {head['median']:.3f} s"
              f"  rss {row['summary']['against']['maxrss_mb']['median']:.1f}"
              f" -> {row['summary']['head']['maxrss_mb']['median']:.1f} MB"
              f"{'  SLOWER' if row['slower_past_spread'] else ''}")
    path = ROOT / f"BENCH_{label}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {path.name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
