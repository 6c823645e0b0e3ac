"""Seeded request lists for the four workloads, with their output checks.

A workload is a list of CLI requests (one fresh process each) that one pass
of the benchmark runs in order. Sizes sit on fixed grids and the seed only
jitters them by about 1% and picks the exact indices, orders, formats and
derivative orders, so the cost of a pass hardly depends on the seed while
its inputs do. The verify request of queries has fixed limits; the seed
picks its output format.

A run makes a fixed number of passes, set by --seconds and the nominal
time of one pass (pass_count), so that the requests attempted and failed
are the same on every run whatever the speed of the machine.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

from reference import EXCEPTIONAL, PROFILE_FIELDS, RAD_SET, S_K, Reference

WORKLOADS = ("scan-wide", "scan-fine", "queries")
SIZES = ("full", "smoke")

SEQ_NAMES = ("dd", "db_k", "dd_plus", "dd_coprime", "omega_plus", "ds")
SEQ_WINDOW = 100

# Log-spaced grids. The profile grid ends at 1.3e8 (a 2^26 sieve, the
# program's cap); its top point lies where dd(n) has more than 4300 digits,
# its second point (7.8e6, 2220 digits near 1e7) well below that. The first
# n with a 4300-digit dd(n) lies near 4e7.
FULL = {
    "scan_wide_limit": 5_000_000,
    "scan_fine_limit": 1_000_000,
    "scan_fine_chunk": 1 << 14,
    "profile": (100, 130_000_000, 6),
    "seq_lo": (10, 100_000, 6),
    "sets_limit": (1_000, 100_000, 3),
    "radset_limit": (1_000, 20_000, 2),
    "verify_limit": 10_000,
    "oracle_limit": 300,
}
SMOKE = {
    "scan_wide_limit": 200_000,
    "scan_fine_limit": 60_000,
    "scan_fine_chunk": 1 << 12,
    "profile": (100, 100_000, 3),
    "seq_lo": (10, 1_000, 2),
    "sets_limit": (1_000, 1_000, 1),
    "radset_limit": (1_000, 1_000, 1),
    "verify_limit": 300,
    "oracle_limit": 30,
}
# Wall time of one untraced pass on a 2-vCPU Xeon under Python 3.11, with
# some margin; a run makes as many passes as fit in 80% of --seconds, which
# leaves room for the set-up probes and for slow phases of a shared machine.
PASS_S = {
    "full": {"scan-wide": 3.2, "scan-fine": 2.6, "queries": 14.5},
    "smoke": {"scan-wide": 0.6, "scan-fine": 1.0, "queries": 3.5},
}
FILL = 0.8
# A traced pass runs after an untraced one with the same argv and costs
# about 1.5 times as much.
TRACED_ROUND = 2.5
JITTER = 0.01


@dataclass
class Request:
    """One CLI invocation: argv after the program name, and its checks.

    check(stdout) returns None when the output is right, else the reason.
    prepare() runs before the request, outside its timing. indices is the
    scan limit of a scan request.
    """

    label: str
    argv: list[str]
    check: Callable[[bytes], str | None]
    prepare: Callable[[], None] | None = None
    indices: int = 0


def pass_count(workload: str, size: str, seconds: float, traced: bool = False) -> int:
    """Passes of one run: fixed by the arguments, never by measured time."""
    per_pass = PASS_S[size][workload] * (TRACED_ROUND if traced else 1.0)
    return max(1, int(FILL * seconds / per_pass))


def _grid(lo: int, hi: int, count: int) -> list[float]:
    if count == 1:
        return [float(lo)]
    step = math.log(hi / lo) / (count - 1)
    return [lo * math.exp(i * step) for i in range(count)]


def _jitter(rng: random.Random, x: float) -> int:
    return max(1, round(x * (1 + rng.uniform(-JITTER, JITTER))))


def _fmt(fmt: str) -> list[str]:
    return ["--format", fmt]


def _parse_csv(out: bytes) -> tuple[list[str], list[list[str]]]:
    lines = out.decode("ascii").splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _json_str(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def _check_profile(ref: Reference, n: int, fmt: str):
    want = ref.profile(n)

    def check(out: bytes):
        if fmt == "json":
            got = {k: _json_str(v) for k, v in json.loads(out).items()}
        else:
            header, rows = _parse_csv(out)
            if tuple(header) != PROFILE_FIELDS or len(rows) != 1:
                return "unexpected profile csv layout"
            got = dict(zip(header, rows[0]))
        bad = [k for k in PROFILE_FIELDS if got.get(k) != want[k]]
        return f"profile {n}: wrong {', '.join(bad)}" if bad else None

    return check


def _check_seq(ref: Reference, name: str, lo: int, hi: int, k: int | None, fmt: str):
    want = [(str(n), str(ref.seq_value(name, n, k))) for n in range(lo, hi + 1)]

    def check(out: bytes):
        if fmt == "json":
            got = [(str(r["n"]), r["value"]) for r in json.loads(out)["rows"]]
        else:
            header, rows = _parse_csv(out)
            if header != ["n", "value"]:
                return "unexpected seq csv header"
            got = [tuple(r) for r in rows]
        if len(got) != len(want):
            return f"seq {name} {lo}..{hi}: {len(got)} rows, expected {len(want)}"
        bad = [w[0] for g, w in zip(got, want) if g != w]
        return f"seq {name} {lo}..{hi}: wrong value at n={bad[0]}" if bad else None

    return check


def _check_members(ref: Reference, want: tuple[int, ...], with_flags: bool, fmt: str):
    def check(out: bytes):
        if fmt == "json":
            payload = json.loads(out)
            members = payload["members"]
            flags = payload.get("next_is_prime")
        else:
            _, rows = _parse_csv(out)
            members = [int(r[0]) for r in rows]
            flags = [r[1] == "true" for r in rows] if with_flags else None
        if tuple(members) != want:
            return f"members differ from the published list ({len(members)} vs {len(want)})"
        if with_flags and flags != [ref.is_prime(n + 1) for n in members]:
            return "next_prime flags are wrong"
        return None

    return check


def _check_scan(fmt: str, limit: int, stash: dict | None = None, key: str = ""):
    """Exceptional list must be the known one; stash keeps outputs to compare."""

    def check(out: bytes):
        if stash is not None:
            stash[key] = out
        if fmt == "json":
            payload = json.loads(out)
            got = payload["exceptional"]
            if payload["limit"] != limit or payload["max_exceptional"] != EXCEPTIONAL[-1]:
                return "scan json header is wrong"
        else:
            got = [int(r[0]) for r in _parse_csv(out)[1]]
        if tuple(got) != EXCEPTIONAL:
            return f"exceptional list differs: {got[:30]}"
        return None

    return check


def _check_verify(fmt: str):
    def check(out: bytes):
        if fmt == "json":
            ok = json.loads(out)["passed"] is True
        else:
            ok = all(r[1] == "pass" for r in _parse_csv(out)[1])
        return None if ok else "verification reported a failing family"

    return check


def _truncate_checkpoint(src: str, dst: str) -> None:
    """Copy a finished checkpoint, keeping the header and the first half of
    its chunk records: what an interrupted scan leaves behind."""
    with open(src, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    records = [line for line in lines[1:] if '"complete"' not in line]
    kept = [lines[0]] + records[: len(records) // 2]
    with open(dst, "w", encoding="ascii") as fh:
        fh.write("\n".join(kept) + "\n")


def build(workload: str, seed: int, size: str, workdir: str, traced: bool = False) -> list[Request]:
    """The requests of one pass; the same seed gives the same requests.

    traced runs scan-fine with one worker, since spans inside pool workers
    cannot be collected from outside.
    """
    cfg = FULL if size == "full" else SMOKE
    rng = random.Random(f"{workload}:{seed}")
    fmt = rng.choice(("csv", "json"))
    if workload == "scan-wide":
        limit = _jitter(rng, cfg["scan_wide_limit"])
        argv = _fmt(fmt) + ["scan", "--limit", str(limit), "--threads", "1"]
        return [Request("scan", argv, _check_scan(fmt, limit), indices=limit)]
    if workload == "scan-fine":
        return _scan_fine(rng, cfg, fmt, workdir, traced)
    if workload == "queries":
        return _queries(rng, cfg, fmt)
    raise ValueError(f"unknown workload {workload!r}")


def _scan_fine(rng, cfg, fmt, workdir, traced) -> list[Request]:
    limit = _jitter(rng, cfg["scan_fine_limit"])
    fresh_ck = os.path.join(workdir, "fresh.ckpt")
    resume_ck = os.path.join(workdir, "resume.ckpt")
    base = _fmt(fmt) + [
        "scan", "--limit", str(limit), "--chunk", str(cfg["scan_fine_chunk"]),
        "--threads", "1" if traced else "2", "--checkpoint",
    ]
    stash: dict[str, bytes] = {}
    fresh_check = _check_scan(fmt, limit, stash, "fresh")

    def resume_check(out: bytes):
        reason = fresh_check(out)
        if reason is None and out != stash.get("fresh"):
            reason = "resumed scan output differs from the fresh scan"
        return reason

    def clear():
        for path in (fresh_ck, resume_ck):
            if os.path.exists(path):
                os.remove(path)

    def cut():
        _truncate_checkpoint(fresh_ck, resume_ck)

    return [
        Request("fresh", base + [fresh_ck], fresh_check, prepare=clear, indices=limit),
        Request("resume", base + [resume_ck], resume_check, prepare=cut, indices=limit),
    ]


def _queries(rng, cfg, verify_fmt) -> list[Request]:
    """One request per grid point, and one verify. The seed rotates the seq
    names and the sets orders over their grids, so each pass covers every
    name and order at a cost that hardly depends on the seed."""
    specs = []
    for x in _grid(*cfg["profile"]):
        specs.append(("profile", _jitter(rng, x)))
    turn = rng.randrange(len(SEQ_NAMES))
    for i, x in enumerate(_grid(*cfg["seq_lo"])):
        name = SEQ_NAMES[(i + turn) % len(SEQ_NAMES)]
        k = rng.randint(1, 3) if name == "db_k" else None
        specs.append(("seq", name, _jitter(rng, x), k))
    turn = rng.randrange(3)
    for i, x in enumerate(_grid(*cfg["sets_limit"])):
        specs.append(("sets", 1 + (i + turn) % 3, _jitter(rng, x)))
    for x in _grid(*cfg["radset_limit"]):
        specs.append(("radset", _jitter(rng, x)))
    specs.append(("verify", cfg["verify_limit"]))
    rng.shuffle(specs)

    ref = Reference(max(s[1] for s in specs if s[0] == "profile"))
    first = rng.randrange(2)
    requests = []
    for i, spec in enumerate(specs):
        fmt = ("csv", "json")[(i + first) % 2]
        kind = spec[0]
        if kind == "profile":
            n = spec[1]
            req = Request(f"profile {n}", _fmt(fmt) + ["profile", str(n)], _check_profile(ref, n, fmt))
        elif kind == "seq":
            _, name, lo, k = spec
            hi = lo + SEQ_WINDOW - 1
            argv = _fmt(fmt) + ["seq", name, str(lo), str(hi)] + (["--k", str(k)] if k else [])
            req = Request(f"seq {name} {lo}", argv, _check_seq(ref, name, lo, hi, k, fmt))
        elif kind == "sets":
            _, k, limit = spec
            want = tuple(n for n in S_K[k] if n <= limit)
            argv = _fmt(fmt) + ["sets", "--k", str(k), "--limit", str(limit)]
            req = Request(f"sets {k} {limit}", argv, _check_members(ref, want, k == 1, fmt))
        elif kind == "verify":
            limits = ["--limit", str(spec[1]), "--oracle-limit", str(cfg["oracle_limit"])]
            req = Request("verify", _fmt(verify_fmt) + ["verify"] + limits, _check_verify(verify_fmt))
        else:
            limit = spec[1]
            want = tuple(n for n in RAD_SET if n <= limit)
            argv = _fmt(fmt) + ["radset", "--limit", str(limit)]
            req = Request(f"radset {limit}", argv, _check_members(ref, want, False, fmt))
        requests.append(req)
    return requests


def setup_request() -> Request:
    """The set-up probe: start-up, imports and the smallest sieve."""
    return Request("setup", ["profile", "1"], _check_profile(Reference(1), 1, "csv"))
