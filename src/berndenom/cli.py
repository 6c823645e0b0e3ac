"""Command-line interface with deterministic CSV/JSON output.

Subcommands: profile, seq, scan, sets, radset, verify. Each subparser names
its handler with set_defaults(run=...); a handler builds its result once, as a
JSON payload and as CSV rows, and hands both to _emit, which writes the one
--format asks for. Exit codes: 0 on success, 1 when verification finds a
counterexample, 2 on usage errors, 141 when the reader of stdout closes it
early. Values that may exceed 2**53 are emitted as decimal strings in JSON.
scanner and verify are imported by the commands that run them, so profile
and seq start without loading either. run() is the process entry: it exits
without the interpreter's teardown once main has written and closed everything.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from dataclasses import asdict, fields

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # berndenom calls no BLAS: numpy's pool only spins
from . import denom
from .arith import SieveSizeError, decimal_str, is_prime

PROFILE_FIELDS = (*(field.name for field in fields(denom.DenomProfile)), "in_rad_set")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return decimal_str(value) if isinstance(value, int) else str(value)


def _emit(args, payload, header, rows) -> None:
    """Write a command's one result: payload as one JSON line, or header and
    rows as CSV, whichever --format asks for. An iterator in payload is read
    as a list, and only for JSON, so CSV never builds what only JSON prints."""
    out = sys.stdout
    if args.format == "json":
        out.write(json.dumps(payload, sort_keys=True, separators=(",", ":"), default=list) + "\n")
        return
    out.write(",".join(header) + "\n")
    for row in rows:
        out.write(",".join(_csv_cell(v) for v in row) + "\n")


def _usage_failure(exc: Exception) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return 2


def _cmd_profile(args, parser: argparse.ArgumentParser) -> int:
    if args.n >= (1 << 63) - 1:
        parser.error(f"profile needs n + 1 < 2**63, got n = {args.n}")
    prof = denom.profile(args.n)
    small = ("n", "omega_plus", "in_rad_set")  # below 2**53; the rest go as strings
    record = {
        name: getattr(prof, name) if name in small else decimal_str(getattr(prof, name))
        for name in PROFILE_FIELDS
    }
    _emit(args, record, PROFILE_FIELDS, [record.values()])
    return 0


def _cmd_seq(args, parser: argparse.ArgumentParser) -> int:
    try:
        values = denom.sequence(args.name, args.lo, args.hi, args.k)
    except SieveSizeError:
        raise  # not a usage error: main reports it as a refusal
    except ValueError as exc:
        parser.error(str(exc))
    rows = zip(range(args.lo, args.hi + 1), values)
    payload = {
        "name": args.name,
        "k": args.k,
        "lo": args.lo,
        "hi": args.hi,
        "rows": ({"n": n, "value": decimal_str(v)} for n, v in rows),
    }
    _emit(args, payload, ("n", "value"), rows)
    return 0


def _print_warning(message, *_) -> None:
    print(f"warning: {message}", file=sys.stderr)


def _cmd_scan(args, parser: argparse.ArgumentParser) -> int:
    from . import scanner

    try:
        with warnings.catch_warnings():  # the library's warnings, without its source lines
            warnings.simplefilter("always")
            warnings.showwarning = _print_warning
            result = scanner.run_scan(
                args.limit,
                threads=args.threads,
                chunk_size=args.chunk,
                checkpoint_path=args.checkpoint,
            )
    except (scanner.CheckpointError, OSError) as exc:
        return _usage_failure(exc)
    top = max(result.exceptional) if result.exceptional else None
    payload = {
        "limit": args.limit,
        "chunk_size": result.chunk_size,
        "exceptional": result.exceptional,
        "exceptional_count": len(result.exceptional),
        "max_exceptional": top,
        "digest": result.digest,
    }
    _emit(args, payload, ("n",), [(n,) for n in result.exceptional])
    print(
        f"scanned 1..{args.limit}: {len(result.exceptional)} indices with no prime "
        f"above sqrt(n); max {top}; digest {result.digest[:16]}",
        file=sys.stderr,
    )
    return 0


def _cmd_sets(args, parser: argparse.ArgumentParser) -> int:
    from . import scanner

    members = scanner.find_sets(args.k, args.limit)
    payload = {"k": args.k, "limit": args.limit, "members": members}
    header, rows = ("n",), [(n,) for n in members]
    if args.k == 1:
        payload["next_is_prime"] = flags = [is_prime(n + 1) for n in members]
        header, rows = ("n", "next_prime"), zip(members, flags)
    _emit(args, payload, header, rows)
    return 0


def _cmd_radset(args, parser: argparse.ArgumentParser) -> int:
    from . import scanner

    members = scanner.find_rad_set(args.limit)
    _emit(args, {"limit": args.limit, "members": members}, ("n",), [(n,) for n in members])
    return 0


def _cmd_verify(args, parser: argparse.ArgumentParser) -> int:
    from . import verify

    if args.oracle_limit > 1000:
        parser.error("--oracle-limit is capped at 1000")
    fault = None
    if args.inject_fault:
        name, _, index = args.inject_fault.partition(":")
        if name not in verify.FAMILIES:
            parser.error(f"unknown verification family {name!r}")
        try:
            fault = (name, int(index) if index else 1)
        except ValueError:
            parser.error(f"bad fault index in {args.inject_fault!r}")
    results = verify.run_verification(
        limit=args.limit, oracle_limit=args.oracle_limit, fault=fault
    )
    passed = all(r.passed for r in results)
    payload = {
        "limit": args.limit,
        "oracle_limit": args.oracle_limit,
        "passed": passed,
        "families": [asdict(r) for r in results],
    }
    rows = [
        (r.family, "pass" if r.passed else "fail", r.checked, "" if r.witness is None else r.witness)
        for r in results
    ]
    _emit(args, payload, ("family", "status", "checked", "witness"), rows)
    return 0 if passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="berndenom",
        description="Denominators of Bernoulli polynomials and their derivatives, "
        "computed from prime digit-sum products.",
    )
    parser.add_argument(
        "--format",
        choices=("csv", "json"),
        default="csv",
        help="output encoding (default: csv)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_profile = sub.add_parser("profile", help="every denominator quantity at one index")
    p_profile.set_defaults(run=_cmd_profile)
    p_profile.add_argument("n", type=_positive_int)

    p_seq = sub.add_parser("seq", help="emit one sequence over an index range")
    p_seq.set_defaults(run=_cmd_seq)
    p_seq.add_argument("name", choices=denom.SEQUENCES)
    p_seq.add_argument("lo", type=int)
    p_seq.add_argument("hi", type=int)
    p_seq.add_argument("--k", type=_positive_int, default=None, help="derivative order for db_k")

    p_scan = sub.add_parser("scan", help="find every n <= limit with no heavy prime above sqrt(n)")
    p_scan.set_defaults(run=_cmd_scan)
    p_scan.add_argument("--limit", type=_positive_int, required=True)
    p_scan.add_argument("--threads", type=_positive_int, default=1,
                        help="worker threads (default: 1)")
    p_scan.add_argument("--chunk", type=_positive_int, help="indices per checkpoint record, not memory "
                        "(default: 1048576, or limit / 4096 to a power of 2 past 2^32)")
    p_scan.add_argument("--checkpoint", default=None, help="resumable checkpoint path")

    p_sets = sub.add_parser("sets", help="indices whose k-th derivative is integral")
    p_sets.set_defaults(run=_cmd_sets)
    p_sets.add_argument("--k", type=_positive_int, required=True)
    p_sets.add_argument("--limit", type=_positive_int, default=10000)

    p_radset = sub.add_parser("radset", help="indices where dd(n) equals the kernel of n+1")
    p_radset.set_defaults(run=_cmd_radset)
    p_radset.add_argument("--limit", type=_positive_int, default=10000)

    p_verify = sub.add_parser("verify", help="run the invariant suites")
    p_verify.set_defaults(run=_cmd_verify)
    p_verify.add_argument("--limit", type=_positive_int, default=1000)
    p_verify.add_argument("--oracle-limit", type=_positive_int, default=100)
    p_verify.add_argument("--inject-fault", default=None, help=argparse.SUPPRESS)

    return parser


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # dd(n) passes 4300 digits near n = 4e7
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.run(args, parser)
        sys.stdout.flush()  # a reader gone before the last block surfaces here, not at exit
        return code
    except SieveSizeError as exc:
        return _usage_failure(exc)
    except BrokenPipeError:
        # the reader stopped early (`| head`): stdout now leads to devnull, so
        # the flush at exit cannot raise again; 141 is 128 + SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


def run() -> None:
    code = main()  # every byte is written and every file closed by now
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
