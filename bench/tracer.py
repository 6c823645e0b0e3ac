"""Run one berndenom CLI request with a span around each public function.

Usage: python bench/tracer.py SPANS_OUT ARG...

Every function listed in TRACED is replaced by a timing wrapper under every
module name that bound it (shared_sieve lives in arith but is also bound in
denom, scanner and verify; sieve is bound as build_sieve in scanner). Spans
stay in memory and are written to SPANS_OUT as JSON when the request ends,
also when it ends in an exception. Each span is
[id, parent_id, name, start_s, end_s, fields].
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import sys
import time

TRACED = {
    "arith": ("sieve", "shared_sieve", "radical"),
    "denom": (
        "qualifying_primes", "dd", "dd_split_sqrt", "dd_split_divisibility",
        "dn", "db", "ds", "db_k", "omega_dd_plus", "profile",
    ),
    "scanner": (
        "scan_omega_plus", "checkpoint_save", "checkpoint_resume",
        "run_scan", "find_sets", "find_rad_set",
    ),
    "oracle": (
        "bernoulli_numbers", "bernoulli_polynomial", "derivative",
        "drop_constant_term", "sum_of_powers_polynomial", "denominator_of",
    ),
    "verify": ("run_verification",),
    "cli": ("main",),
}


def _file_size(path) -> int:
    path = os.fspath(path)
    return os.path.getsize(path) if os.path.exists(path) else 0


# Fields recorded when a call returns, from its arguments by name and its result.
FIELDS = {
    "arith.sieve": lambda a, r: {"primes": len(r.primes)},
    "denom.qualifying_primes": lambda a, r: {"n": a["n"], "found": len(r)},
    "scanner.scan_omega_plus": lambda a, r: {"lo": a["lo"], "hi": a["hi"]},
    "scanner.checkpoint_save": lambda a, r: {"bytes": _file_size(a["path"])},
    "scanner.checkpoint_resume": lambda a, r: {"bytes": _file_size(a["path"])},
    "verify.run_verification": lambda a, r: {"checked": sum(f.checked for f in r)},
}


def install(spans: list) -> None:
    """Wrap every TRACED function wherever the berndenom package bound it."""
    modules = [importlib.import_module("berndenom")]
    modules += [importlib.import_module(f"berndenom.{m}") for m in TRACED]
    stack: list[int] = []

    def wrap(name, fn):
        fields = FIELDS.get(name)
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            span_id = len(spans)
            span = [span_id, stack[-1] if stack else None, name, 0.0, 0.0, None]
            spans.append(span)
            stack.append(span_id)
            span[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                stack.pop()
            if fields is not None:
                span[5] = fields(signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    for module_name, names in TRACED.items():
        home = sys.modules[f"berndenom.{module_name}"]
        for fn_name in names:
            fn = getattr(home, fn_name)
            wrapped = wrap(f"{module_name}.{fn_name}", fn)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapped)


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    spans: list = []
    install(spans)
    from berndenom import cli

    try:
        return cli.main(argv)
    finally:
        sys.stdout.flush()
        with open(out_path, "w", encoding="ascii") as fh:
            fh.write(json.dumps(spans))


if __name__ == "__main__":
    sys.exit(main())
