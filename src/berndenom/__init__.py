"""Exact denominators of Bernoulli polynomials and their derivatives.

Product formulas over primes with heavy base-p digit sums (denom), an exact
rational ground-truth path (oracle), large-range scanners with checkpointing
(scanner), and invariant suites tying them together (verify).

Importing the package loads none of them. Each name in __all__ is read from
its home submodule on access (PEP 562), importing that submodule the first
time, so `from berndenom import dd` loads denom and arith only, and a CLI
request loads just the modules its command runs.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "arith": (
        "PrimeSieve", "SieveSizeError", "digit_sum", "is_prime", "radical",
        "sieve",
    ),
    "denom": (
        "DenomProfile", "db", "db_k", "dd", "dd_split_divisibility",
        "dd_split_sqrt", "dn", "ds", "omega_dd_plus", "profile",
    ),
    "oracle": (
        "RationalPolynomial", "bernoulli_numbers", "bernoulli_polynomial",
        "denominator_of", "derivative", "sum_of_powers_polynomial",
    ),
    "scanner": (
        "CheckpointError", "ScanChunk", "ScanResult", "find_rad_set",
        "find_sets", "run_scan", "scan_omega_plus",
    ),
    "verify": ("FamilyResult", "run_verification"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{home}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
