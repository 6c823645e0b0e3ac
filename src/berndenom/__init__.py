"""Exact denominators of Bernoulli polynomials and their derivatives.

Product formulas over primes with heavy base-p digit sums (denom), an exact
rational ground-truth path (oracle), large-range scanners with checkpointing
(scanner), and invariant suites tying them together (verify).
"""

from .arith import (
    PrimeSieve,
    SieveSizeError,
    SquarefreeProduct,
    digit_sum,
    falling_factorial,
    is_prime,
    radical,
    sieve,
)
from .denom import (
    DenomProfile,
    db,
    db_k,
    dd,
    dd_split_divisibility,
    dd_split_sqrt,
    dn,
    ds,
    omega_dd_plus,
    profile,
)
from .oracle import (
    RationalPolynomial,
    bernoulli_numbers,
    bernoulli_polynomial,
    denominator_of,
    derivative,
    sum_of_powers_polynomial,
)
from .scanner import (
    CheckpointError,
    ScanChunk,
    ScanResult,
    SetReport,
    find_rad_set,
    find_sets,
    run_scan,
    scan_omega_plus,
)
from .verify import FamilyResult, run_verification

__version__ = "0.1.0"

__all__ = [
    "CheckpointError",
    "DenomProfile",
    "FamilyResult",
    "PrimeSieve",
    "RationalPolynomial",
    "ScanChunk",
    "ScanResult",
    "SetReport",
    "SieveSizeError",
    "SquarefreeProduct",
    "bernoulli_numbers",
    "bernoulli_polynomial",
    "db",
    "db_k",
    "dd",
    "dd_split_divisibility",
    "dd_split_sqrt",
    "denominator_of",
    "derivative",
    "digit_sum",
    "dn",
    "ds",
    "falling_factorial",
    "find_rad_set",
    "find_sets",
    "is_prime",
    "omega_dd_plus",
    "profile",
    "radical",
    "run_scan",
    "run_verification",
    "scan_omega_plus",
    "sieve",
    "sum_of_powers_polynomial",
]
