"""Exact denominators of Bernoulli polynomials and their derivatives.

Product formulas over primes with heavy base-p digit sums (denom), an exact
rational ground-truth path (oracle), large-range scans with checkpointing
(scanner), and invariant suites tying them together (verify). Import each
name from its module, as in `from berndenom.denom import dd`: importing the
package loads none of them, and a CLI request loads just the modules its
command runs.
"""

__version__ = "0.1.0"
