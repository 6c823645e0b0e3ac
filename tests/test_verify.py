"""The fault hook of run_verification, family by family, and a family
failing on a real fault in the code it checks.

A fault flips the verdict of one index, so a passing family must then fail
with that index as its witness, and checked must be its position in the
family's index order.
"""

import pytest

from berndenom import denom, verify

LIMIT, ORACLE_LIMIT = 300, 30


def family_indices(family: str) -> list[int]:
    indices, _ = verify._FAMILIES[family]
    return list(indices(verify._Context(LIMIT, ORACLE_LIMIT)))


@pytest.mark.parametrize("family", verify.FAMILIES)
def test_fault_fails_the_family_at_its_index(family):
    indices = family_indices(family)
    for position in sorted({1, (len(indices) + 1) // 2, len(indices)}):
        x = indices[position - 1]
        [result] = verify.run_verification(
            limit=LIMIT, oracle_limit=ORACLE_LIMIT, families=[family], fault=(family, x)
        )
        assert (result.passed, result.witness, result.checked) == (False, x, position)


def test_derivative_small_primes_catches_a_mask_that_drops_primes(monkeypatch):
    # every prime this mask keeps still exceeds k, so only a route to the
    # primes of db_k apart from the mask can tell it is wrong
    monkeypatch.setattr(denom.PrimePairs, "kept", lambda self, k: (self.n + k - 1) % self.p >= k + 1)
    [result] = verify.run_verification(families=["derivative-small-primes"])
    assert (result.passed, result.witness, result.checked) == (False, 3, 3)
