import pytest

from berndenom import denom, scanner


@pytest.fixture(scope="session")
def scan_million():
    return scanner.scan_omega_plus(1, 10**6)


@pytest.fixture(scope="session")
def counts_million():
    """omega_+(n) for every n <= 10^6, the counts behind scan_million."""
    return denom._run_counts(1, 10**6)
