import pytest

from berndenom import scanner


@pytest.fixture(scope="session")
def scan_million():
    return scanner.scan_omega_plus(1, 10**6)
