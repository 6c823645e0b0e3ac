import pytest

from berndenom import arith, scanner


@pytest.fixture(scope="session")
def sieve_20k():
    # covers qualifying-prime enumeration for every n up to ~40000
    return arith.sieve(20_002)


@pytest.fixture(scope="session")
def sieve_1m():
    # covers every index up to 2 * 10**6
    return arith.sieve(10**6)


@pytest.fixture(scope="session")
def sieve_5m():
    # covers every index up to 10**7
    return arith.sieve(5 * 10**6)


@pytest.fixture(scope="session")
def scan_million():
    sv = arith.sieve((10**6 + 1) // 2 + 10)
    return scanner.scan_omega_plus(1, 10**6, sv)
