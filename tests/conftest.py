import pytest

from berndenom import denom, scanner


@pytest.fixture
def many_cpus(monkeypatch):
    """A machine of 64 CPUs as run_scan sees it, so that a scan on 2 to 4 threads
    starts them on any runner rather than fewer at its os.cpu_count() cap."""
    monkeypatch.setattr(scanner.os, "cpu_count", lambda: 64)


@pytest.fixture(scope="session")
def scan_million():
    return scanner.scan_omega_plus(1, 10**6)


@pytest.fixture(scope="session")
def counts_million():
    """omega_+(n) for every n <= 10^6, the counts behind scan_million."""
    return denom._run_counts(1, 10**6)
