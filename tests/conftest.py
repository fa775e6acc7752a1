"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.backend import shm_backend
from repro.backend.shm_backend import WORKERS_ENV_VAR, ShmBackend
from repro.core.configuration import ComponentKind, ReplicaConfiguration, SoftwareComponent
from repro.core.population import Replica, ReplicaPopulation
from repro.datasets.software_ecosystem import default_ecosystem, skewed_ecosystem
from repro.experiments.orchestrator.cache import CACHE_DIR_ENV_VAR
from repro.faults.catalog import VulnerabilityCatalog
from repro.faults.vulnerability import Severity, Vulnerability


@pytest.fixture(autouse=True)
def _isolated_result_cache(tmp_path, monkeypatch):
    """Point the orchestrator's result cache at a per-test directory.

    Keeps CLI/engine tests hermetic: no test reads another test's cache
    entries, and no test run litters the repository with ``.repro-cache/``.
    """
    monkeypatch.setenv(CACHE_DIR_ENV_VAR, str(tmp_path / "result-cache"))


@pytest.fixture
def linux_alpha_config() -> ReplicaConfiguration:
    """A concrete configuration used across fault-model tests."""
    return ReplicaConfiguration.from_names(
        operating_system="linux",
        consensus_client="client-alpha",
        crypto_library="openssl",
    )


@pytest.fixture
def freebsd_beta_config() -> ReplicaConfiguration:
    """A second configuration sharing no component with ``linux_alpha_config``."""
    return ReplicaConfiguration.from_names(
        operating_system="freebsd",
        consensus_client="client-beta",
        crypto_library="libsodium",
    )


@pytest.fixture
def small_population(linux_alpha_config, freebsd_beta_config) -> ReplicaPopulation:
    """Four replicas: three on the linux/alpha stack, one on freebsd/beta."""
    return ReplicaPopulation(
        [
            Replica("r0", linux_alpha_config, power=1.0),
            Replica("r1", linux_alpha_config, power=1.0),
            Replica("r2", linux_alpha_config, power=1.0),
            Replica("r3", freebsd_beta_config, power=1.0),
        ]
    )


@pytest.fixture
def unique_population() -> ReplicaPopulation:
    """Eight replicas, each with a unique configuration and equal power."""
    return ReplicaPopulation.with_unique_configurations(8)


@pytest.fixture
def openssl_vulnerability() -> Vulnerability:
    """A critical vulnerability in the shared crypto library."""
    return Vulnerability(
        vuln_id="CVE-TEST-OPENSSL",
        component=SoftwareComponent(ComponentKind.CRYPTO_LIBRARY, "openssl", "1.0"),
        severity=Severity.CRITICAL,
    )


@pytest.fixture
def linux_vulnerability() -> Vulnerability:
    """A vulnerability in the dominant operating system."""
    return Vulnerability(
        vuln_id="CVE-TEST-LINUX",
        component=SoftwareComponent(ComponentKind.OPERATING_SYSTEM, "linux", "1.0"),
        severity=Severity.HIGH,
    )


@pytest.fixture
def catalog(openssl_vulnerability, linux_vulnerability) -> VulnerabilityCatalog:
    """A catalog holding the two fixture vulnerabilities."""
    return VulnerabilityCatalog([openssl_vulnerability, linux_vulnerability])


@pytest.fixture
def ecosystem():
    """The default synthetic software ecosystem."""
    return default_ecosystem()


@pytest.fixture
def monoculture_ecosystem():
    """The skewed, monoculture-leaning ecosystem."""
    return skewed_ecosystem()


@pytest.fixture
def pooled_shm(monkeypatch):
    """A fresh shm backend whose every kernel call runs on its worker pool.

    Two workers unless the test sets ``REPRO_SHM_WORKERS`` itself (one
    worker always runs inline).  The pool forks on the first kernel call,
    so chaos rules armed before that call reach the workers, and it is shut
    down when the test ends.
    """
    if not ShmBackend.is_available():
        pytest.skip(f"shm backend unavailable: {ShmBackend.availability_error()}")
    monkeypatch.setenv(WORKERS_ENV_VAR, "2")
    monkeypatch.setattr(shm_backend, "INLINE_CELL_LIMIT", 0)
    backend = ShmBackend()
    yield backend
    backend.close()
