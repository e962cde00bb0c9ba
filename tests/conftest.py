"""Shared fixtures for the test suite."""

import os
from contextlib import ExitStack
from dataclasses import asdict

import pytest
from hypothesis import HealthCheck, settings

from repro.config import EngineConfig, override
from repro.system import build_system, compile_all_interfaces

# Hypothesis profiles, selected via HYPOTHESIS_PROFILE:
#   ci      — derandomized: PR checks are reproducible and flake-free;
#             the example corpus is fixed, so a red run is a real bug.
#   nightly — randomized with a larger example budget: the nightly
#             campaign workflow spends fresh entropy hunting for inputs
#             the derandomized corpus can't reach.  Failures upload the
#             .hypothesis example database as an artifact.
#   dev     — local default: randomized, no deadline (pooled system
#             boots make first examples slow).
settings.register_profile(
    "ci",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile(
    "nightly",
    derandomize=False,
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile("dev", deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))


@pytest.fixture(scope="session", autouse=True)
def engine_defaults():
    """Run every test, and every fixture of any scope, under the default
    engine configuration, whatever ``REPRO_*`` gates the calling shell
    exported."""
    with override(**asdict(EngineConfig())):
        yield


@pytest.fixture
def engine(engine_defaults):
    """``engine(**fields)`` overrides engine gates for the rest of the
    test, e.g. ``engine(system_pool=False)``; later calls stack, and
    teardown undoes them all."""
    with ExitStack() as stack:
        yield lambda **fields: stack.enter_context(override(**fields))


@pytest.fixture(scope="session")
def compiled():
    """All six service interfaces, compiled once per session."""
    return compile_all_interfaces()


@pytest.fixture
def sg_system():
    """A fresh system with SuperGlue-generated stubs."""
    return build_system(ft_mode="superglue")


@pytest.fixture
def c3_system():
    """A fresh system with hand-written C^3 stubs."""
    return build_system(ft_mode="c3")


@pytest.fixture
def bare_system():
    """A fresh system with no fault tolerance."""
    return build_system(ft_mode="none")


@pytest.fixture(params=["c3", "superglue"])
def ft_system(request):
    """Parametrised over both fault-tolerant stub flavours."""
    return build_system(ft_mode=request.param)
