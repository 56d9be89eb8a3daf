"""Shared fixtures for the test suite.

Workload builds are cached at session scope (they are deterministic and
read-only to the simulator), so the many tests that need a trace don't
re-run the kernels.
"""

import os

import pytest

try:
    from hypothesis import settings as _hyp_settings

    # On failure, print the @reproduce_failure blob alongside the
    # falsifying example, so a property-test failure in CI is
    # reproducible from the log alone (paired with the note() calls in
    # the property tests that print the generated workload spec).
    _hyp_settings.register_profile("repro", print_blob=True)
    _hyp_settings.load_profile("repro")
except ImportError:  # property tests will skip without hypothesis
    pass

from repro.common.config import CacheConfig, small_config
from repro.common.stats import StatsRegistry
from repro.workloads.registry import BENCHMARKS, build_workload


@pytest.fixture(scope="session", autouse=True)
def _isolated_result_cache(tmp_path_factory):
    """Point the engine's persistent cache at a throwaway directory.

    Keeps the developer's real ``~/.cache/repro`` out of test runs (no
    pollution from tiny workloads, no stale hits masking in-test model
    mutation) while still exercising the disk-cache code paths.
    """
    previous = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(
        tmp_path_factory.mktemp("repro-result-cache"))
    yield
    if previous is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = previous


@pytest.fixture
def fresh_engine(tmp_path, monkeypatch):
    """Isolate the process-wide engine (and its cache dir) per test."""
    from repro.sim.engine import reset_engine
    from repro.sim.simulator import clear_cache
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    clear_cache()   # drop the in-process result memo too
    reset_engine()
    yield
    clear_cache()
    reset_engine()


@pytest.fixture
def stats():
    return StatsRegistry()


@pytest.fixture
def config():
    return small_config()


@pytest.fixture
def tiny_cache_config():
    """A 4-set, 2-way, 64 B-line cache: small enough to force evictions."""
    return CacheConfig(size_bytes=512, ways=2, hit_latency=1)


@pytest.fixture(scope="session", params=BENCHMARKS)
def any_tiny_workload(request):
    """Each benchmark's tiny workload, parametrised."""
    return build_workload(request.param, "tiny")


@pytest.fixture(scope="session")
def adpcm_tiny():
    return build_workload("adpcm", "tiny")


@pytest.fixture(scope="session")
def fft_tiny():
    return build_workload("fft", "tiny")


def make_mem_system(config=None):
    """Host memory system + fresh stats, for protocol tests."""
    from repro.coherence.mesi import HostMemorySystem
    config = config or small_config()
    stats = StatsRegistry()
    return HostMemorySystem(config, stats), stats


class RecordingTileAgent:
    """Tile agent stub that records forwarded requests."""

    def __init__(self, dirty=False, stall=0):
        self.dirty = dirty
        self.stall = stall
        self.requests = []

    def handle_forwarded_request(self, pblock, now, is_store):
        self.requests.append((pblock, now, is_store))
        return self.stall, self.dirty
