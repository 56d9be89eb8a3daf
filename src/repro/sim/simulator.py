"""Top-level simulation driver.

``run(system, benchmark)`` builds the workload, assembles the system and
executes it, returning a :class:`repro.sim.results.RunResult`.  Results
are memoised in-process — every experiment that needs the same (system,
benchmark, size, config) triple shares one simulation — and each point
is routed through the process-wide :class:`repro.sim.engine`
:class:`~repro.sim.engine.ExecutionEngine`, which adds a persistent
on-disk result cache and, for batch submitters (``prefetch``, sweeps,
the benchmark harness), process-pool parallelism.
"""

from functools import lru_cache

from ..common.config import small_config
from ..workloads import registry
from .engine import RunRequest, get_engine

#: The three systems compared in Figure 6 (FUSION-Dx is studied
#: separately in Table 5).
FIGURE6_SYSTEMS = ("SCRATCH", "SHARED", "FUSION")


def run(system_name, benchmark, size="full", config=None):
    """Run one system on one benchmark; returns a :class:`RunResult`.

    Any :class:`RunRequest` spelling works, co-resident runs included
    (``run("FUSION", "adpcm+filter")``); the engine checks it.
    """
    if config is None:
        config = small_config()
    return _run_cached(system_name, benchmark, size, config)


@lru_cache(maxsize=None)
def _run_cached(system_name, benchmark, size, config):
    return get_engine().run_one(
        RunRequest(system_name, benchmark, size, config))


def run_all(benchmark, size="full", config=None, systems=FIGURE6_SYSTEMS):
    """Run several systems on one benchmark; returns {system: result}."""
    return {name: run(name, benchmark, size, config) for name in systems}


def clear_cache():
    """Drop every memoised result (used by tests that mutate global models).

    Clears the in-process result memo, the workload-build caches in
    :mod:`repro.workloads.registry`, and the disk-cache layer's
    in-memory index; it also bumps the engine's cache epoch so the
    *on-disk* store cannot serve results computed before the mutation
    (fresh processes, whose globals are pristine, still hit it).
    """
    _run_cached.cache_clear()
    registry.clear_caches()
    get_engine().bump_epoch()
