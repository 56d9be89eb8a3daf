"""Benchmark-harness infrastructure.

Every bench regenerates one of the paper's tables/figures, times it with
pytest-benchmark, and registers the rendered table through the
``report`` fixture; all tables are printed together in the terminal
summary (so ``pytest benchmarks/ --benchmark-only | tee ...`` captures
them) and written to ``benchmarks/results/``.

Set ``REPRO_BENCH_SIZE=small`` (or ``tiny``) for a quick pass; the
default regenerates the full-size evaluation.  Only ``full`` writes the
tracked ``benchmarks/results/``: any other size writes its tables under
the git-ignored ``.bench_build/results/<size>/``.

The whole simulation grid is warmed once per session through the
execution engine (``repro.sim.engine``) — deduplicated, fanned out over
``REPRO_JOBS`` workers and backed by the persistent result cache — so
the individual benches then measure table assembly over cache hits.
Warm-up and hit/miss telemetry are reported in the terminal summary.
"""

import os
import pathlib
import time

import pytest

#: Workload size used by every bench.
SIZE = os.environ.get("REPRO_BENCH_SIZE", "full")

_HERE = pathlib.Path(__file__).parent
_RESULTS_DIR = (_HERE / "results" if SIZE == "full"
                else _HERE.parent / ".bench_build" / "results" / SIZE)
_TABLES = []
_WARM_STATS = {}


@pytest.fixture(scope="session", autouse=True)
def warm_result_cache():
    """Warm the engine's batch once per session (every experiment grid)."""
    from repro.sim.engine import get_engine
    from repro.sim.experiments import prefetch

    engine = get_engine()
    before = engine.telemetry.snapshot()
    started = time.perf_counter()
    after = prefetch(size=SIZE)
    _WARM_STATS.update({
        "wall_s": time.perf_counter() - started,
        "jobs": engine.jobs,
        "simulated": after["computed"] - before["computed"],
        "disk_hits": after["disk_hits"] - before["disk_hits"],
        "memory_hits": after["memory_hits"] - before["memory_hits"],
        "unique_points": after["unique"] - before["unique"],
    })
    yield


@pytest.fixture
def report():
    """Collect a rendered ExperimentTable for the terminal summary."""

    def _report(table):
        _TABLES.append(table)
        _RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        filename = table.exp_id.lower().replace(" ", "") + ".txt"
        (_RESULTS_DIR / filename).write_text(table.render() + "\n")
        return table

    return _report


@pytest.fixture
def size():
    return SIZE


def pytest_terminal_summary(terminalreporter):
    if _WARM_STATS:
        from repro.sim.engine import get_engine, resolve_jobs
        telemetry = get_engine().telemetry
        terminalreporter.write_sep("=", "simulation engine (size={})"
                                        .format(SIZE))
        terminalreporter.write_line(
            "cache warm-up : {unique_points} unique points, {simulated} "
            "simulated, {disk_hits} disk hits, {memory_hits} memory hits "
            "in {wall_s:.2f}s".format(**_WARM_STATS))
        terminalreporter.write_line(
            "session total : {} simulated / {} hits (hit ratio {:.0%}), "
            "jobs={}".format(
                telemetry.computed, telemetry.hits, telemetry.hit_ratio(),
                resolve_jobs(get_engine().jobs)))
    if not _TABLES:
        return
    terminalreporter.write_sep("=", "regenerated paper tables/figures "
                                    "(size={})".format(SIZE))
    for table in _TABLES:
        terminalreporter.write_line(table.render())
        terminalreporter.write_line("")
