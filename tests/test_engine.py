"""The parallel execution engine and persistent result cache
(repro.sim.engine)."""

import dataclasses
import os
import pathlib
import pickle

import pytest

from repro.common.config import (
    ConfigError,
    SystemConfig,
    config_fingerprint,
    small_config,
    stable_config_dict,
)
from repro.sim.engine import (
    CACHE_SCHEMA_VERSION,
    DiskCache,
    ExecutionEngine,
    RunRequest,
    cache_key,
    code_fingerprint,
    configure,
    get_engine,
    reset_engine,
    resolve_jobs,
)
from repro.sim.simulator import clear_cache, run


@pytest.fixture
def engine(tmp_path):
    """A private engine over a throwaway cache directory."""
    return ExecutionEngine(cache=DiskCache(tmp_path / "cache"))


def _batch(*systems, size="tiny", benchmark="adpcm", config=None):
    return [RunRequest(system, benchmark, size, config)
            for system in systems]


# -- config fingerprinting -------------------------------------------------

def test_equal_configs_fingerprint_identically():
    assert (config_fingerprint(small_config())
            == config_fingerprint(small_config()))


def test_any_field_change_changes_fingerprint():
    base = small_config()
    assert (config_fingerprint(base)
            != config_fingerprint(base.with_lease(123)))
    assert (config_fingerprint(base)
            != config_fingerprint(dataclasses.replace(base, name="x")))


def test_unfingerprintable_config_rejected():
    with pytest.raises(ConfigError, match="cannot fingerprint"):
        stable_config_dict(lambda: None)


def test_stable_dict_sorts_mappings_and_sets():
    assert stable_config_dict({"b": 1, "a": 2}) == \
        stable_config_dict({"a": 2, "b": 1})
    assert stable_config_dict({2, 1, 3}) == stable_config_dict({3, 1, 2})


# -- cache keys ------------------------------------------------------------

def test_cache_key_stable_across_equal_requests():
    a = RunRequest("FUSION", "adpcm", "tiny").normalized()
    b = RunRequest("FUSION", "adpcm", "tiny", small_config())
    assert cache_key(a) == cache_key(b)


def test_cache_key_varies_with_every_component():
    base = RunRequest("FUSION", "adpcm", "tiny").normalized()
    keys = {cache_key(base)}
    keys.add(cache_key(dataclasses.replace(base, system="SHARED")))
    keys.add(cache_key(dataclasses.replace(base, benchmark="fft")))
    keys.add(cache_key(dataclasses.replace(base, size="small")))
    keys.add(cache_key(dataclasses.replace(
        base, config=small_config().with_lease(77))))
    keys.add(cache_key(base, epoch=1))
    assert len(keys) == 6


def test_equivalent_coresident_spellings_share_one_entry(engine):
    batch = [RunRequest("FUSION", "adpcm+filter", "tiny"),
             RunRequest("FUSION+FUSION", "adpcm+filter", "tiny")]
    first, second = engine.run_batch(batch)
    assert engine.telemetry.computed == 1
    assert first == second
    assert cache_key(RunRequest("FUSION+SHARED", "adpcm+filter",
                                "tiny").normalized()) \
        != cache_key(batch[0].normalized())


def test_code_fingerprint_is_stable_in_process():
    assert code_fingerprint() == code_fingerprint()
    assert len(code_fingerprint()) == 64


# -- jobs resolution -------------------------------------------------------

def test_resolve_jobs_precedence(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "3")
    assert resolve_jobs() == 3
    assert resolve_jobs(2) == 2
    monkeypatch.delenv("REPRO_JOBS")
    assert resolve_jobs() == (os.cpu_count() or 1)
    assert resolve_jobs(0) == 1


def test_resolve_jobs_env_garbage_warns_and_defaults(monkeypatch):
    # Malformed *environment* values degrade loudly to the default —
    # a daemon must not die because a shell exported REPRO_JOBS=many —
    # while explicit arguments (the caller typed those) still raise.
    default = os.cpu_count() or 1
    monkeypatch.setenv("REPRO_JOBS", "many")
    with pytest.warns(RuntimeWarning, match="REPRO_JOBS"):
        assert resolve_jobs() == default
    monkeypatch.setenv("REPRO_JOBS", "-3")
    with pytest.warns(RuntimeWarning, match="REPRO_JOBS"):
        assert resolve_jobs() == default
    with pytest.raises(ConfigError, match="--jobs"):
        resolve_jobs("many")


def test_resolve_timeout_env_garbage_warns_and_defaults(monkeypatch):
    from repro.sim.engine import resolve_timeout

    monkeypatch.setenv("REPRO_RUN_TIMEOUT", "abc")
    with pytest.warns(RuntimeWarning, match="REPRO_RUN_TIMEOUT"):
        assert resolve_timeout() is None
    monkeypatch.setenv("REPRO_RUN_TIMEOUT", "2.5")
    assert resolve_timeout() == 2.5
    monkeypatch.setenv("REPRO_RUN_TIMEOUT", "-1")
    assert resolve_timeout() is None          # <=0 disables, no warning
    with pytest.raises(ConfigError, match="--timeout"):
        resolve_timeout("abc")


def test_resolve_retries_env_garbage_warns_and_defaults(monkeypatch):
    from repro.sim.engine import resolve_retries

    monkeypatch.setenv("REPRO_RETRIES", "lots")
    with pytest.warns(RuntimeWarning, match="REPRO_RETRIES"):
        assert resolve_retries() == 2
    monkeypatch.setenv("REPRO_RETRIES", "-1")
    with pytest.warns(RuntimeWarning, match="REPRO_RETRIES"):
        assert resolve_retries() == 2
    monkeypatch.setenv("REPRO_RETRIES", "5")
    assert resolve_retries() == 5
    with pytest.raises(ConfigError, match="--retries"):
        resolve_retries("lots")


def test_resolve_backoff_env_garbage_warns_and_defaults(monkeypatch):
    from repro.sim.engine import resolve_backoff

    monkeypatch.setenv("REPRO_RETRY_BACKOFF", "soon")
    with pytest.warns(RuntimeWarning, match="REPRO_RETRY_BACKOFF"):
        assert resolve_backoff() == 0.05
    monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0.2")
    assert resolve_backoff() == 0.2


def test_env_flag_unrecognized_warns(monkeypatch):
    from repro.sim.engine import _env_flag

    monkeypatch.setenv("REPRO_NO_CACHE", "maybe")
    with pytest.warns(RuntimeWarning, match="REPRO_NO_CACHE"):
        assert _env_flag("REPRO_NO_CACHE") is False
    for truthy in ("1", "true", "YES", "on"):
        monkeypatch.setenv("REPRO_NO_CACHE", truthy)
        assert _env_flag("REPRO_NO_CACHE") is True
    for falsy in ("", "0", "false", "no", "OFF"):
        monkeypatch.setenv("REPRO_NO_CACHE", falsy)
        assert _env_flag("REPRO_NO_CACHE") is False


# -- disk cache ------------------------------------------------------------

def test_disk_cache_roundtrip(tmp_path, engine):
    [result] = engine.run_batch(_batch("FUSION"))
    assert engine.telemetry.computed == 1
    # A second engine over the same directory loads it from disk.
    other = ExecutionEngine(cache=engine.cache.__class__(engine.cache.root))
    [loaded] = other.run_batch(_batch("FUSION"))
    assert other.telemetry.computed == 0
    assert other.telemetry.disk_hits == 1
    assert loaded == result and loaded is not result
    assert loaded.meta["source"] == "disk"


def test_disk_cache_disabled_by_env(tmp_path, monkeypatch, engine):
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    engine.run_batch(_batch("FUSION"))
    assert engine.cache.disk_stats() == (0, 0)
    monkeypatch.delenv("REPRO_NO_CACHE")
    engine.run_batch(_batch("SHARED"))
    assert engine.cache.disk_stats()[0] == 1


def test_disk_cache_survives_corrupt_entry(engine):
    [first] = engine.run_batch(_batch("FUSION"))
    # Corrupt the single result entry on disk, drop the index, rerun.
    entries = list(engine.cache.root.rglob("*.pkl"))
    assert len(entries) == 1
    entries[0].write_bytes(b"not a pickle")
    engine.cache.clear_index()
    [second] = engine.run_batch(_batch("FUSION"))
    assert second == first
    assert engine.telemetry.computed == 2  # recomputed, not crashed


def test_disk_cache_clear_removes_entries(engine):
    engine.run_batch(_batch("FUSION", "SHARED", "SCRATCH"))
    entries, total_bytes = engine.cache.disk_stats()
    assert entries == 3 and total_bytes > 0
    # Only the 3 results are on disk: prepared workloads never are.
    assert engine.cache.clear() == 3
    assert engine.cache.disk_stats() == (0, 0)


# -- prepared workloads (memory only) --------------------------------------

def test_prepared_workload_carries_lowering_and_mlp(engine):
    from repro.workloads.vector import HAVE_NUMPY
    engine.jobs = 1  # serial, so the memo lands on engine.cache
    engine.run_batch(_batch("FUSION", "SHARED"))
    # One benchmark+size pair -> one prepared workload, memoised in
    # memory and shared by both systems; nothing but results on disk.
    workload = engine.cache.load_trace(("adpcm", "tiny", 0))
    assert "_function_mlp" in workload.__dict__
    for trace in workload.invocations:
        assert "_lowered_by_width" in trace.__dict__
        assert "_phase_plans" in trace.__dict__
        assert ("_vector_plans" in trace.__dict__) == HAVE_NUMPY
    assert engine.cache.disk_stats()[0] == 2
    assert not list(engine.cache.root.rglob("traces"))


def test_parallel_workers_share_the_engines_trace_store(tmp_path):
    """Pool workers run on what the parent prepared and write nothing:
    the parent stores every result."""
    engine = ExecutionEngine(jobs=2, cache=DiskCache(tmp_path / "p"))
    engine.run_batch(_batch("FUSION", "SHARED"))
    assert engine.telemetry.parallel_computed == 2
    assert engine.cache.load_trace(("adpcm", "tiny", 0)) is not None
    assert engine.cache.disk_stats()[0] == 2


def test_prepared_trace_simulates_identically(engine, tmp_path):
    from repro.sim.engine import _execute
    from repro.workloads.registry import clear_caches
    request = RunRequest("FUSION", "adpcm", "tiny").normalized()
    [via_engine] = engine.run_batch([request])
    # Re-execute on a workload prepared from scratch (a cold process).
    clear_caches()
    fresh = DiskCache(tmp_path / "fresh")
    direct = _execute(request, fresh, 0)
    assert fresh.load_trace(("adpcm", "tiny", 0)) is not None
    assert direct.accel_cycles == via_engine.accel_cycles
    assert direct.total_cycles == via_engine.total_cycles
    assert direct.stats == via_engine.stats


def test_trace_cache_key_varies_and_respects_epoch(tmp_path):
    from repro.sim.engine import prepared_workload
    cache = DiskCache(tmp_path / "c")
    tiny = prepared_workload("adpcm", "tiny", cache)
    assert prepared_workload("adpcm", "tiny", cache) is tiny
    assert prepared_workload("filter", "tiny", cache) is not tiny
    # A new epoch re-prepares (clear_cache() bumps it after mutating
    # global models); the old entry stays under its own key.
    assert cache.load_trace(("adpcm", "tiny", 1)) is None
    prepared_workload("adpcm", "tiny", cache, epoch=1)
    assert cache.load_trace(("adpcm", "tiny", 1)) is not None
    assert cache.load_trace(("adpcm", "tiny", 0)) is tiny


def test_cold_batch_leaves_only_results_on_disk(engine):
    engine.run_batch(_batch("FUSION", "SHARED", benchmark="filter"))
    root = engine.cache.root
    files = [path.relative_to(root) for path in root.rglob("*")
             if path.is_file()]
    results = [path for path in files if path.suffix == ".pkl"]
    assert len(results) == 2
    # Besides the results: the session stats and the writers' lock.
    assert sorted(set(files) - set(results)) == [
        pathlib.Path(".lock"), pathlib.Path("stats.json")]


@pytest.fixture
def counted_builds(tmp_path, monkeypatch):
    """Swap the registry's kernel builders for ones that append their
    benchmark to a log file (parent and forked workers alike) and raise
    for every name in the returned set; drops every memoised build.
    Yields ``(log path, failing names)``."""
    from repro.workloads import registry
    log, failing = tmp_path / "builds.log", set()
    for name, build in list(registry._BUILDERS.items()):
        def counted(factory, _name=name, _build=build, **kwargs):
            with open(log, "a") as handle:
                handle.write(_name + "\n")
            if _name in failing:
                raise RuntimeError("injected build failure")
            return _build(factory, **kwargs)
        monkeypatch.setitem(registry._BUILDERS, name, counted)
    reset_engine()
    registry.clear_caches()
    yield log, failing
    registry.clear_caches()
    reset_engine()


def test_pool_batch_builds_each_benchmark_once(tmp_path, counted_builds):
    engine = ExecutionEngine(jobs=2, cache=DiskCache(tmp_path / "p"))
    batch = (_batch("FUSION", "SHARED", benchmark="adpcm")
             + _batch("FUSION", "SHARED", benchmark="filter"))
    results = engine.run_batch(batch)
    assert engine.telemetry.parallel_computed == 4
    assert sorted(counted_builds[0].read_text().split()) == [
        "adpcm", "filter"]
    serial = ExecutionEngine(jobs=1, cache=DiskCache(tmp_path / "s"))
    assert results == serial.run_batch(batch)


def test_pool_batch_build_failure_fails_only_its_points(
        tmp_path, monkeypatch, counted_builds):
    from repro.sim.results import FailedResult
    counted_builds[1].add("filter")
    monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0")
    engine = ExecutionEngine(jobs=2, cache=DiskCache(tmp_path / "p"),
                             retries=0)
    batch = (_batch("FUSION", "SHARED", benchmark="adpcm")
             + _batch("FUSION", "SHARED", benchmark="filter"))
    results = engine.run_batch(batch, strict=False)
    assert [type(result) is FailedResult for result in results] == [
        False, False, True, True]
    assert all("injected build failure" in result.error
               for result in results[2:])
    assert results[0].accel_cycles > 0 and results[1].accel_cycles > 0
    with pytest.raises(RuntimeError, match="injected build failure"):
        ExecutionEngine(jobs=2, cache=DiskCache(tmp_path / "q"),
                        retries=0).run_batch(batch)


# -- batching --------------------------------------------------------------

def test_batch_deduplicates(engine):
    results = engine.run_batch(_batch("FUSION", "SHARED", "FUSION",
                                      "FUSION"))
    assert engine.telemetry.requested == 4
    assert engine.telemetry.unique == 2
    assert engine.telemetry.computed == 2
    # Duplicates simulate once but each caller gets an independent
    # view: equal outcome, distinct object, distinct meta dict (so one
    # caller annotating its result cannot corrupt another's).
    assert results[0] == results[2] == results[3]
    assert results[0] is not results[2] and results[2] is not results[3]
    assert results[0].meta is not results[2].meta


def test_batch_preserves_request_order(engine):
    systems = ("SHARED", "FUSION", "SCRATCH", "FUSION")
    results = engine.run_batch(_batch(*systems))
    assert [result.system for result in results] == list(systems)


def test_batch_rejects_unknown_system(engine):
    with pytest.raises(ConfigError, match="unknown system"):
        engine.run_batch(_batch("FUSION", "GPU"))


def test_warm_batch_is_all_memory_hits(engine):
    engine.run_batch(_batch("FUSION", "SHARED"))
    engine.run_batch(_batch("FUSION", "SHARED"))
    assert engine.telemetry.computed == 2
    assert engine.telemetry.memory_hits == 2
    assert engine.telemetry.hit_ratio() == 0.5


def test_parallel_matches_serial_bit_for_bit(tmp_path):
    grid = _batch("SCRATCH", "SHARED", "FUSION", "FUSION-Dx")
    serial = ExecutionEngine(jobs=1, cache=DiskCache(tmp_path / "a"))
    parallel = ExecutionEngine(jobs=2, cache=DiskCache(tmp_path / "b"))
    serial_results = serial.run_batch(grid)
    parallel_results = parallel.run_batch(grid)
    assert parallel.telemetry.parallel_computed == 4
    assert serial.telemetry.parallel_computed == 0
    assert parallel_results == serial_results
    for result in parallel_results:
        assert result.meta["source"] == "computed-parallel"
        assert result.meta["jobs"] == 2
        assert result.meta["wall_s"] > 0


def test_single_miss_never_spawns_a_pool(engine):
    engine.jobs = 8
    engine.run_batch(_batch("FUSION"))
    assert engine.telemetry.parallel_computed == 0
    assert engine.telemetry.serial_computed == 1


@dataclasses.dataclass(frozen=True)
class _HookedConfig(SystemConfig):
    """A config smuggling a callable: unpicklable and unfingerprintable."""

    hook: object = dataclasses.field(default=None, compare=False)


def test_unpicklable_config_falls_back_to_serial(tmp_path):
    config = _HookedConfig(hook=lambda: None)
    with pytest.raises(Exception):
        pickle.dumps(config)
    engine = ExecutionEngine(jobs=2, cache=DiskCache(tmp_path / "c"))
    results = engine.run_batch(
        _batch("FUSION", config=config) + _batch("SHARED", config=config))
    assert [result.system for result in results] == ["FUSION", "SHARED"]
    assert engine.telemetry.parallel_computed == 0
    assert engine.telemetry.uncacheable == 2
    assert engine.cache.disk_stats() == (0, 0)  # never persisted


# -- telemetry -------------------------------------------------------------

def test_results_carry_engine_telemetry(engine):
    [result] = engine.run_batch(_batch("FUSION"))
    assert result.meta["source"] == "computed"
    assert result.meta["wall_s"] > 0
    assert result.meta["queue_depth"] == 1
    assert result.meta["batch_hit_ratio"] == 0.0


def test_session_stats_persisted(engine):
    engine.run_batch(_batch("FUSION"))
    payload = engine.load_session_stats()
    assert payload["schema_version"] == CACHE_SCHEMA_VERSION
    assert payload["telemetry"]["computed"] == 1


# -- the process-wide engine and clear_cache -------------------------------

def test_get_engine_is_a_singleton():
    reset_engine()
    try:
        assert get_engine() is get_engine()
    finally:
        reset_engine()


def test_configure_overrides(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    reset_engine()
    try:
        engine = configure(jobs=3, cache_enabled=False)
        assert engine.jobs == 3
        assert engine.cache.enabled is False
        engine.run_batch(_batch("FUSION"))
        assert engine.cache.disk_stats() == (0, 0)
    finally:
        reset_engine()


def test_clear_cache_defeats_stale_disk_results():
    first = run("FUSION", "adpcm", "tiny")
    telemetry = get_engine().telemetry
    computed_before = telemetry.computed
    clear_cache()
    second = run("FUSION", "adpcm", "tiny")
    # Recomputed from scratch: the epoch bump must defeat both the
    # in-memory index and the on-disk entry.
    assert telemetry.computed == computed_before + 1
    assert second is not first
    assert second == first  # deterministic


def test_clear_cache_clears_workload_registry():
    from repro.workloads.registry import build_workload
    before = build_workload("adpcm", "tiny")
    clear_cache()
    after = build_workload("adpcm", "tiny")
    assert after is not before


# -- cache schema migration (v2 -> v3) --------------------------------------

def _plant_stale_schema(root, entries=2):
    """Drop pickles into an old-schema version dir, the way a pre-bump
    process left them (results under ``v2/<aa>/`` plus one prepared
    trace under ``v2/traces/<aa>/``)."""
    import pickle as pkl
    stale = root / "v2"
    written = []
    for index in range(entries):
        sub = stale / ("a%d" % index)
        sub.mkdir(parents=True, exist_ok=True)
        path = sub / ("a%d" % index + "0" * 62 + ".pkl")
        path.write_bytes(pkl.dumps({"old-schema": index}))
        written.append(path)
    tdir = stale / "traces" / "bb"
    tdir.mkdir(parents=True, exist_ok=True)
    tpath = tdir / ("bb" + "0" * 62 + ".pkl")
    tpath.write_bytes(pkl.dumps("old prepared trace"))
    written.append(tpath)
    return written


def test_entries_live_under_versioned_dir(engine):
    engine.run_batch(_batch("FUSION"))
    current = "v{}".format(CACHE_SCHEMA_VERSION)
    pkls = list(engine.cache.root.rglob("*.pkl"))
    assert pkls
    assert all(current in path.parts for path in pkls)


def test_stale_schema_entries_are_never_read(engine):
    """Old-schema pickles sit in their own tree: a run over a root
    holding only v2 entries recomputes (no torn reads, no corrupt
    drops) and writes fresh entries under the current dir."""
    _plant_stale_schema(engine.cache.root)
    [result] = engine.run_batch(_batch("FUSION"))
    assert engine.telemetry.computed == 1
    assert engine.telemetry.disk_hits == 0
    assert engine.cache.corrupt_drops == 0
    assert result.accel_cycles > 0
    # The stale tree is untouched by normal operation.
    assert len(list((engine.cache.root / "v2").rglob("*.pkl"))) == 3


def test_stale_schema_stats_counts_old_entries(engine):
    assert engine.cache.stale_schema_stats() == (0, 0)
    _plant_stale_schema(engine.cache.root)
    engine.run_batch(_batch("FUSION"))
    # The old tree's prepared trace counts as a stale entry too.
    entries, total_bytes = engine.cache.stale_schema_stats()
    assert entries == 3 and total_bytes > 0
    # Current-schema tallies exclude the stale tree.
    assert engine.cache.disk_stats()[0] == 1


def test_clear_reaps_stale_schema_dirs(engine):
    _plant_stale_schema(engine.cache.root)
    engine.run_batch(_batch("FUSION"))
    # 1 result (current) + 3 stale entries.
    assert engine.cache.clear() == 4
    assert engine.cache.stale_schema_stats() == (0, 0)
    assert not (engine.cache.root / "v2").exists()
    assert engine.cache.disk_stats() == (0, 0)
