"""Fault injection and engine recovery paths.

Everything here drives :mod:`repro.sim.engine` through
``REPRO_FAULT_SPEC`` — deterministic worker crashes, hangs and cache
corruption — and asserts the batch either converges to the exact
fault-free results or degrades into structured :class:`FailedResult`
holes, never into a dead process or a wrong number.
"""

import json

import pytest

from repro.common.errors import ConfigError, RunTimeout
from repro.sim import faults
from repro.sim.engine import (
    CACHE_SCHEMA_VERSION,
    DiskCache,
    EngineJournal,
    ExecutionEngine,
    RunRequest,
)
from repro.sim.results import FailedResult, RunResult


@pytest.fixture
def engine(tmp_path):
    return ExecutionEngine(cache=DiskCache(tmp_path / "cache"))


@pytest.fixture
def no_backoff(monkeypatch):
    monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0")


@pytest.fixture
def enable_cache(monkeypatch):
    """Tests about cache behaviour must win over a REPRO_NO_CACHE=1
    environment (the CI fault-smoke job sets it globally)."""
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)


def _grid(benchmarks=("adpcm", "fft"), size="tiny"):
    return [RunRequest(system, benchmark, size)
            for system in ("SCRATCH", "SHARED", "FUSION", "FUSION-Dx")
            for benchmark in benchmarks]


# -- REPRO_FAULT_SPEC parsing ----------------------------------------------

def test_fault_spec_parses_all_clauses(monkeypatch):
    monkeypatch.setenv(
        "REPRO_FAULT_SPEC",
        "crash:every=7, hang:key=FUSION:adpcm:tiny, corrupt-cache:rate=0.25")
    plan = faults.fault_plan()
    assert plan.crash_every == 7
    # The hang key value itself contains ":" — only the first ":" of a
    # clause separates the kind from its parameter.
    assert plan.hang_key == "FUSION:adpcm:tiny"
    assert plan.corrupt_rate == 0.25
    assert plan


def test_fault_spec_defaults_to_no_plan(monkeypatch):
    monkeypatch.delenv("REPRO_FAULT_SPEC", raising=False)
    assert not faults.fault_plan()
    monkeypatch.setenv("REPRO_FAULT_SPEC", "  ")
    assert not faults.fault_plan()


@pytest.mark.parametrize("spec", [
    "explode:every=2",              # unknown kind
    "crash:every=zero",             # non-integer
    "crash:every=0",                # < 1
    "hang",                         # missing key=
    "corrupt-cache:rate=lots",      # non-float
    "corrupt-cache:rate=1.5",       # out of [0, 1]
])
def test_fault_spec_rejects_garbage(monkeypatch, spec):
    monkeypatch.setenv("REPRO_FAULT_SPEC", spec)
    with pytest.raises(ConfigError):
        faults.fault_plan()


def test_request_key_format():
    assert faults.request_key(RunRequest("FUSION", "adpcm", "tiny")) \
        == "FUSION:adpcm:tiny"


def test_should_corrupt_is_deterministic_and_rate_bounded(monkeypatch):
    monkeypatch.setenv("REPRO_FAULT_SPEC", "corrupt-cache:rate=1")
    assert faults.should_corrupt("abc.pkl")
    monkeypatch.setenv("REPRO_FAULT_SPEC", "corrupt-cache:rate=0.5")
    first = [faults.should_corrupt("entry-%d.pkl" % i) for i in range(64)]
    again = [faults.should_corrupt("entry-%d.pkl" % i) for i in range(64)]
    assert first == again                   # same names, same verdicts
    assert any(first) and not all(first)    # a fraction, not all-or-none


# -- worker-crash recovery -------------------------------------------------

def test_crash_recovery_converges_to_clean_results(
        tmp_path, monkeypatch, no_backoff):
    grid = _grid()
    clean = ExecutionEngine(
        jobs=1, cache=DiskCache(tmp_path / "clean")).run_batch(grid)

    monkeypatch.setenv("REPRO_FAULT_SPEC", "crash:every=3")
    engine = ExecutionEngine(jobs=2, cache=DiskCache(tmp_path / "f"))
    faulted = engine.run_batch(grid)

    assert faulted == clean
    snap = engine.telemetry.snapshot()
    assert snap["retries"] > 0
    assert snap["pool_respawns"] >= 1
    assert snap["failed_points"] == 0
    events = [event["event"] for event in engine.journal.tail(100)]
    assert "worker_crash" in events
    assert "pool_respawn" in events


def test_exhausted_retries_degrade_to_serial_fallback(
        tmp_path, monkeypatch, no_backoff):
    grid = _grid(benchmarks=("adpcm",))
    clean = ExecutionEngine(
        jobs=1, cache=DiskCache(tmp_path / "clean")).run_batch(grid)

    # Every worker execution crashes, so the pool can never make
    # progress; with a zero retry budget the engine must finish the
    # whole batch in-process (where faults never fire).
    monkeypatch.setenv("REPRO_FAULT_SPEC", "crash:every=1")
    engine = ExecutionEngine(
        jobs=2, retries=0, cache=DiskCache(tmp_path / "f"))
    faulted = engine.run_batch(grid)

    assert faulted == clean
    snap = engine.telemetry.snapshot()
    assert snap["serial_fallbacks"] == len(grid)
    assert snap["failed_points"] == 0
    assert "serial_fallback" in [
        event["event"] for event in engine.journal.tail(100)]


# -- timeouts --------------------------------------------------------------

def test_hung_point_times_out_without_poisoning_the_batch(
        tmp_path, monkeypatch, no_backoff):
    grid = _grid()
    clean = ExecutionEngine(
        jobs=1, cache=DiskCache(tmp_path / "clean")).run_batch(grid)

    monkeypatch.setenv("REPRO_FAULT_SPEC", "hang:key=FUSION:adpcm:tiny")
    engine = ExecutionEngine(
        jobs=2, timeout=0.5, cache=DiskCache(tmp_path / "f"))
    out = engine.run_batch(grid, strict=False)

    failed = [result for result in out if not result.ok]
    assert len(failed) == 1
    assert isinstance(failed[0], FailedResult)
    assert (failed[0].system, failed[0].benchmark) == ("FUSION", "adpcm")
    assert failed[0].attempts >= 1
    assert "RunTimeout" in failed[0].error
    assert failed[0].meta["source"] == "failed"
    # Every other point is bit-identical to the fault-free run.
    for result, baseline in zip(out, clean):
        if result.ok:
            assert result == baseline
    snap = engine.telemetry.snapshot()
    assert snap["timeouts"] == 1
    assert snap["failed_points"] == 1


def test_strict_batch_raises_on_timeout(tmp_path, monkeypatch, no_backoff,
                                        enable_cache):
    monkeypatch.setenv("REPRO_FAULT_SPEC", "hang:key=FUSION:adpcm:tiny")
    engine = ExecutionEngine(
        jobs=2, timeout=0.5, cache=DiskCache(tmp_path / "f"))
    grid = _grid(benchmarks=("adpcm",))
    with pytest.raises(RunTimeout, match="FUSION:adpcm:tiny"):
        engine.run_batch(grid, strict=True)
    # The points that did complete were cached before the raise, so a
    # fixed rerun resumes from where the previous batch died.
    entries, _ = engine.cache.disk_stats()
    assert entries == len(grid) - 1
    monkeypatch.delenv("REPRO_FAULT_SPEC")
    rerun = engine.run_batch(grid)
    assert engine.telemetry.computed == 1  # only the hung one reran
    assert [r.system for r in rerun] == [r.system for r in grid]


def test_unknown_system_aborts_before_executing_anything(engine):
    # Malformed batches are a caller bug, not a runtime fault: even
    # strict=False raises, and nothing is simulated first.
    with pytest.raises(ConfigError, match="unknown system"):
        engine.run_batch([RunRequest("FUSION", "adpcm", "tiny"),
                          RunRequest("GPU", "adpcm", "tiny")],
                         strict=False)
    assert engine.telemetry.computed == 0


@pytest.mark.parametrize("strict", [True, False])
@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("bad, message", [
    pytest.param(RunRequest("FUSION", "fftt", "tiny"),
                 "unknown benchmark 'fftt'", id="benchmark"),
    pytest.param(RunRequest("FUSION", "adpcm", "huge"),
                 "unknown size 'huge'", id="size"),
    pytest.param(RunRequest("FUSION+GPU", "adpcm+filter", "tiny"),
                 "unknown system 'GPU'", id="tenant-system"),
    pytest.param(RunRequest("FUSION", "adpcm|fftt", "tiny"),
                 "unknown benchmark 'fftt'", id="tenant-benchmark"),
])
def test_bad_names_fail_before_any_pool_starts(tmp_path, monkeypatch,
                                               bad, message, jobs, strict):
    """Every name is checked up front: a bad benchmark or size must not
    reach a pool worker (where it used to crash it into respawns and a
    serial fallback) or become a FailedResult hole."""
    log = tmp_path / "engine.jsonl"
    monkeypatch.setenv("REPRO_ENGINE_LOG", str(log))
    engine = ExecutionEngine(jobs=jobs, cache=DiskCache(tmp_path / "c"))
    with pytest.raises(ConfigError, match=message):
        engine.run_batch([RunRequest("FUSION", "adpcm", "tiny"), bad,
                          RunRequest("SHARED", "filter", "tiny")],
                         strict=strict)
    assert engine.telemetry.computed == 0
    assert engine.journal.counts() == {}
    assert not log.exists()


# -- cache corruption ------------------------------------------------------

def test_corrupt_cache_entries_recompute_and_count(
        tmp_path, monkeypatch, enable_cache):
    grid = _grid(benchmarks=("adpcm",))
    engine = ExecutionEngine(jobs=1, cache=DiskCache(tmp_path / "c"))
    first = engine.run_batch(grid)
    assert engine.telemetry.computed == len(grid)

    # Arm corruption, drop the in-memory index so the rerun must read
    # the (now "torn") pickles from disk.
    monkeypatch.setenv("REPRO_FAULT_SPEC", "corrupt-cache:rate=1")
    engine.cache.clear_index()
    second = engine.run_batch(grid)

    assert second == first
    assert engine.cache.corrupt_drops >= len(grid)
    assert engine.telemetry.corrupt_drops == engine.cache.corrupt_drops
    assert engine.telemetry.computed == 2 * len(grid)  # all recomputed
    assert "corrupt_drop" in [
        event["event"] for event in engine.journal.tail(100)]


# -- result aliasing (the bugfix family) -----------------------------------

def test_duplicate_requests_get_independent_results(engine):
    request = RunRequest("FUSION", "adpcm", "tiny")
    one, two = engine.run_batch([request, request])
    assert one == two and one is not two
    assert one.meta is not two.meta
    one.meta["poison"] = True
    assert "poison" not in two.meta


def test_cross_batch_hits_do_not_clobber_earlier_meta(engine, enable_cache):
    [first] = engine.run_batch([RunRequest("FUSION", "adpcm", "tiny")])
    assert first.meta["source"] == "computed"
    [second] = engine.run_batch([RunRequest("FUSION", "adpcm", "tiny")])
    assert second.meta["source"] == "memory"
    assert second == first and second is not first
    # The memory hit must not have rewritten the first caller's view.
    assert first.meta["source"] == "computed"


def test_failed_result_is_a_structured_hole():
    hole = FailedResult("FUSION", "adpcm", "tiny",
                        error="RunTimeout('...')", attempts=2)
    assert hole.ok is False
    assert RunResult.ok is True
    assert hole.system == "FUSION" and hole.attempts == 2


# -- temp-file sweeping ----------------------------------------------------

def test_clear_sweeps_orphaned_temp_files(engine, enable_cache):
    engine.run_batch([RunRequest("FUSION", "adpcm", "tiny")])
    orphan_dir = engine.cache.root \
        / "v{}".format(CACHE_SCHEMA_VERSION) / "ab"
    orphan_dir.mkdir(parents=True, exist_ok=True)
    (orphan_dir / ".tmp-dead-writer").write_bytes(b"x" * 128)
    count, total = engine.cache.temp_stats()
    assert count == 1 and total == 128
    removed = engine.cache.clear()
    assert removed == 2  # the result and the orphan
    assert engine.cache.temp_stats() == (0, 0)
    assert engine.cache.disk_stats() == (0, 0)


# -- journal ---------------------------------------------------------------

def test_journal_is_a_bounded_ring_with_counts(monkeypatch):
    monkeypatch.delenv("REPRO_ENGINE_LOG", raising=False)
    journal = EngineJournal()
    for index in range(300):
        journal.emit("tick", index=index)
    tail = journal.tail(1000)
    assert len(tail) == 256                    # ring capacity
    assert tail[-1]["index"] == 299            # newest survives
    assert tail[0]["index"] == 300 - 256       # oldest evicted
    assert all(event["event"] == "tick" for event in tail)
    assert journal.counts()["tick"] == 256
    seqs = [event["seq"] for event in tail]
    assert seqs == sorted(seqs)


def test_journal_mirrors_to_jsonl_log(tmp_path, monkeypatch):
    log_path = tmp_path / "engine.jsonl"
    monkeypatch.setenv("REPRO_ENGINE_LOG", str(log_path))
    journal = EngineJournal()
    journal.emit("pool_respawn", attempt=1)
    journal.emit("timeout", key="FUSION:adpcm:tiny")
    lines = log_path.read_text().splitlines()
    assert len(lines) == 2
    events = [json.loads(line) for line in lines]
    assert events[0]["event"] == "pool_respawn"
    assert events[1]["key"] == "FUSION:adpcm:tiny"
    assert all("t" in event and "seq" in event for event in events)
