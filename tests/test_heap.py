"""Heap and process discipline (docs/simulator.md §6.4).

* Every simulation run leaves a cycle-free graph: once the system is
  dropped, refcounting frees it and the collector finds nothing.  This
  is what makes pausing automatic collection per engine batch safe.
* The pause covers ``ExecutionEngine.run_batch``, ``lower_workload``
  (which makes no cycles either) and building and running a system
  outside a batch, and nothing else: the collector's state after a
  batch is the state before it, whatever way the batch ends and however
  many threads run batches at once; the model checker runs with
  collection on.
* The ``fusion-sim`` process entry ends with ``os._exit`` and loses no
  output, journal line or session stat on the way; in-process
  ``main()`` never exits.
* numpy loads at the first vector compile, not at ``import repro.cli``.
"""

import contextlib
import gc
import io
import json
import multiprocessing
import os
import subprocess
import sys
import threading

import pytest

from repro import cli
from repro.common import collector
from repro.common.config import small_config
from repro.sim import engine as engine_mod
from repro.sim.engine import DiskCache, ExecutionEngine, RunRequest
from repro.systems import SYSTEMS, build_system
from repro.systems import system as system_mod
from repro.workloads import lowering, registry
from repro.workloads.registry import build_workload

SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")

FIG6B = ["--jobs", "1", "experiment", "fig6b", "--size", "tiny",
         "--format", "json"]


@contextlib.contextmanager
def saved_garbage():
    """Collect, then keep everything the collector finds from here on
    in ``gc.garbage`` instead of freeing it."""
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        yield gc.garbage
    finally:
        gc.set_debug(0)
        del gc.garbage[:]


def cyclic_garbage(make_system):
    with saved_garbage() as garbage:
        make_system().run()
        gc.collect()
        return len(garbage)


@pytest.mark.parametrize("kernel", ["fft", "adpcm"])
@pytest.mark.parametrize("name", list(SYSTEMS))
def test_every_system_run_is_cycle_free(name, kernel):
    config = small_config()
    if name == "POLICY":
        config = config.with_policy(selector="bandit")
    workload = build_workload(kernel, "tiny")
    assert cyclic_garbage(lambda: SYSTEMS[name](config, workload)) == 0


@pytest.mark.parametrize("per_tile", [False, True])
def test_coresident_runs_are_cycle_free(per_tile):
    request = RunRequest("FUSION", ("|" if per_tile else "+").join(
        ("adpcm", "filter")), "tiny", small_config())
    assert cyclic_garbage(lambda: build_system(
        request, lambda name: build_workload(name, "tiny"))) == 0


# -- the collector pause ---------------------------------------------------

@pytest.fixture
def gc_restored():
    was = gc.isenabled()
    yield
    (gc.enable if was else gc.disable)()


def _engine(tmp_path, jobs=1):
    return ExecutionEngine(jobs=jobs, cache=DiskCache(tmp_path / "cache"))


def _grid():
    return [RunRequest(system, benchmark, "tiny")
            for system in ("SCRATCH", "FUSION")
            for benchmark in ("adpcm", "filter")]


@pytest.mark.parametrize("enabled", [True, False])
def test_batch_restores_collector_state(tmp_path, monkeypatch, gc_restored,
                                        enabled):
    seen = []
    real = engine_mod._execute

    def spy(*args, **kwargs):
        seen.append(gc.isenabled())
        return real(*args, **kwargs)

    (gc.enable if enabled else gc.disable)()
    monkeypatch.setattr(engine_mod, "_execute", spy)
    _engine(tmp_path).run_batch(_grid())
    assert seen and not any(seen), "collection ran inside the batch"
    assert gc.isenabled() is enabled


def test_failing_strict_batch_restores_collector(tmp_path, monkeypatch,
                                                 gc_restored):
    def boom(*args, **kwargs):
        raise RuntimeError("injected")

    gc.enable()
    monkeypatch.setattr(engine_mod, "_execute", boom)
    with pytest.raises(RuntimeError, match="injected"):
        _engine(tmp_path).run_batch(_grid())
    assert gc.isenabled()


_REAL_EXECUTE_TIMED = engine_mod._execute_timed


def _execute_reporting_gc(*args, **kwargs):
    """Pool-worker entry that first notes whether collection is on."""
    with open(os.environ["HEAP_TEST_GC_LOG"], "a") as log:
        log.write("{}\n".format(gc.isenabled()))
    return _REAL_EXECUTE_TIMED(*args, **kwargs)


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the worker spy rides a forked module state")
def test_pool_batch_runs_workers_paused_and_restores(tmp_path, monkeypatch,
                                                     gc_restored):
    log = tmp_path / "worker-gc.log"
    monkeypatch.setenv("HEAP_TEST_GC_LOG", str(log))
    monkeypatch.setattr(engine_mod, "_execute_timed", _execute_reporting_gc)
    gc.enable()
    parallel = _engine(tmp_path, jobs=2).run_batch(_grid())
    assert gc.isenabled()
    assert log.read_text().split() == ["False"] * len(_grid())
    serial = ExecutionEngine(jobs=1, cache=DiskCache(
        tmp_path / "serial")).run_batch(_grid())
    assert parallel == serial


def test_concurrent_batches_restore_collector(tmp_path, gc_restored):
    gc.enable()
    barrier = threading.Barrier(2)
    real = engine_mod._execute
    errors = []

    def slowed(*args, **kwargs):
        # Both batches are inside their pause before either finishes.
        barrier.wait(timeout=30)
        return real(*args, **kwargs)

    def batch(index):
        try:
            ExecutionEngine(jobs=1, cache=DiskCache(
                tmp_path / "c{}".format(index))).run_batch(
                    [RunRequest("FUSION", "adpcm", "tiny")])
        except Exception as exc:  # pragma: no cover - reported below
            errors.append(exc)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine_mod, "_execute", slowed)
        threads = [threading.Thread(target=batch, args=(index,))
                   for index in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert gc.isenabled()
    assert collector._pause_depth == 0


def test_nested_pauses_restore_the_outer_state(gc_restored):
    gc.enable()
    with collector.collector_paused():
        with collector.collector_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()
    assert gc.isenabled()


def test_pause_holds_under_thread_churn(gc_restored):
    """Many threads entering and leaving pauses with a tiny switch
    interval: collection is off whenever any of them is inside, and on
    again once all have left."""
    gc.enable()
    seen_on = []

    def churn():
        for _ in range(300):
            with collector.collector_paused():
                if gc.isenabled():
                    seen_on.append(True)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=churn) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not seen_on
    assert gc.isenabled()
    assert collector._pause_depth == 0


# -- trace preparation -------------------------------------------------------

def fresh_workload(name):
    """A newly built, unprepared ``tiny`` workload (not the registry's)."""
    return registry.build_workload_with_outputs.__wrapped__(name, "tiny")[0]


def _spy_gc(monkeypatch, module, name):
    """Record whether collection is on at each call of ``module.name``."""
    seen = []
    real = getattr(module, name)

    def spy(*args, **kwargs):
        seen.append(gc.isenabled())
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return seen


@pytest.mark.parametrize("enabled", [True, False])
def test_lower_workload_restores_collector_state(monkeypatch, gc_restored,
                                                 enabled):
    lowered = _spy_gc(monkeypatch, lowering, "lowered_trace")
    (gc.enable if enabled else gc.disable)()
    lowering.lower_workload(fresh_workload("fft"))
    assert lowered and not any(lowered), "collection ran while lowering"
    assert gc.isenabled() is enabled


def test_lower_workload_nested_in_a_batch_keeps_the_batch_paused(
        tmp_path, monkeypatch, gc_restored):
    lowered = _spy_gc(monkeypatch, lowering, "lowered_trace")
    after = _spy_gc(monkeypatch, engine_mod, "function_mlp")
    gc.enable()
    _engine(tmp_path).run_batch([RunRequest("FUSION", "fft", "tiny")])
    assert lowered and not any(lowered)
    assert after and not any(after), "lowering ended the batch's pause"
    assert gc.isenabled()
    assert collector._pause_depth == 0


def test_lower_workload_is_cycle_free():
    workload = fresh_workload("fft")
    with saved_garbage() as garbage:
        lowering.lower_workload(workload)
        del workload
        gc.collect()
        assert not garbage


@pytest.mark.parametrize("enabled", [True, False])
def test_direct_system_build_and_run_restore_collector_state(
        monkeypatch, gc_restored, enabled):
    built = _spy_gc(monkeypatch, system_mod, "function_mlp")
    ran = _spy_gc(monkeypatch, system_mod.System, "_accelerate")
    (gc.enable if enabled else gc.disable)()
    system = SYSTEMS["FUSION"](small_config(), build_workload("fft", "tiny"))
    assert gc.isenabled() is enabled
    system.run()
    assert built and not any(built), "collection ran while building"
    assert ran and not any(ran), "collection ran while running"
    assert gc.isenabled() is enabled
    assert collector._pause_depth == 0


# -- the CLI process ---------------------------------------------------------

def test_in_process_main_neither_exits_nor_touches_gc(
        fresh_engine, monkeypatch, capsys, gc_restored):
    def no_exit(code):
        raise AssertionError("main() called os._exit({})".format(code))

    monkeypatch.setattr(os, "_exit", no_exit)
    for enabled in (True, False):
        (gc.enable if enabled else gc.disable)()
        assert cli.main(FIG6B) == 0
        assert gc.isenabled() is enabled
        assert json.loads(capsys.readouterr().out)["rows"]


def test_only_one_shot_commands_freeze_batch_survivors(
        fresh_engine, monkeypatch, capsys, gc_restored):
    monkeypatch.setattr(collector, "_pause_freezes", False)
    frozen = gc.get_freeze_count()
    assert cli.main(FIG6B) == 0
    assert gc.get_freeze_count() == frozen
    monkeypatch.setattr(cli, "_cmd_serve", lambda args: 0)
    assert cli.main(["serve"], one_shot=True) == 0
    assert not collector._pause_freezes
    try:
        assert cli.main(FIG6B, one_shot=True) == 0
        assert collector._pause_freezes
        assert gc.get_freeze_count() > frozen
    finally:
        gc.unfreeze()


def test_check_runs_with_collection_on(monkeypatch, capsys, gc_restored):
    import repro.check as check_mod
    seen = []
    real = check_mod.run_check

    def spy(*args, **kwargs):
        seen.append(gc.isenabled())
        return real(*args, **kwargs)

    gc.enable()
    monkeypatch.setattr(check_mod, "run_check", spy)
    assert cli.main(["check", "--scenario", "acc-two-writers"]) == 0
    assert seen == [True]


class _Exited(Exception):
    pass


@pytest.fixture
def entry_calls(monkeypatch):
    """Run :func:`cli.entry` with ``main`` returning 3; records the
    atexit run and the ``os._exit`` code instead of exiting."""
    calls = []

    def fake_exit(code):
        calls.append(("os._exit", code))
        raise _Exited()

    monkeypatch.setattr(cli, "main", lambda one_shot: 3)
    monkeypatch.setattr(cli.atexit, "_run_exitfuncs",
                        lambda: calls.append(("atexit",)))
    monkeypatch.setattr(os, "_exit", fake_exit)
    return calls


def test_entry_runs_atexit_then_exits_with_mains_code(entry_calls):
    with pytest.raises(_Exited):
        cli.entry()
    assert entry_calls == [("atexit",), ("os._exit", 3)]


def test_entry_exits_normally_when_a_flush_fails(entry_calls, monkeypatch):
    class ClosedPipe(io.StringIO):
        def flush(self):
            raise BrokenPipeError()

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    with pytest.raises(SystemExit) as exited:
        cli.entry()
    assert exited.value.code == 3
    assert ("os._exit", 3) not in entry_calls


def test_entry_waits_for_running_threads(entry_calls):
    release = threading.Event()
    worker = threading.Thread(target=release.wait)
    worker.start()
    try:
        with pytest.raises(SystemExit) as exited:
            cli.entry()
    finally:
        release.set()
        worker.join(timeout=10)
    assert not worker.is_alive()
    assert exited.value.code == 3
    assert entry_calls == []


def _cli(args, cache_dir, **env):
    """``python -m repro.cli ARGS`` with stdout and stderr on pipes."""
    full_env = dict(os.environ, PYTHONPATH=SRC, REPRO_CACHE_DIR=str(
        cache_dir), REPRO_RETRY_BACKOFF="0")
    for name in ("REPRO_ENGINE_LOG", "REPRO_FAULT_SPEC", "REPRO_JOBS"):
        full_env.pop(name, None)
    full_env.update(env)
    return subprocess.run([sys.executable, "-m", "repro.cli"] + args,
                          env=full_env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=300)


def test_early_exit_loses_no_output(tmp_path, fresh_engine, capsys):
    cache_dir = tmp_path / "cli-cache"
    cold = _cli(FIG6B, cache_dir)
    assert cold.returncode == 0, cold.stderr
    assert cold.stderr == ""
    assert cli.main(FIG6B) == 0
    in_process = capsys.readouterr().out
    assert cold.stdout == in_process
    assert len(json.loads(cold.stdout)["rows"]) == 7
    stats = json.loads((cache_dir / "stats.json").read_text())
    assert stats["telemetry"]["computed"] == 21

    # Every cached entry reads back corrupt: each drop is one journal
    # line, and the session stats written last count them all.
    log = tmp_path / "engine.jsonl"
    warm = _cli(FIG6B, cache_dir, REPRO_ENGINE_LOG=str(log),
                REPRO_FAULT_SPEC="corrupt-cache:rate=1")
    assert warm.returncode == 0, warm.stderr
    assert warm.stdout == in_process
    events = [json.loads(line) for line in log.read_text().splitlines()]
    drops = [event for event in events if event["event"] == "corrupt_drop"]
    stats = json.loads((cache_dir / "stats.json").read_text())
    assert drops
    assert len(drops) == stats["telemetry"]["corrupt_drops"]
    assert stats["telemetry"]["computed"] == 21


def test_errors_keep_their_exit_codes_and_stderr(tmp_path):
    bad_system = _cli(["sweep", "--systems", "BOGUS", "--benchmarks",
                       "adpcm", "--size", "tiny"], tmp_path)
    assert bad_system.returncode == 1
    assert bad_system.stdout == ""
    assert bad_system.stderr.startswith("Traceback")
    assert bad_system.stderr.rstrip().endswith(
        "ConfigError: unknown system 'BOGUS'; expected one of "
        + ", ".join(SYSTEMS))

    bad_flag = _cli(["--jobs", "x", "run", "FUSION", "fft"], tmp_path)
    assert bad_flag.returncode == 2
    assert bad_flag.stdout == ""
    assert bad_flag.stderr.startswith("usage: fusion-sim")
    assert bad_flag.stderr.rstrip().endswith(
        "error: argument --jobs: invalid int value: 'x'")


def test_numpy_loads_only_for_a_simulation(tmp_path):
    probe = (
        "import sys\n"
        "import repro.cli\n"
        "assert 'numpy' not in sys.modules, 'import repro.cli'\n"
        "repro.cli.main({!r})\n"
        "assert 'numpy' not in sys.modules, 'warm fig6b'\n".format(FIG6B))
    assert _cli(FIG6B, tmp_path).returncode == 0
    env = dict(os.environ, PYTHONPATH=SRC, REPRO_CACHE_DIR=str(tmp_path))
    env.pop("REPRO_FAULT_SPEC", None)
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr

