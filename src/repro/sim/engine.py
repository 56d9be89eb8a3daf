"""Parallel simulation engine with a persistent on-disk result cache.

The experiment layer's unit of work is one (system, benchmark, size,
config) point; the full table/figure suite evaluates a few hundred of
them and every point is independent.  This module turns that grid into
throughput:

* :class:`ExecutionEngine` accepts a *batch* of :class:`RunRequest`\\ s,
  deduplicates them, satisfies what it can from cache and fans the rest
  out over a :class:`concurrent.futures.ProcessPoolExecutor` (worker
  count from ``REPRO_JOBS`` or ``os.cpu_count()``; ``jobs=1`` and
  non-picklable configs fall back to in-process serial execution).
* :class:`DiskCache` persists every computed :class:`RunResult` under
  ``~/.cache/repro`` (override with ``REPRO_CACHE_DIR``, disable with
  ``REPRO_NO_CACHE=1``).  Entries are pickles written atomically
  (temp file + ``os.replace``) and keyed by a content hash of
  (system, benchmark, size, config fields, code version), so *any*
  source change to the ``repro`` package invalidates the whole cache —
  stale models can never leak into fresh results.
* Prepared workloads (built, lowered, MLP attached) live in memory
  only, one per ``(benchmark, size)`` per process.  A pool batch
  prepares each of its workloads once in the parent before the pool
  forks, so workers inherit them instead of building their own.
* Light telemetry (per-run wall time, batch queue depth, cache hit
  ratio) is attached to each returned result's ``meta`` dict and
  aggregated on ``engine.telemetry`` so benchmark JSONs can track the
  trajectory; an aggregate snapshot is persisted next to the cache for
  ``fusion-sim cache stats``.
* The engine survives its own failures.  A crashed pool worker
  (``BrokenProcessPool``) triggers a pool respawn with exponential
  backoff up to ``REPRO_RETRIES`` times, then the remaining misses are
  degraded to in-process serial execution; a point that exceeds
  ``REPRO_RUN_TIMEOUT``/``--timeout`` is cancelled (its worker killed)
  and reported without blocking the rest of the batch.  Non-strict
  batches (``run_batch(..., strict=False)``) turn terminal failures
  into structured :class:`~repro.sim.results.FailedResult` rows;
  strict batches (the default) raise.  Every recovery action is
  recorded in an :class:`EngineJournal` (ring buffer, optional JSONL
  via ``REPRO_ENGINE_LOG``) and counted on :class:`EngineTelemetry`;
  ``REPRO_FAULT_SPEC`` (:mod:`repro.sim.faults`) injects deterministic
  crashes/hangs/cache corruption so all of it is testable in CI.

* Automatic garbage collection is paused for the duration of each
  batch (:func:`~repro.common.collector.collector_paused`), pool
  workers included.  Every simulation run leaves a cycle-free graph
  that refcounting frees, so the collector would only re-traverse the
  batch's live traces and results (docs/simulator.md §6.4).

The driver (:mod:`repro.sim.simulator`) routes every ``run()`` through
the process-wide engine, so single-point callers transparently share
the same cache as batch submitters.
"""

import contextlib
import copy
import gc
import hashlib
import json
import os
import pathlib
import pickle
import tempfile
import time
import warnings

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None
from collections import deque
from concurrent.futures import ProcessPoolExecutor, wait
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from functools import lru_cache

from ..common.collector import collector_paused
from ..common.config import config_fingerprint, small_config
from ..common.errors import ConfigError, ExecutionError, RunTimeout
from ..systems import build_system, resolve
from ..workloads.characterize import function_mlp
from ..workloads.lowering import lower_workload
from ..workloads.registry import build_workload
from . import faults
from .results import FailedResult

#: Bump when the cache entry layout (not the simulated models — those
#: are covered by :func:`code_fingerprint`) changes incompatibly.
#: Version 3: results only; version 2 also held prepared-trace pickles
#: under ``traces/``.  Entries live under ``<root>/v<schema>/``, so
#: old-schema entries are never *read* after a bump — they sit in their
#: own directory, counted by :meth:`DiskCache.stale_schema_stats` and
#: reaped by :meth:`DiskCache.clear`.
CACHE_SCHEMA_VERSION = 3

_TRUTHY = ("1", "true", "yes", "on")
_FALSY = ("", "0", "false", "no", "off")


def _warn_env(name, value, why, fallback):
    """One malformed-environment warning; the run proceeds on defaults.

    A bad ``REPRO_*`` value used to raise :class:`ConfigError` deep in
    batch setup — a daemon serving many clients must not die because one
    login shell exported ``REPRO_RUN_TIMEOUT=abc``, so environment
    problems degrade loudly instead of fatally.  Explicit arguments
    (``--jobs``/``configure()``) still raise: the caller typed those.
    """
    warnings.warn(
        "ignoring {}={!r} ({}); falling back to {!r}".format(
            name, value, why, fallback),
        RuntimeWarning, stacklevel=3)
    return fallback


def _env_flag(name):
    value = os.environ.get(name, "").strip().lower()
    if value in _TRUTHY:
        return True
    if value not in _FALSY:
        return _warn_env(name, value,
                         "expected one of {}".format(
                             "/".join(_TRUTHY + _FALSY[1:])), False)
    return False


def resolve_jobs(jobs=None):
    """Worker count: explicit arg > ``REPRO_JOBS`` > ``os.cpu_count()``."""
    default = os.cpu_count() or 1
    if jobs is None:
        env = os.environ.get("REPRO_JOBS", "").strip()
        if not env:
            return default
        try:
            parsed = int(env)
        except ValueError:
            return _warn_env("REPRO_JOBS", env, "not an integer", default)
        if parsed < 1:
            return _warn_env("REPRO_JOBS", env, "must be >= 1", default)
        return parsed
    try:
        return max(1, int(jobs))
    except (TypeError, ValueError):
        raise ConfigError("--jobs must be an integer, "
                          "got {!r}".format(jobs))


def resolve_timeout(timeout=None):
    """Per-run timeout in seconds: explicit arg > ``REPRO_RUN_TIMEOUT``.

    ``None``/empty/``0`` disable the timeout (the default).
    """
    if timeout is None:
        env = os.environ.get("REPRO_RUN_TIMEOUT", "").strip()
        if not env:
            return None
        try:
            timeout = float(env)
        except ValueError:
            return _warn_env("REPRO_RUN_TIMEOUT", env, "not a number",
                             None)
        return timeout if timeout > 0 else None
    try:
        timeout = float(timeout)
    except (TypeError, ValueError):
        raise ConfigError("--timeout must be a number of seconds, "
                          "got {!r}".format(timeout))
    return timeout if timeout > 0 else None


def resolve_retries(retries=None):
    """Pool respawns allowed per batch: arg > ``REPRO_RETRIES`` > 2."""
    if retries is None:
        env = os.environ.get("REPRO_RETRIES", "").strip()
        if not env:
            return 2
        try:
            parsed = int(env)
        except ValueError:
            return _warn_env("REPRO_RETRIES", env, "not an integer", 2)
        if parsed < 0:
            return _warn_env("REPRO_RETRIES", env, "must be >= 0", 2)
        return parsed
    try:
        return max(0, int(retries))
    except (TypeError, ValueError):
        raise ConfigError("--retries must be an integer, "
                          "got {!r}".format(retries))


def resolve_backoff():
    """Base respawn backoff in seconds (``REPRO_RETRY_BACKOFF``)."""
    env = os.environ.get("REPRO_RETRY_BACKOFF", "").strip()
    if not env:
        return 0.05
    try:
        return max(0.0, float(env))
    except ValueError:
        return _warn_env("REPRO_RETRY_BACKOFF", env, "not a number", 0.05)


@lru_cache(maxsize=1)
def code_fingerprint():
    """Content hash of every ``repro`` source file (the "code version").

    Computed once per process; any edit to the package produces new
    cache keys, which is what makes the persistent cache safe to leave
    enabled while developing models.
    """
    package_root = pathlib.Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for path in sorted(package_root.rglob("*.py")):
        digest.update(str(path.relative_to(package_root)).encode("utf-8"))
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


@dataclass(frozen=True)
class RunRequest:
    """One simulation point: what :func:`repro.run` takes, as a value
    (spelled as :func:`repro.systems.resolve` defines)."""

    system: str
    benchmark: str
    size: str = "full"
    config: object = None

    def normalized(self):
        """Return a copy with ``config=None`` resolved to the default."""
        if self.config is None:
            return RunRequest(self.system, self.benchmark, self.size,
                              small_config())
        return self


def _canonical_system(system):
    """``system`` as the cache keys it: a ``+``-list of one repeated
    name collapses to that name, since ``FUSION+FUSION`` and ``FUSION``
    on the same tenants name the same run.  Not :func:`resolve`: keys
    are also taken for points the registry does not know, such as
    perfbench's FFT ``n512x16`` results, which it rejects."""
    if isinstance(system, str):
        names = set(system.split("+"))
        if len(names) == 1:
            return names.pop()
    return system


def cache_key(request, epoch=0):
    """Content-hash key for one (normalized) request.

    Returns ``None`` when the config has no stable fingerprint (e.g. it
    smuggles a callable) — such requests are uncacheable and also run
    serially, since an unfingerprintable config is usually unpicklable
    too.  ``epoch`` is a process-local salt bumped by
    :func:`repro.sim.simulator.clear_cache` so tests that mutate global
    models cannot be served stale on-disk results.
    """
    try:
        config_hash = config_fingerprint(request.config)
    except ConfigError:
        return None
    payload = "\n".join((
        "schema={}".format(CACHE_SCHEMA_VERSION),
        "code={}".format(code_fingerprint()),
        "epoch={}".format(epoch),
        "system={}".format(_canonical_system(request.system)),
        "benchmark={}".format(request.benchmark),
        "size={}".format(request.size),
        "config={}".format(config_hash),
    ))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def prepared_workload(benchmark, size, cache=None, epoch=0):
    """Return a workload with its derived hot-path artifacts attached.

    "Prepared" means the one-time per-trace work is already done: every
    invocation trace is lowered for the default AXC issue width and the
    DDG-derived per-function MLP table is memoised on the workload.
    Prepared workloads live in memory only, in ``cache``'s index under
    ``(benchmark, size, epoch)``.  The registry's build memo and the
    lowering and MLP memos on the workload make a repeat preparation
    cheap, which is how forked pool workers reuse what the parent
    prepared (:meth:`ExecutionEngine._prepare_for_workers`).
    """
    cache = cache if cache is not None else get_engine().cache
    key = (benchmark, size, epoch)
    workload = cache.load_trace(key)
    if workload is None:
        workload = build_workload(benchmark, size)
        lower_workload(workload)
        function_mlp(workload)
        cache.store_trace(key, workload)
    return workload


def _execute(request, cache=None, epoch=None):
    """Run one simulation point from scratch (no result caching).

    Top-level so it pickles for pool workers; also the serial path.
    ``cache``/``epoch`` name the prepared-workload memo to use; they
    default to the process-wide engine's (which forked pool workers
    inherit), while in-process engines pass their own.
    """
    if cache is None:
        engine = get_engine()
        cache, epoch = engine.cache, engine.epoch
    return build_system(request, lambda benchmark: prepared_workload(
        benchmark, request.size, cache, epoch or 0)).run()


def _execute_timed(request):
    """Pool-worker entry point: run one request on the process-wide
    engine's prepared workloads (inherited from the parent by fork).
    A worker writes nothing to disk; the parent stores its results.

    Crash/hang fault injection (``REPRO_FAULT_SPEC``) hooks in here and
    *only* here — the in-process serial path stays fault-free, so
    serial fallback is a guaranteed-success last resort.
    """
    faults.on_worker_execute(request)
    start = time.perf_counter()
    result = _execute(request)
    return result, time.perf_counter() - start


def _is_picklable(obj):
    try:
        pickle.dumps(obj)
        return True
    except Exception:
        return False


class DiskCache:
    """Persistent pickle store for :class:`RunResult`\\ s.

    Layout: ``<root>/v<schema>/<key[:2]>/<key>.pkl``.  Writes go
    through a temp file in the destination directory and
    ``os.replace``, so concurrent processes never observe a torn entry.
    A per-instance in-memory index short-circuits repeat loads and
    preserves object identity within a process; it also holds the
    prepared workloads (:meth:`load_trace`), which never reach disk.
    """

    def __init__(self, root=None):
        self._explicit_root = pathlib.Path(root) if root else None
        #: Tri-state override: None = follow ``REPRO_NO_CACHE``.
        self.enabled_override = None
        self._index = {}
        self.memory_hits = 0
        self.disk_hits = 0
        self.misses = 0
        self.stores = 0
        #: Torn/unreadable entries dropped by :meth:`_read_pickle`.
        self.corrupt_drops = 0
        #: Optional journal hook ``(event, **detail)`` set by the engine.
        self.on_event = None

    def _emit(self, event, **detail):
        if self.on_event is not None:
            self.on_event(event, **detail)

    @property
    def root(self):
        if self._explicit_root is not None:
            return self._explicit_root
        env = os.environ.get("REPRO_CACHE_DIR", "").strip()
        if env:
            return pathlib.Path(env)
        return pathlib.Path.home() / ".cache" / "repro"

    @property
    def enabled(self):
        if self.enabled_override is not None:
            return self.enabled_override
        return not _env_flag("REPRO_NO_CACHE")

    def _entry_dir(self):
        return self.root / "v{}".format(CACHE_SCHEMA_VERSION)

    def _path(self, key):
        return self._entry_dir() / key[:2] / (key + ".pkl")

    def _read_pickle(self, path):
        """Load one pickle, dropping torn/unreadable entries.

        Returns ``None`` on any failure (including absence).  Dropped
        corruption is *counted* (``corrupt_drops``) and journalled, so
        silent data loss shows up in ``cache stats`` and ``doctor``
        instead of disappearing into a recompute.
        """
        try:
            with open(path, "rb") as fileobj:
                if faults.should_corrupt(path.name):
                    raise pickle.UnpicklingError(
                        "injected corruption (REPRO_FAULT_SPEC)")
                return pickle.load(fileobj)
        except FileNotFoundError:
            return None
        except Exception as exc:
            # Torn/stale/unreadable entry: drop it and recompute.
            self.corrupt_drops += 1
            self._emit("corrupt_drop", path=str(path), error=repr(exc))
            try:
                path.unlink()
            except OSError:
                pass
            return None

    @contextlib.contextmanager
    def _advisory_lock(self, exclusive=False):
        """Cross-process writer/clearer lock on ``<root>/.lock``.

        Writers hold it *shared* for the temp-file + rename window;
        :meth:`clear` holds it *exclusive* while deleting, so a sweep
        can never unlink a live ``.tmp-*`` file out from under a
        concurrent ``store()`` (whose ``os.replace`` would then fail)
        or race a rename into resurrecting a half-deleted entry.
        Advisory ``flock`` only — platforms without :mod:`fcntl` fall
        back to the pre-lock behaviour.
        """
        if fcntl is None:  # pragma: no cover - non-POSIX fallback
            yield
            return
        lock_path = self.root / ".lock"
        lock_path.parent.mkdir(parents=True, exist_ok=True)
        with open(lock_path, "a+") as handle:
            fcntl.flock(handle,
                        fcntl.LOCK_EX if exclusive else fcntl.LOCK_SH)
            try:
                yield
            finally:
                fcntl.flock(handle, fcntl.LOCK_UN)

    def _write_pickle(self, path, obj):
        path.parent.mkdir(parents=True, exist_ok=True)
        with self._advisory_lock(exclusive=False):
            handle = tempfile.NamedTemporaryFile(
                dir=str(path.parent), prefix=".tmp-", delete=False)
            try:
                with handle as fileobj:
                    pickle.dump(obj, fileobj, pickle.HIGHEST_PROTOCOL)
                os.replace(handle.name, path)
            except BaseException:
                try:
                    os.unlink(handle.name)
                except OSError:
                    pass
                raise

    def load(self, key):
        """Return the cached result for ``key`` or ``None``."""
        if key is None or not self.enabled:
            return None
        index_key = (str(self.root), key)
        if index_key in self._index:
            self.memory_hits += 1
            return self._index[index_key]
        result = self._read_pickle(self._path(key))
        if result is None:
            self.misses += 1
            return None
        self._index[index_key] = result
        self.disk_hits += 1
        return result

    def store(self, key, result):
        if key is None or not self.enabled:
            return
        self._index[(str(self.root), key)] = result
        self._write_pickle(self._path(key), result)
        self.stores += 1

    def load_trace(self, key):
        """Return the prepared workload memoised under ``key`` or
        ``None``.  Memory only, whether or not the cache is enabled."""
        return self._index.get(("trace", key))

    def store_trace(self, key, workload):
        self._index[("trace", key)] = workload

    def clear_index(self):
        """Drop the in-memory index (disk entries survive)."""
        self._index.clear()

    def _iter_temp_files(self):
        """Orphaned ``.tmp-*`` files left by writers killed mid-write."""
        root = self.root
        if root.is_dir():
            yield from root.rglob(".tmp-*")

    def _iter_stale_schema_dirs(self):
        """Version directories left behind by older cache schemas.

        The layout keys every entry under ``<root>/v<schema>/``, so a
        schema bump *orphans* the previous version's tree rather than
        leaving incompatible pickles where a new reader would trip on
        them: old entries are never read again, only counted
        (:meth:`stale_schema_stats`) and reaped (:meth:`clear`).
        """
        root = self.root
        current = self._entry_dir().name
        if not root.is_dir():
            return
        for path in sorted(root.iterdir()):
            if path.is_dir() and path.name != current \
                    and path.name.startswith("v") \
                    and path.name[1:].isdigit():
                yield path

    def stale_schema_stats(self):
        """Return ``(entries, total_bytes)`` across old-schema dirs."""
        entries, total = 0, 0
        for stale_dir in self._iter_stale_schema_dirs():
            count, size = self._tally(stale_dir)
            entries += count
            total += size
        return entries, total

    def clear(self):
        """Delete every on-disk result, any orphaned ``.tmp-*`` files
        and any old-schema version directories; returns the number of
        entries removed.

        Holds the advisory lock *exclusive*, so concurrent writers
        (pool workers mid-``store()``) finish their atomic rename
        before the sweep runs — their temp files are either already
        renamed (and deleted here as entries) or not yet created.
        """
        removed = 0
        with self._advisory_lock(exclusive=True):
            entry_dir = self._entry_dir()
            if entry_dir.is_dir():
                for path in sorted(entry_dir.rglob("*.pkl")):
                    try:
                        path.unlink()
                        removed += 1
                    except OSError:
                        pass
            for stale_dir in self._iter_stale_schema_dirs():
                for path in sorted(stale_dir.rglob("*.pkl")):
                    try:
                        path.unlink()
                        removed += 1
                    except OSError:
                        pass
                # Remove the emptied version tree itself (leaves of the
                # rglob walk first); non-empty leftovers are harmless.
                for sub in sorted(stale_dir.rglob("*"), reverse=True):
                    try:
                        if sub.is_dir():
                            sub.rmdir()
                        else:
                            sub.unlink()
                    except OSError:
                        pass
                try:
                    stale_dir.rmdir()
                except OSError:
                    pass
            for path in sorted(self._iter_temp_files()):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
            self.clear_index()
        return removed

    def _tally(self, root_dir):
        entries, total = 0, 0
        if root_dir.is_dir():
            for path in root_dir.rglob("*.pkl"):
                try:
                    total += path.stat().st_size
                    entries += 1
                except OSError:
                    pass
        return entries, total

    def disk_stats(self):
        """Return ``(entries, total_bytes)`` for on-disk results."""
        return self._tally(self._entry_dir())

    def temp_stats(self):
        """Return ``(count, total_bytes)`` for orphaned ``.tmp-*`` files.

        These are left behind when a writer dies between creating its
        temp file and the atomic ``os.replace``; they are real disk
        usage ``disk_stats()`` alone would under-report, and ``clear()``
        sweeps them.
        """
        count, total = 0, 0
        for path in self._iter_temp_files():
            try:
                total += path.stat().st_size
                count += 1
            except OSError:
                pass
        return count, total


def read_journal(path):
    """Parse a ``REPRO_ENGINE_LOG`` JSONL file, tolerating torn lines.

    Returns ``(records, torn)``: every line that parses as a JSON
    object, plus a count of lines skipped because a concurrent writer
    (or a kill mid-append) left them incomplete or interleaved.  The
    writer side appends each record as one atomic ``write()``, so torn
    lines should be rare — but a reader (``doctor``, the service) must
    never die on one.
    """
    records, torn = [], 0
    try:
        with open(path, "rb") as fileobj:
            data = fileobj.read()
    except OSError:
        return [], 0
    for line in data.split(b"\n"):
        if not line.strip():
            continue
        try:
            record = json.loads(line.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            torn += 1
            continue
        if isinstance(record, dict):
            records.append(record)
        else:
            torn += 1
    return records, torn


class EngineJournal:
    """Ring buffer of engine recovery events, optionally mirrored to disk.

    Every retry, pool respawn, timeout, serial-fallback downgrade,
    corrupt-entry drop and point failure is recorded as a dict with an
    ``event`` name and a monotonic ``seq``; the last ``maxlen`` events
    are kept in memory (``fusion-sim doctor`` prints the tail).  When
    ``REPRO_ENGINE_LOG`` names a file, each event is also appended as
    one JSON line (best-effort — journal I/O must never fail a batch).
    Appends are a single ``os.write`` on an ``O_APPEND`` descriptor, so
    concurrent engine processes sharing one log file interleave whole
    lines, never bytes; :func:`read_journal` skips anything torn by a
    writer killed mid-append.  ``on_record`` (when set) receives every
    record — the bridge the sweep service uses to mirror engine
    recovery events into the durable experiment store.
    """

    def __init__(self, maxlen=256):
        self.events = deque(maxlen=maxlen)
        self._seq = 0
        #: Optional callback ``(record_dict) -> None``; exceptions are
        #: swallowed — observers must never fail a batch.
        self.on_record = None

    def emit(self, event, **detail):
        self._seq += 1
        record = {"seq": self._seq, "t": round(time.time(), 3),
                  "event": event}
        record.update(detail)
        self.events.append(record)
        path = os.environ.get("REPRO_ENGINE_LOG", "").strip()
        if path:
            line = (json.dumps(record, default=str) + "\n").encode("utf-8")
            try:
                fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT,
                             0o644)
                try:
                    os.write(fd, line)
                finally:
                    os.close(fd)
            except OSError:
                pass
        if self.on_record is not None:
            try:
                self.on_record(record)
            except Exception:
                pass
        return record

    def tail(self, count=10):
        return list(self.events)[-count:]

    def counts(self):
        """``{event_name: occurrences}`` over the retained window."""
        tally = {}
        for record in self.events:
            tally[record["event"]] = tally.get(record["event"], 0) + 1
        return tally


@dataclass
class EngineTelemetry:
    """Aggregate counters across every batch an engine has run."""

    batches: int = 0
    requested: int = 0
    unique: int = 0
    computed: int = 0
    parallel_computed: int = 0
    serial_computed: int = 0
    disk_hits: int = 0
    memory_hits: int = 0
    uncacheable: int = 0
    wall_s: float = 0.0
    max_queue_depth: int = 0
    #: Recovery counters (the failure-handling paths).
    retries: int = 0
    pool_respawns: int = 0
    timeouts: int = 0
    serial_fallbacks: int = 0
    failed_points: int = 0
    corrupt_drops: int = 0

    @property
    def hits(self):
        return self.disk_hits + self.memory_hits

    def hit_ratio(self):
        served = self.hits + self.computed
        return self.hits / served if served else 0.0

    def snapshot(self):
        data = {name: getattr(self, name) for name in (
            "batches", "requested", "unique", "computed",
            "parallel_computed", "serial_computed", "disk_hits",
            "memory_hits", "uncacheable", "max_queue_depth",
            "retries", "pool_respawns", "timeouts", "serial_fallbacks",
            "failed_points", "corrupt_drops")}
        data["wall_s"] = round(self.wall_s, 6)
        data["hit_ratio"] = round(self.hit_ratio(), 6)
        return data


class ExecutionEngine:
    """Deduplicating, caching, parallelising executor for run batches."""

    def __init__(self, jobs=None, cache=None, timeout=None, retries=None):
        #: None defers to ``REPRO_JOBS``/CPU count at each batch.
        self.jobs = jobs
        #: None defers to ``REPRO_RUN_TIMEOUT`` at each batch.
        self.timeout = timeout
        #: None defers to ``REPRO_RETRIES`` (default 2) at each batch.
        self.retries = retries
        self.cache = cache if cache is not None else DiskCache()
        self.epoch = 0
        self.telemetry = EngineTelemetry()
        self.journal = EngineJournal()
        self.cache.on_event = self._on_cache_event

    def _on_cache_event(self, event, **detail):
        if event == "corrupt_drop":
            self.telemetry.corrupt_drops += 1
        self.journal.emit(event, **detail)

    # -- configuration -----------------------------------------------------

    def bump_epoch(self):
        """Invalidate cached results for this process (see clear_cache)."""
        self.epoch += 1
        self.cache.clear_index()

    # -- execution ---------------------------------------------------------

    def run_one(self, request):
        """Run a single request (a batch of one)."""
        return self.run_batch([request])[0]

    def run_batch(self, requests, jobs=None, strict=True, timeout=None):
        """Run a batch; returns results aligned with ``requests``.

        Duplicate requests are simulated once, but every slot of the
        returned list is its own shallow copy with an independent
        ``meta`` dict — mutating one caller's result (or its telemetry)
        can never clobber another's.  Cache misses run in parallel when
        more than one is outstanding and the effective worker count
        exceeds one.

        Failure contract: a crashed pool worker respawns the pool with
        exponential backoff up to ``REPRO_RETRIES`` times, after which
        the remaining misses degrade to in-process serial execution; a
        point exceeding the per-run timeout is cancelled (its pool
        killed), marked failed and never retried, while the rest of the
        batch completes.  With ``strict=True`` (the default) a point
        that still fails raises; with ``strict=False`` its slot holds a
        structured :class:`~repro.sim.results.FailedResult` so tables
        can render a hole instead of dying.

        A request :func:`repro.systems.resolve` rejects raises
        :class:`ConfigError` before anything runs, whatever ``strict``.

        Automatic garbage collection is paused for the whole batch
        (:func:`collector_paused`); pool workers start with it off.
        """
        with collector_paused():
            return self._run_batch(requests, jobs, strict, timeout)

    def _run_batch(self, requests, jobs, strict, timeout):
        started = time.perf_counter()
        # Parse the fault spec eagerly: a typo in REPRO_FAULT_SPEC must
        # raise here, not be silently ignored because no pool worker or
        # disk read ever consulted the plan.
        faults.fault_plan()
        normalized = [request.normalized() for request in requests]
        for request in normalized:
            resolve(request)

        # Deduplicate on the cache key; unkeyable requests dedupe on the
        # request value itself when hashable, else run individually.
        unique, order = {}, []
        for request in normalized:
            key = cache_key(request, self.epoch)
            if key is None:
                try:
                    key = ("unkeyed", hash(request))
                except TypeError:
                    key = ("unkeyed", len(order), id(request))
            if key not in unique:
                unique[key] = request
            order.append(key)

        #: key -> canonical result; callers receive copies, so cached
        #: canonicals keep pristine ``meta`` dicts.
        results = {}
        #: key -> per-key meta overlay (cache source, compute wall).
        overlays = {}
        cacheable_misses, uncacheable = [], []
        for key, request in unique.items():
            if isinstance(key, tuple):
                uncacheable.append((key, request))
                continue
            memory_hits_before = self.cache.memory_hits
            cached = self.cache.load(key)
            if cached is not None:
                overlays[key] = {"source": (
                    "memory" if self.cache.memory_hits > memory_hits_before
                    else "disk")}
                results[key] = cached
            else:
                cacheable_misses.append((key, request))

        hits = len(results)
        misses = cacheable_misses + uncacheable
        queue_depth = len(misses)
        effective_jobs = resolve_jobs(self.jobs if jobs is None else jobs)
        effective_timeout = resolve_timeout(
            self.timeout if timeout is None else timeout)
        retries = resolve_retries(self.retries)

        # A single miss normally runs in-process, but a timeout can only
        # be enforced on a killable worker, so it forces the pool path.
        parallelisable, serial = [], list(uncacheable)
        want_pool = effective_jobs > 1 and (
            queue_depth > 1
            or (queue_depth == 1 and effective_timeout is not None))
        if want_pool:
            for key, request in cacheable_misses:
                if _is_picklable(request):
                    parallelisable.append((key, request))
                else:
                    serial.append((key, request))
        else:
            serial = list(misses)

        computed = {}   # key -> (result, wall_s, source)
        failures = {}   # key -> (FailedResult, exception)
        if parallelisable:
            self._run_parallel(parallelisable, effective_jobs,
                               effective_timeout, retries, computed,
                               failures)
        for key, request in serial:
            start = time.perf_counter()
            try:
                result = _execute(request, self.cache, self.epoch)
            except ConfigError:
                raise
            except Exception as exc:
                failures[key] = (self._point_failed(request, exc, 1), exc)
                continue
            computed[key] = (result, time.perf_counter() - start,
                             "computed")

        for key, (result, wall, source) in computed.items():
            if not isinstance(key, tuple):
                self.cache.store(key, result)
            overlays[key] = {"source": source, "wall_s": wall}
            results[key] = result

        if failures and strict:
            # Completed points were cached above, so a retried batch
            # resumes from where this one died.
            _, exc = next(iter(failures.values()))
            raise exc

        for key, (failure, _) in failures.items():
            overlays[key] = {"source": "failed"}
            results[key] = failure

        batch_wall = time.perf_counter() - started
        served = hits + len(computed)
        batch_hit_ratio = hits / served if served else 0.0
        parallel_done = sum(1 for _, _, source in computed.values()
                            if source == "computed-parallel")

        telemetry = self.telemetry
        telemetry.batches += 1
        telemetry.requested += len(normalized)
        telemetry.unique += len(unique)
        telemetry.computed += len(computed)
        telemetry.parallel_computed += parallel_done
        telemetry.serial_computed += len(computed) - parallel_done
        telemetry.disk_hits = self.cache.disk_hits
        telemetry.memory_hits = self.cache.memory_hits
        telemetry.uncacheable += len(uncacheable)
        telemetry.failed_points += len(failures)
        telemetry.wall_s += batch_wall
        telemetry.max_queue_depth = max(telemetry.max_queue_depth,
                                        queue_depth)
        self._persist_session_stats()

        # Per-request shallow copies with independent meta dicts: the
        # canonical (cached/indexed) objects are never mutated, so a
        # later batch's telemetry cannot clobber an earlier caller's.
        common = {
            "queue_depth": queue_depth,
            "jobs": effective_jobs,
            "batch_hit_ratio": batch_hit_ratio,
        }
        out = []
        for key in order:
            canonical = results[key]
            view = copy.copy(canonical)
            view.meta = dict(canonical.meta)
            view.meta.update(overlays.get(key, {}))
            view.meta.setdefault("wall_s", 0.0)
            view.meta.update(common)
            out.append(view)
        return out

    # -- parallel execution with recovery ----------------------------------

    def _point_failed(self, request, exc, attempts):
        failure = FailedResult(
            system=request.system, benchmark=request.benchmark,
            size=request.size, error=repr(exc), attempts=attempts)
        self.journal.emit("point_failed", key=faults.request_key(request),
                          error=failure.error, attempts=attempts)
        return failure

    @staticmethod
    def _shutdown_pool(pool, kill=False):
        """Tear a pool down; ``kill=True`` terminates worker processes
        (hung or crashed pools cannot be joined cooperatively)."""
        if not kill:
            pool.shutdown(wait=True)
            return
        processes = list((getattr(pool, "_processes", None) or {}).values())
        pool.shutdown(wait=False, cancel_futures=True)
        for process in processes:
            try:
                process.terminate()
            except Exception:
                pass
        for process in processes:
            try:
                process.join(timeout=1.0)
                if process.is_alive():
                    process.kill()
            except Exception:
                pass

    def _run_parallel(self, points, jobs, timeout, retries, computed,
                      failures):
        """Fan ``points`` out over worker pools, surviving crashes.

        Fills ``computed``/``failures`` in place.  Each round submits
        the still-missing points to a fresh pool; crashed or erroring
        points queue for the next round (a pool respawn with
        exponential backoff), up to ``retries`` respawns, after which
        the leftovers run serially in-process — the fault-free last
        resort.  Timed-out points are failed immediately, never retried.
        """
        self._prepare_for_workers(points)
        telemetry = self.telemetry
        backoff = resolve_backoff()
        attempts = {key: 0 for key, _ in points}
        pending = list(points)
        respawns = 0
        while pending:
            workers = min(jobs, len(pending))
            pool = ProcessPoolExecutor(max_workers=workers,
                                       initializer=gc.disable)
            futures = {}
            for key, request in pending:
                attempts[key] += 1
                futures[pool.submit(_execute_timed, request)] = (
                    key, request)
            retry_next, suspects, abandoned = self._collect_round(
                futures, timeout, attempts, computed)
            self._shutdown_pool(pool, kill=abandoned)
            if suspects:
                retry_next.extend(self._probe_suspects(
                    suspects, timeout, attempts, computed, failures))
            if not retry_next:
                return
            if respawns >= retries:
                # Last resort: remaining misses run in-process, where
                # fault injection never fires and a crash cannot take
                # the batch down with it.
                for key, request, exc in retry_next:
                    telemetry.serial_fallbacks += 1
                    self.journal.emit(
                        "serial_fallback",
                        key=faults.request_key(request),
                        attempts=attempts[key], last_error=repr(exc))
                    start = time.perf_counter()
                    try:
                        result = _execute(request, self.cache, self.epoch)
                    except Exception as serial_exc:
                        failures[key] = (
                            self._point_failed(request, serial_exc,
                                               attempts[key] + 1),
                            serial_exc)
                        continue
                    computed[key] = (result, time.perf_counter() - start,
                                     "computed-serial")
                return
            respawns += 1
            telemetry.pool_respawns += 1
            telemetry.retries += len(retry_next)
            delay = backoff * (2 ** (respawns - 1))
            self.journal.emit("pool_respawn", round=respawns,
                              pending=len(retry_next),
                              backoff_s=round(delay, 3))
            if delay:
                time.sleep(delay)
            pending = [(key, request) for key, request, _ in retry_next]

    def _prepare_for_workers(self, points):
        """Prepare each distinct ``(benchmark, size)`` of ``points`` once,
        here, before any pool forks: workers inherit the registry's build
        memo and the lowering and MLP memos on each workload, so none of
        them builds a workload again."""
        needed = {(benchmark, request.size) for _, request in points
                  for _, benchmark in resolve(request)[0]}
        for benchmark, size in sorted(needed):
            try:
                prepared_workload(benchmark, size, self.cache, self.epoch)
            except Exception:
                # Left to the points themselves: each run raises it
                # again and fails as itself, strict or not.
                pass

    def _collect_round(self, futures, timeout, attempts, computed):
        """Harvest one pool round's futures.

        Returns ``(retry_next, suspects, abandoned)``: ``retry_next``
        lists ``(key, request, last_exc)`` tuples to re-run,
        ``suspects`` lists ``(key, request)`` points that exceeded the
        timeout *in this pool* (the executor marks queued work
        "running" once it enters the call queue, so a suspect may just
        have been stuck behind a hung worker — only an isolated probe
        can tell), and ``abandoned`` is True when the pool must be
        killed rather than drained (a worker crashed, or a suspect may
        be holding a worker hostage).
        """
        pending = set(futures)
        starts = {}
        retry_next = []
        abandoned = False
        poll = 0.02 if timeout is not None else None
        while pending:
            done, not_done = wait(pending, timeout=poll)
            for future in done:
                key, request = futures[future]
                try:
                    result, wall = future.result()
                except BrokenProcessPool as exc:
                    abandoned = True
                    retry_next.append((key, request, exc))
                    self.journal.emit("worker_crash",
                                      key=faults.request_key(request),
                                      attempt=attempts[key])
                except Exception as exc:
                    retry_next.append((key, request, exc))
                    self.journal.emit("worker_error",
                                      key=faults.request_key(request),
                                      attempt=attempts[key],
                                      error=repr(exc))
                else:
                    computed[key] = (result, wall, "computed-parallel")
            pending = set(not_done)
            if timeout is None or not pending:
                continue
            now = time.monotonic()
            expired = [future for future in pending
                       if future.running()
                       and now - starts.setdefault(future, now) > timeout]
            if not expired:
                continue
            # Something is stuck.  Abandon the pool (a hung worker can
            # only be freed by killing it); the expired futures become
            # suspects for isolated probing and every other outstanding
            # point is requeued for a fresh pool.
            abandoned = True
            suspects = []
            for future in expired:
                suspects.append(futures[future])
                pending.discard(future)
            for future in pending:
                future.cancel()
                key, request = futures[future]
                if future.done() and not future.cancelled():
                    try:
                        result, wall = future.result(timeout=0)
                        computed[key] = (result, wall,
                                         "computed-parallel")
                        continue
                    except Exception:
                        pass
                retry_next.append((key, request, None))
            return retry_next, suspects, abandoned
        return retry_next, [], abandoned

    def _probe_suspects(self, suspects, timeout, attempts, computed,
                        failures):
        """Re-run each timeout suspect alone in a single-worker pool.

        With exactly one task and one worker, "still not done after the
        timeout" can only mean the point itself is hung, so it is
        failed; points that were merely queued behind a hung worker
        complete here and innocents are never falsely killed.  Crashes
        and worker errors during a probe are returned for the normal
        retry rounds.
        """
        retry_next = []
        for key, request in suspects:
            attempts[key] += 1
            pool = ProcessPoolExecutor(max_workers=1,
                                       initializer=gc.disable)
            future = pool.submit(_execute_timed, request)
            kill = False
            try:
                result, wall = future.result(timeout=timeout)
                computed[key] = (result, wall, "computed-parallel")
            except FuturesTimeout:
                kill = True
                self.telemetry.timeouts += 1
                exc = RunTimeout(
                    "{} exceeded the per-run timeout of {:g}s on "
                    "attempt {}".format(faults.request_key(request),
                                        timeout, attempts[key]))
                self.journal.emit("timeout",
                                  key=faults.request_key(request),
                                  timeout_s=timeout,
                                  attempt=attempts[key])
                failures[key] = (self._point_failed(request, exc,
                                                    attempts[key]), exc)
            except BrokenProcessPool as exc:
                kill = True
                retry_next.append((key, request, exc))
                self.journal.emit("worker_crash",
                                  key=faults.request_key(request),
                                  attempt=attempts[key])
            except Exception as exc:
                retry_next.append((key, request, exc))
                self.journal.emit("worker_error",
                                  key=faults.request_key(request),
                                  attempt=attempts[key], error=repr(exc))
            self._shutdown_pool(pool, kill=kill)
        return retry_next

    # -- reporting ---------------------------------------------------------

    def _stats_path(self):
        return self.cache.root / "stats.json"

    def _persist_session_stats(self):
        """Write the aggregate telemetry snapshot next to the cache.

        Best-effort (``fusion-sim cache stats`` reads it back); skipped
        entirely when the cache is disabled.
        """
        if not self.cache.enabled:
            return
        from ..accel.replay import telemetry_snapshot
        payload = {
            "schema_version": CACHE_SCHEMA_VERSION,
            "updated_unix": time.time(),
            "telemetry": self.telemetry.snapshot(),
            # Process-local replay-rung counters: only in-process
            # (serial) simulations contribute; pool workers keep their
            # own mirrors, so this is a floor, not a census.
            "replay": telemetry_snapshot(),
        }
        path = self._stats_path()
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            handle = tempfile.NamedTemporaryFile(
                mode="w", dir=str(path.parent), prefix=".tmp-",
                delete=False)
            with handle as fileobj:
                json.dump(payload, fileobj, indent=1)
            os.replace(handle.name, path)
        except OSError:
            pass

    def load_session_stats(self):
        """Return the last persisted telemetry snapshot, or ``None``."""
        try:
            with open(self._stats_path()) as fileobj:
                return json.load(fileobj)
        except (OSError, ValueError):
            return None


# -- the process-wide engine ----------------------------------------------

_ENGINE = None


def get_engine():
    """Return the process-wide :class:`ExecutionEngine` (created lazily)."""
    global _ENGINE
    if _ENGINE is None:
        _ENGINE = ExecutionEngine()
    return _ENGINE


def configure(jobs=None, cache_enabled=None, timeout=None, retries=None):
    """Apply CLI/session overrides to the process-wide engine.

    ``None`` leaves the respective setting following the environment
    (``REPRO_JOBS`` / ``REPRO_NO_CACHE`` / ``REPRO_RUN_TIMEOUT`` /
    ``REPRO_RETRIES``).
    """
    engine = get_engine()
    if jobs is not None:
        engine.jobs = resolve_jobs(jobs)
    if cache_enabled is not None:
        engine.cache.enabled_override = bool(cache_enabled)
    if timeout is not None:
        engine.timeout = resolve_timeout(timeout)
    if retries is not None:
        engine.retries = resolve_retries(retries)
    return engine


def reset_engine():
    """Drop the process-wide engine (tests and CLI isolation)."""
    global _ENGINE
    _ENGINE = None
