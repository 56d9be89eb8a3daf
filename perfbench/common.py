"""Paths, child-process hygiene, result fingerprints and the correctness
gate shared by every part of the benchmark."""

import gc
import hashlib
import json
import os
import pathlib
import shutil
import subprocess
import sys
import threading
import time

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch space for result caches and span files, inside the checkout.
WORK = ROOT / ".perfbench_work"
REFERENCE = BENCH_DIR / "reference.json"
FRESH = str(BENCH_DIR / "fresh.py")

#: Fixed hash seed: set iteration order (and with it allocation order and
#: GC timing) must not differ between runs of the same code.
HASH_SEED = "0"

#: Environment switches that change what a run does or costs.  Every
#: rung toggle is stripped so no timed run ever runs with a rung off.
_STRIPPED_ENV = ("STEADY_PHASES", "VECTOR_PHASES", "REPLAY_INVOCATIONS",
                 "PYTHONDONTWRITEBYTECODE")


def have_sources():
    return (SRC / "repro" / "__init__.py").is_file()


def use_sources():
    """Import ``repro`` from this checkout's ``src`` and let the
    interpreter cache bytecode there, so every fresh process below reads
    the same compiled modules a user's installed copy would."""
    sys.dont_write_bytecode = False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env(cache_dir):
    """Environment for a fresh process: fixed hash seed, this checkout's
    sources, a private result cache, one BLAS thread and no engine log,
    fault plan or toggle.

    The simulator never calls BLAS, but numpy starts OpenBLAS's thread
    pool on import; on a 2-core VM that start-up took 0.07 s (a quarter
    of a warm run) and varied with the machine's state.
    """
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_") and key not in _STRIPPED_ENV}
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["PYTHONHASHSEED"] = HASH_SEED
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    return env


def fresh_argv(plan, cache_dir, spans_path=None):
    """Command of the plan's fresh process: the CLI itself, or the
    benchmark's runner when tracing or when the workload has no CLI
    command."""
    traced = ["--spans", str(spans_path)] if spans_path else []
    if plan.cli_args is not None:
        if spans_path:
            return [sys.executable, FRESH] + traced + ["cli"] + plan.cli_args
        return [sys.executable, "-m", "repro.cli"] + plan.cli_args
    return [sys.executable, FRESH] + traced + [
        "fft-replay", "--cache", str(cache_dir),
        "--systems", ",".join(plan.runner_systems)]


def fresh_dir(name):
    path = WORK / "run-{}".format(os.getpid()) / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def remove_work():
    shutil.rmtree(WORK / "run-{}".format(os.getpid()), ignore_errors=True)
    try:
        WORK.rmdir()
    except OSError:
        pass


def spawn(argv, env, out_path, timeout=170.0):
    """Run ``argv`` to completion; returns ``(start, end, exit_code,
    peak_rss_mb, stdout_text)`` with ``perf_counter`` start and end.

    The wall clock runs from just before the fork until the child has
    been reaped.  Peak RSS comes from the child's own ``wait4`` usage,
    which covers the child and every descendant it reaped (pool
    workers).
    """
    out_path = pathlib.Path(out_path)
    err_path = out_path.with_suffix(".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env,
                                cwd=str(ROOT))
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        sys.stderr.write(err_path.read_text()[-2000:])
    return (start, end, proc.returncode, usage.ru_maxrss / 1024.0,
            out_path.read_text())


def probe():
    """A fixed pure-Python loop.  It shows how fast the machine ran
    beside each run; nothing is divided by it."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for value in range(300000):
            total += value * value % 7
        best = min(best, time.perf_counter() - start)
    return best


def gen2_collections():
    return gc.get_stats()[2]["collections"]


def fingerprint(result):
    """Digest of everything a simulation reports: cycles, the ``repr`` of
    every energy term and every counter, sorted."""
    energy = result.energy
    payload = repr((
        result.system, result.benchmark, result.config_name,
        result.accel_cycles, result.total_cycles, repr(energy.total_pj),
        sorted((name, repr(value))
               for name, value in energy.components.items()),
        sorted((name, repr(value)) for name, value in result.stats.items()),
    ))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:24]


def canonical_table(text):
    """A CLI ``--format json`` table with its rows sorted: the seed
    permutes row order, never row content."""
    table = json.loads(text)
    return {"headers": table["headers"],
            "rows": sorted(table["rows"]),
            "notes": table["notes"]}


def load_reference():
    with open(REFERENCE) as handle:
        return json.load(handle)


class Checker:
    """Counts checked items against failures; reasons go to stderr."""

    def __init__(self, quiet=False):
        self.attempted = 0
        self.failed = 0
        self.quiet = quiet

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if not self.quiet:
                sys.stderr.write("perfbench: FAILED {}\n".format(what))
        return ok

    def points(self, results, expected, label=""):
        """Check ``{key: RunResult | Exception}`` against per-point
        reference fingerprints."""
        for key, result in results.items():
            if isinstance(result, BaseException):
                self.check(False, "{}{} raised {!r}".format(key, label,
                                                           result))
                continue
            self.check(fingerprint(result) == expected.get(key),
                       "{}{} differs from its reference".format(key, label))

    def same(self, got, want, what):
        return self.check(got == want, "{}: got {!r}, want {!r}".format(
            what, got, want))
