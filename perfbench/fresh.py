"""The benchmark's fresh-process runner.

Two jobs, each in a process of its own:

* ``fresh.py fft-replay --cache DIR --systems A,B,..`` runs the
  iterated FFT on the named systems through the engine's result cache
  under ``DIR``: a cold process prepares the trace through the public
  kernel builder and simulates, a warm one loads every result.  It
  prints one JSON object: per-point fingerprints and the process's
  cache and replay counters.
* ``fresh.py cli ARGS..`` runs ``fusion-sim ARGS..`` unchanged; it exists
  so that a traced run can wrap the CLI's layers from outside.

``--spans FILE`` (before the job name) traces the process: every layer
boundary records a span and the spans are written to ``FILE`` (pool
workers to ``FILE.worker-PID``) when the process ends.
"""

import time

STARTED = time.perf_counter()

import functools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


def _fft_replay(cache_dir, systems):
    """Serve each point from the engine's result cache under
    ``cache_dir``, or prepare the FFT and simulate what is missing."""
    from repro.accel import replay
    from repro.sim.engine import DiskCache, RunRequest, cache_key

    import common
    import points

    cache = DiskCache(cache_dir)
    plan = points.Plan("fft-replay", [], ["fft"], points.FFT_SIZE, None)
    requests = points.keyed([
        RunRequest(system, "fft", points.FFT_SIZE).normalized()
        for system in systems])
    results = {key: cache.load(cache_key(request))
               for key, request in requests}
    missing = [(key, request) for key, request in requests
               if results[key] is None]
    replay.reset_telemetry()
    if missing:
        computed = points.simulate(plan, points.prepare(plan), missing)
        for key, request in missing:
            if not isinstance(computed[key], BaseException):
                cache.store(cache_key(request), computed[key])
            results[key] = computed[key]
    fingerprints = {key: (repr(result)
                          if isinstance(result, BaseException)
                          else common.fingerprint(result))
                    for key, result in results.items()}
    print(json.dumps({
        "points": fingerprints,
        "computed": len(missing),
        "disk_hits": cache.disk_hits,
        "replay": replay.telemetry_snapshot(),
    }, sort_keys=True))
    return 0


def main(argv):
    spans_path = None
    if argv[:1] == ["--spans"]:
        spans_path, argv = argv[1], argv[2:]
    tracer = None
    if spans_path:
        import spans
        tracer = spans.Tracer(spans_path, STARTED)
        os.register_at_fork(after_in_child=tracer.reset_in_child)
        tracer.start_gc()
        index = tracer.open("python.import")
    import repro.cli
    job, args = argv[0], argv[1:]
    if job == "cli":
        entry = functools.partial(repro.cli.main, args)
    elif job == "fft-replay":
        entry = functools.partial(
            _fft_replay, args[args.index("--cache") + 1],
            args[args.index("--systems") + 1].split(","))
    else:
        raise SystemExit("unknown job {!r}".format(job))
    if tracer is None:
        return entry()
    tracer.close(index)
    spans.install_layers(tracer)
    try:
        return tracer.wrap(entry, "cli")()
    finally:
        sys.stdout.flush()
        tracer.stop_gc()
        tracer.dump()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
