"""Command-line interface: run benchmarks and regenerate paper artefacts.

Examples::

    fusion-sim run FUSION histogram --size small
    fusion-sim run FUSION 'adpcm+filter' --size tiny
    fusion-sim run FUSION-Dx+SHARED 'fft|adpcm' --size tiny
    fusion-sim experiment fig6b --size small --format csv
    fusion-sim experiment all --size full
    fusion-sim compare fft --size small
    fusion-sim area --axcs 6
    fusion-sim trace fft /tmp/fft.trace --size small
    fusion-sim --jobs 4 experiment all --size full
    fusion-sim --no-cache run FUSION fft --size small
    fusion-sim --timeout 300 --retries 3 experiment all --size full
    fusion-sim cache stats
    fusion-sim profile FUSION fft --size small --top 20
    fusion-sim doctor --quick
    fusion-sim serve --port 7117
    fusion-sim submit --port 7117 --systems FUSION,SHARED \\
        --benchmarks fft --size tiny --axis lease=100,500 --wait
    fusion-sim status <job-id> --port 7117
    fusion-sim fetch <job-id> --port 7117 --format csv
"""

import argparse
import atexit
import os
import sys
import threading

from .common import collector
from .common.config import small_config
from .common.config_io import load_config
from .common.errors import ConfigError
from .energy.area import area_table, tile_area
from .sim import charts, export
from .sim import engine as engine_mod
from .sim.engine import RunRequest
from .sim.experiments import ALL_EXPERIMENTS, table2
from .sim.simulator import run
from .systems import SYSTEMS, build_system, resolve
from .workloads import trace_io
from .workloads.registry import BENCHMARKS, SIZES, build_workload


class _RequestSpelling(argparse.Action):
    """Store ``benchmark`` once :func:`repro.systems.resolve` accepts it
    with the ``system`` before it, so a bad name is a usage error."""

    def __call__(self, parser, namespace, value, option_string=None):
        try:
            resolve(RunRequest(namespace.system, value))
        except ConfigError as exc:
            raise argparse.ArgumentError(None, str(exc))
        setattr(namespace, self.dest, value)


def _add_request(parser):
    parser.add_argument("system", help="one of {}, or one per process "
                        "joined by '+'".format(", ".join(SYSTEMS)))
    parser.add_argument("benchmark", action=_RequestSpelling,
                        help="one of {}, or several joined by '+' (one "
                        "shared tile) or '|' (a tile each)".format(
                            ", ".join(BENCHMARKS)))


def _cmd_run(args):
    config = load_config(args.config) if args.config else None
    result = run(args.system, args.benchmark, args.size, config)
    if args.validate:
        from .sim.validate import check_or_raise
        check_or_raise(result)
    if args.format == "json":
        print(export.result_to_json(result, include_stats=args.stats))
        return 0
    print("system     : {}".format(result.system))
    print("benchmark  : {}".format(result.benchmark))
    print("accel cyc  : {}".format(result.accel_cycles))
    print("total cyc  : {}".format(result.total_cycles))
    print("energy (uJ): {:.3f}".format(result.energy.total_pj / 1e6))
    for component, value in sorted(result.energy.components.items()):
        if value:
            print("  {:<20s} {:.3f} uJ".format(component, value / 1e6))
    print("tile link  : {:.2f} flits/cycle".format(
        result.link_utilization()))
    if result.system == "FUSION-MT":
        print("L1X PID conflicts: {}".format(
            int(result.stat("l1x.pid_conflicts"))))
    return 0


def _render(table, fmt):
    if fmt == "csv":
        return export.table_to_csv(table)
    if fmt == "json":
        return export.table_to_json(table)
    return table.render()


def _cmd_experiment(args):
    names = (list(ALL_EXPERIMENTS) if args.name == "all"
             else [args.name])
    for name in names:
        experiment = ALL_EXPERIMENTS[name]
        table = experiment() if name == "table2" else \
            experiment(size=args.size)
        print(_render(table, args.format))
        print()
    return 0


def _cmd_compare(args):
    systems = ("SCRATCH", "SHARED", "FUSION", "FUSION-Dx", "IDEAL")
    results = {name: run(name, args.benchmark, args.size)
               for name in systems}
    ideal = results["IDEAL"].accel_cycles
    print("benchmark: {} (size={})\n".format(args.benchmark, args.size))
    print(charts.bar_chart(
        [(name, results[name].accel_cycles / 1000.0)
         for name in systems], label_width=10))
    print()
    print("{:<10s} {:>10s} {:>10s} {:>12s} {:>10s}".format(
        "system", "KCycles", "uJ", "efficiency", "link f/c"))
    for name in systems:
        result = results[name]
        print("{:<10s} {:>10.1f} {:>10.2f} {:>11.0f}% {:>10.2f}".format(
            name, result.accel_cycles / 1000.0,
            result.energy.total_pj / 1e6,
            100.0 * ideal / result.accel_cycles,
            result.link_utilization()))
    print()
    print(charts.figure6a_chart({
        args.benchmark: {name: results[name]
                         for name in ("SCRATCH", "SHARED", "FUSION")}}))
    return 0


def _cmd_area(args):
    config = small_config()
    print("{:<9s} {:<12s} {:>9s}".format("design", "component", "mm^2"))
    for system, name, area in area_table(config, args.axcs):
        print("{:<9s} {:<12s} {:>9.3f}".format(system, name, area))
    report = tile_area(config, args.axcs)
    print("\nFUSION tile leakage: {:.1f} mW "
          "({:.1f} pJ/cycle at 2 GHz)".format(
              report.leakage_mw(), report.leakage_pj_per_cycle()))
    print("dataflow wire length: {:.2f} mm".format(
        report.wire_length_mm()))
    return 0


def _cmd_trace(args):
    workload = build_workload(args.benchmark, args.size)
    trace_io.save_path(workload, args.path)
    ops = sum(len(t.ops) for t in workload.invocations)
    print("wrote {} ({} invocations, {} ops)".format(
        args.path, len(workload.invocations), ops))
    return 0


def _cmd_parallelism(args):
    from .workloads.dependence import parallelism_profile
    workload = build_workload(args.benchmark, args.size)
    critical, total, width = parallelism_profile(workload)
    sequential = run("FUSION", args.benchmark, args.size)
    pipelined = run("FUSION-PIPE", args.benchmark, args.size)
    print("benchmark          : {}".format(args.benchmark))
    print("invocations        : {}".format(total))
    print("critical path      : {} invocations".format(critical))
    print("max width          : {} concurrent".format(width))
    print("FUSION cycles      : {}".format(sequential.accel_cycles))
    print("FUSION-PIPE cycles : {}".format(pipelined.accel_cycles))
    print("overlap speedup    : {:.2f}x".format(
        sequential.accel_cycles / pipelined.accel_cycles))
    return 0


def _cmd_config(_args):
    print(table2().render())
    return 0


#: ``profile --phase`` buckets: module-path prefixes (under ``repro/``)
#: mapped to the pipeline phase whose cost they represent.  Matched in
#: order; the first hit wins.
_PROFILE_PHASES = (
    ("lowering", ("workloads/lowering",)),
    ("phases", ("workloads/phases",)),
    ("vector", ("workloads/vector",)),
    ("replay", ("accel/replay",)),
    ("policy", ("policy/",)),
    ("protocol", ("coherence/", "mem/", "interconnect/", "host/",
                  "energy/")),
    ("engine", ("accel/", "systems/", "sim/", "common/")),
)


def _profile_phase_of(filename):
    """Classify one profiled filename into a pipeline phase."""
    norm = filename.replace("\\", "/")
    marker = norm.rfind("/repro/")
    if marker < 0:
        return "other"
    tail = norm[marker + len("/repro/"):]
    for phase, prefixes in _PROFILE_PHASES:
        for prefix in prefixes:
            if tail.startswith(prefix):
                return phase
    return "other"


def _print_phase_breakdown(stats):
    """Aggregate a :class:`pstats.Stats` by pipeline phase (tottime)."""
    totals = {"lowering": 0.0, "phases": 0.0, "vector": 0.0,
              "replay": 0.0, "policy": 0.0, "protocol": 0.0,
              "engine": 0.0, "other": 0.0}
    calls = dict.fromkeys(totals, 0)
    for (filename, _line, _name), entry in stats.stats.items():
        _cc, nc, tt, _ct, _callers = entry
        phase = _profile_phase_of(filename)
        totals[phase] += tt
        calls[phase] += nc
    overall = sum(totals.values())
    print("phase breakdown (tottime):")
    for phase in ("lowering", "phases", "vector", "replay", "policy",
                  "protocol", "engine", "other"):
        share = totals[phase] / overall if overall else 0.0
        print("  {:<9} {:>8.3f}s  {:>5.1f}%  {:>12,} calls".format(
            phase, totals[phase], 100.0 * share, calls[phase]))
    print()


def _cmd_profile(args):
    """cProfile one uncached simulation and print the hottest functions.

    Bypasses the result cache and the engine entirely — the point is to
    see where a *fresh* simulation spends its time.  The workload build
    (kernel generators, DDG analysis, lowering) runs before the profiler
    starts so the report shows the simulation hot path, unless
    ``--include-build`` asks for the whole pipeline.  ``--phase``
    prepends an aggregate breakdown of where the time went: trace
    lowering, the invocation replay rung, the coherence-protocol/memory
    layers, or the execution engine (core model, systems, scheduler).
    """
    import cProfile
    import pstats

    config = load_config(args.config) if args.config else small_config()
    request = RunRequest(args.system, args.benchmark, args.size, config)
    profiler = cProfile.Profile()
    if args.include_build:
        profiler.enable()
    system = build_system(
        request, lambda benchmark: build_workload(benchmark, args.size))
    if not args.include_build:
        profiler.enable()
    result = system.run()
    profiler.disable()
    print("{} on {} (size={}): accel {} cycles, total {} cycles".format(
        args.system, args.benchmark, args.size, result.accel_cycles,
        result.total_cycles))
    stats = pstats.Stats(profiler, stream=sys.stdout)
    if args.phase:
        _print_phase_breakdown(stats)
    stats.sort_stats(args.sort)
    stats.print_stats(args.top)
    return 0


def _replay_telemetry(session):
    """Replay-rung counters for ``cache stats``: prefer this process's
    live mirror (nonzero only when a simulation ran in-process), else
    fall back to the snapshot persisted with the last session."""
    from .accel.replay import telemetry_snapshot

    live = telemetry_snapshot()
    if any(live.values()):
        return live
    return (session or {}).get("replay") or live


def _cmd_cache(args):
    engine = engine_mod.get_engine()
    cache = engine.cache
    if args.action == "clear":
        removed = cache.clear()
        print("removed {} cached file(s) from {}".format(
            removed, cache.root))
        return 0
    entries, total_bytes = cache.disk_stats()
    temp_count, temp_bytes = cache.temp_stats()
    print("cache dir      : {}".format(cache.root))
    print("enabled        : {}".format("yes" if cache.enabled else
                                       "no (REPRO_NO_CACHE)"))
    print("schema version : {}".format(engine_mod.CACHE_SCHEMA_VERSION))
    print("entries        : {} ({:.1f} kB)".format(
        entries, total_bytes / 1024.0))
    stale_entries, stale_bytes = cache.stale_schema_stats()
    if stale_entries:
        print("stale schema   : {} old-schema entrie(s) ({:.1f} kB; "
              "'cache clear' reaps them)".format(
                  stale_entries, stale_bytes / 1024.0))
    session = engine.load_session_stats()
    replay = _replay_telemetry(session)
    probes = replay.get("hits", 0) + replay.get("misses", 0)
    print("replay entries : {} recording(s) across {} key(s), "
          "{}/{} probe(s) hit{}".format(
              replay.get("recordings", 0), replay.get("keys", 0),
              replay.get("hits", 0), probes,
              " ({:.0%} hit rate)".format(replay["hits"] / probes)
              if probes else ""))
    print("temp files     : {} ({:.1f} kB orphaned; 'cache clear' "
          "sweeps them)".format(temp_count, temp_bytes / 1024.0))
    if session and "telemetry" in session:
        t = session["telemetry"]
        print("last session   : {} simulated, {} disk hits, "
              "{} memory hits, hit ratio {:.0%}".format(
                  t.get("computed", 0), t.get("disk_hits", 0),
                  t.get("memory_hits", 0), t.get("hit_ratio", 0.0)))
        recovery = {name: t.get(name, 0) for name in (
            "retries", "pool_respawns", "timeouts", "serial_fallbacks",
            "failed_points", "corrupt_drops")}
        if any(recovery.values()):
            print("recovery       : " + ", ".join(
                "{} {}".format(value, name.replace("_", " "))
                for name, value in recovery.items() if value))
    else:
        print("last session   : (no telemetry recorded)")
    return 0


def _cmd_doctor(args):
    """Engine health report plus live recovery drills.

    Quick mode reports configuration, cache health and the last
    session's telemetry.  Full mode additionally arms deterministic
    faults (``REPRO_FAULT_SPEC``) against private, cache-bypassing
    engines and verifies each recovery path end-to-end: parallel
    results match serial, a crashing worker pool converges via respawn
    plus serial fallback, and a hung point times out without poisoning
    the rest of its batch.
    """
    import contextlib

    from .sim import faults
    from .sim.engine import DiskCache, ExecutionEngine

    engine = engine_mod.get_engine()
    failures = []

    def report(name, ok, detail):
        if not ok:
            failures.append(name)
        print("  [{}] {:<16s} {}".format("ok " if ok else "FAIL",
                                         name, detail))

    timeout = engine_mod.resolve_timeout(engine.timeout)
    print("engine configuration")
    print("  jobs          : {}".format(
        engine_mod.resolve_jobs(engine.jobs)))
    print("  timeout       : {}".format(
        "{:g}s".format(timeout) if timeout is not None
        else "none (set REPRO_RUN_TIMEOUT or --timeout)"))
    print("  retries       : {} pool respawn(s) before serial fallback"
          .format(engine_mod.resolve_retries(engine.retries)))
    print("  retry backoff : {:g}s".format(engine_mod.resolve_backoff()))
    print("  fault spec    : {}".format(
        os.environ.get("REPRO_FAULT_SPEC", "").strip() or "(none armed)"))
    log_path = os.environ.get("REPRO_ENGINE_LOG", "").strip()
    print("  engine log    : {}".format(
        log_path or "(in-memory ring buffer only)"))
    if log_path and os.path.exists(log_path):
        records, torn = engine_mod.read_journal(log_path)
        print("                  {} event(s) on disk{}".format(
            len(records),
            ", {} torn line(s) skipped".format(torn) if torn else ""))

    cache = engine.cache
    entries, total_bytes = cache.disk_stats()
    temp_count, temp_bytes = cache.temp_stats()
    print("cache health")
    print("  dir           : {}".format(cache.root))
    print("  enabled       : {}".format("yes" if cache.enabled else "no"))
    print("  entries       : {} ({:.1f} kB)".format(
        entries, total_bytes / 1024.0))
    print("  temp files    : {} ({:.1f} kB orphaned{})".format(
        temp_count, temp_bytes / 1024.0,
        "; run 'fusion-sim cache clear'" if temp_count else ""))

    session = engine.load_session_stats()
    if session and "telemetry" in session:
        t = session["telemetry"]
        print("last session")
        print("  {} simulated, {} disk hits, {} memory hits".format(
            t.get("computed", 0), t.get("disk_hits", 0),
            t.get("memory_hits", 0)))
        print("  {} retries, {} pool respawns, {} timeouts, "
              "{} serial fallbacks, {} failed points, {} corrupt drops"
              .format(t.get("retries", 0), t.get("pool_respawns", 0),
                      t.get("timeouts", 0), t.get("serial_fallbacks", 0),
                      t.get("failed_points", 0), t.get("corrupt_drops", 0)))

    if args.quick:
        print("recovery drills skipped (--quick)")
        return 0

    @contextlib.contextmanager
    def patched(**pairs):
        saved = {name: os.environ.get(name) for name in pairs}
        try:
            for name, value in pairs.items():
                if value is None:
                    os.environ.pop(name, None)
                else:
                    os.environ[name] = value
            yield
        finally:
            for name, value in saved.items():
                if value is None:
                    os.environ.pop(name, None)
                else:
                    os.environ[name] = value

    def drill_engine(jobs, timeout=None, retries=None):
        private = DiskCache()
        private.enabled_override = False
        return ExecutionEngine(jobs=jobs, cache=private,
                               timeout=timeout, retries=retries)

    requests = [RunRequest(system, benchmark, "tiny")
                for system in ("FUSION", "SHARED")
                for benchmark in ("adpcm", "fft", "filter")]
    print("recovery drills (size=tiny, private cache-bypassing engines)")

    baseline = None
    try:
        with patched(REPRO_FAULT_SPEC=None, REPRO_RETRY_BACKOFF="0"):
            baseline = drill_engine(jobs=1).run_batch(requests)
            parallel = drill_engine(jobs=2).run_batch(requests)
        report("determinism", parallel == baseline,
               "parallel (jobs=2) matches serial on {} points"
               .format(len(requests)))
    except Exception as exc:  # pragma: no cover - drill must not die
        report("determinism", False, repr(exc))

    drill = None
    try:
        with patched(REPRO_FAULT_SPEC="crash:every=1",
                     REPRO_RETRY_BACKOFF="0"):
            drill = drill_engine(jobs=2, retries=1)
            crashed = drill.run_batch(requests)
        snap = drill.telemetry.snapshot()
        ok = (baseline is not None and crashed == baseline
              and snap["pool_respawns"] >= 1
              and snap["serial_fallbacks"] >= 1)
        report("crash-recovery", ok,
               "{} pool respawn(s), {} serial fallback(s), "
               "results match serial baseline"
               .format(snap["pool_respawns"], snap["serial_fallbacks"]))
    except Exception as exc:  # pragma: no cover - drill must not die
        report("crash-recovery", False, repr(exc))

    try:
        with patched(REPRO_FAULT_SPEC="hang:key="
                     + faults.request_key(requests[0]),
                     REPRO_RETRY_BACKOFF="0"):
            drill = drill_engine(jobs=2, timeout=0.5)
            out = drill.run_batch(requests, strict=False)
        failed = [r for r in out if not r.ok]
        survivors_intact = (baseline is not None and all(
            r == b for r, b in zip(out, baseline) if r.ok))
        ok = (len(failed) == 1
              and failed[0].system == requests[0].system
              and failed[0].benchmark == requests[0].benchmark
              and survivors_intact)
        report("timeout", ok,
               "hung point -> FailedResult after {} attempt(s), "
               "{}/{} survivors intact".format(
                   failed[0].attempts if failed else 0,
                   sum(1 for r in out if r.ok), len(out) - 1))
        if drill is not None:
            print("drill journal tail")
            for event in drill.journal.tail(6):
                extra = {k: v for k, v in event.items()
                         if k not in ("seq", "t", "event")}
                print("  #{:<3d} {:<14s} {}".format(
                    event["seq"], event["event"], extra or ""))
    except Exception as exc:  # pragma: no cover - drill must not die
        report("timeout", False, repr(exc))

    if failures:
        print("doctor: {} check(s) FAILED: {}".format(
            len(failures), ", ".join(failures)))
        return 1
    print("doctor: all checks passed")
    return 0


def _cmd_serve(args):
    """Run the sweep-service daemon (see repro.sim.service)."""
    from .sim import store as store_mod
    from .sim.service import serve

    path = args.store or store_mod.default_store_path()
    return serve(path, host=args.host, port=args.port,
                 batch_size=args.batch, lease_s=args.lease,
                 poll_s=args.poll, announce=args.announce)


def _service_client(args):
    from .sim.service import ServiceClient

    if args.announce:
        return ServiceClient.from_announce(args.announce)
    return ServiceClient(args.host, args.port)


def _add_client_args(parser):
    parser.add_argument("--host", default="127.0.0.1",
                        help="service host (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=7117,
                        help="service port (default 7117)")
    parser.add_argument("--announce", default=None, metavar="FILE",
                        help="read host/port from a serve --announce "
                             "file instead")


def _print_status(counts):
    print("total {total}  done {done}  failed {failed}  "
          "claimed {claimed}  pending {pending}".format(**counts))


def _fetch_table(payload):
    """Render a fetch response as an ExperimentTable."""
    from .sim.reporting import ExperimentTable

    spec = payload["spec"]
    axis_names = [axis["kind"] for axis in spec["axes"]]
    metrics = spec["metrics"]
    table = ExperimentTable(
        "Job " + payload["job_id"],
        "sweep service results (size={})".format(spec["size"]),
        ["System", "Benchmark"] + axis_names + metrics + ["Status"])
    for row in payload["rows"]:
        point = row["point"]
        labels = [label for _kind, label in point["axes"]]
        if row["status"] == "done" and row["metrics"] is not None:
            cells = [row["metrics"][name] for name in metrics]
        else:
            cells = ["FAILED" if row["status"] == "failed" else "..."
                     for _ in metrics]
        table.add_row(point["system"], point["benchmark"], *labels,
                      *cells, row["status"])
    failures = [row for row in payload["rows"]
                if row["status"] == "failed"]
    for row in failures:
        table.add_note("failed {}:{}: {}".format(
            row["point"]["system"], row["point"]["benchmark"],
            row["error"]))
    return table


def _cmd_sweep(args):
    """Run a design-space sweep in-process (no daemon needed).

    ``--axis KIND=V1,V2`` adds a config axis (lease / l0x_kb / l1x_kb,
    as in ``submit``); ``--policy SPEC1,SPEC2`` sweeps policy selectors
    (``static:fusion``, ``static:fusion:lease=250``, ``bandit``,
    ``bandit:0.2``, ``ucb:1.5``) on the POLICY system.
    """
    from .sim.jobs import AXIS_KINDS
    from .sim.sweep import policy_axis, sweep
    axes = []
    for axis in args.axis or ():
        kind, _, values = axis.partition("=")
        kind = kind.strip()
        if kind not in AXIS_KINDS:
            raise ConfigError(
                "unknown axis kind {!r}; expected one of {}".format(
                    kind, ", ".join(sorted(AXIS_KINDS))))
        axes.append(AXIS_KINDS[kind](
            *[int(v) for v in values.split(",") if v.strip()]))
    systems = [s.strip() for s in args.systems.split(",") if s.strip()]
    if args.policy:
        specs = [s.strip() for s in args.policy.split(",") if s.strip()]
        axes.append(policy_axis(*specs))
        systems = ["POLICY"]
    benchmarks = [b.strip() for b in args.benchmarks.split(",")
                  if b.strip()]
    table, _results = sweep(
        systems=systems, benchmarks=benchmarks, axes=axes,
        metrics=[m.strip() for m in args.metrics.split(",")
                 if m.strip()],
        size=args.size, strict=not args.keep_going)
    print(_render(table, args.format))
    return 0


def _cmd_submit(args):
    spec = {
        "systems": args.systems.split(","),
        "benchmarks": args.benchmarks.split(","),
        "size": args.size,
        "axes": [],
        "metrics": (args.metrics.split(",") if args.metrics else None),
    }
    for axis in args.axis or ():
        kind, _, values = axis.partition("=")
        spec["axes"].append({"kind": kind.strip(),
                             "values": [v.strip() for v in
                                        values.split(",") if v.strip()]})
    with _service_client(args) as client:
        job_id = client.submit(spec, client="fusion-sim submit")
        print("job {}".format(job_id))
        if not args.wait:
            _print_status(client.status(job_id))
            return 0
        counts = client.wait(job_id, timeout=args.wait_timeout)
        _print_status(counts)
        payload = client.fetch(job_id)
    print(_render(_fetch_table(payload), args.format))
    return 1 if counts["failed"] else 0


def _cmd_status(args):
    with _service_client(args) as client:
        counts = client.status(args.job_id)
    _print_status(counts)
    return 0


def _cmd_fetch(args):
    with _service_client(args) as client:
        payload = client.fetch(args.job_id)
    if args.format == "raw":
        import json as json_mod

        print(json_mod.dumps(payload, indent=1, sort_keys=True))
    else:
        print(_render(_fetch_table(payload), args.format))
    return 0


def _cmd_check(args):
    """Coherence model checking: exhaustive bounded exploration, seeded
    random walks and litmus tests over the real controllers (or, with
    ``--self-test``, the mutation suite the checker must catch)."""
    import json

    from . import check as check_mod

    kinds = tuple(args.kind) if args.kind else None
    if args.self_test:
        report = check_mod.run_self_test(depth=args.depth, kinds=kinds)
        lines = check_mod.summarize_self_test(report)
    else:
        from .check.scenarios import KINDS
        report = check_mod.run_check(
            depth=args.depth if args.depth is not None else 8,
            seed=args.seed, schedules=args.schedules,
            kinds=kinds or KINDS,
            scenario_name=args.scenario,
            mutation_name=args.mutate)
        lines = check_mod.summarize(report)
    if args.json:
        print(json.dumps(report, indent=1, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return 0 if report["ok"] else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fusion-sim",
        description="FUSION (ISCA 2015) reproduction simulator")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="simulation worker processes "
                             "(default: REPRO_JOBS or CPU count; "
                             "1 forces serial execution)")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the persistent result cache "
                             "(equivalent to REPRO_NO_CACHE=1)")
    parser.add_argument("--timeout", type=float, default=None,
                        metavar="S",
                        help="per-simulation wall-clock budget in "
                             "seconds (default: REPRO_RUN_TIMEOUT; "
                             "0 disables)")
    parser.add_argument("--retries", type=int, default=None, metavar="N",
                        help="pool respawns after worker crashes "
                             "before degrading to in-process serial "
                             "execution (default: REPRO_RETRIES or 2)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_size(p):
        p.add_argument("--size", default="full", choices=SIZES)

    run_p = sub.add_parser("run", help="run one system on one benchmark")
    _add_request(run_p)
    add_size(run_p)
    run_p.add_argument("--format", default="text",
                       choices=("text", "json"))
    run_p.add_argument("--stats", action="store_true",
                       help="include raw counters in JSON output")
    run_p.add_argument("--config", default=None,
                       help="JSON config-override file "
                            "(see repro.common.config_io)")
    run_p.add_argument("--validate", action="store_true",
                       help="cross-check the result's internal "
                            "consistency (repro.sim.validate)")
    run_p.set_defaults(func=_cmd_run)

    exp_p = sub.add_parser("experiment",
                           help="regenerate a paper table/figure")
    exp_p.add_argument("name", choices=sorted(ALL_EXPERIMENTS) + ["all"])
    add_size(exp_p)
    exp_p.add_argument("--format", default="text",
                       choices=("text", "csv", "json"))
    exp_p.set_defaults(func=_cmd_experiment)

    swp_p = sub.add_parser("sweep",
                           help="run a design-space sweep in-process")
    swp_p.add_argument("--systems", default="FUSION",
                       help="comma-separated system names "
                            "(default: FUSION)")
    swp_p.add_argument("--benchmarks", default=",".join(BENCHMARKS),
                       help="comma-separated benchmarks (default: all)")
    swp_p.add_argument("--size", default="small", choices=SIZES)
    swp_p.add_argument("--axis", action="append", metavar="KIND=V1,V2",
                       help="config axis: lease, l0x_kb or l1x_kb "
                            "(repeatable)")
    swp_p.add_argument("--policy", default=None, metavar="SPECS",
                       help="sweep policy selectors on the POLICY "
                            "system: comma-separated specs like "
                            "static:fusion, static:fusion:lease=250, "
                            "bandit, bandit:0.2, ucb:1.5")
    swp_p.add_argument("--metrics", default="accel_cycles,energy_uj",
                       help="comma-separated metrics "
                            "(see repro.sim.sweep.METRICS)")
    swp_p.add_argument("--keep-going", action="store_true",
                       help="render FAILED holes instead of aborting "
                            "on the first failed point")
    swp_p.add_argument("--format", default="text",
                       choices=("text", "csv", "json"))
    swp_p.set_defaults(func=_cmd_sweep)

    cmp_p = sub.add_parser("compare",
                           help="all systems + IDEAL bound on one "
                                "benchmark, with charts")
    cmp_p.add_argument("benchmark", choices=BENCHMARKS)
    add_size(cmp_p)
    cmp_p.set_defaults(func=_cmd_compare)

    area_p = sub.add_parser("area", help="tile floorplan and leakage")
    area_p.add_argument("--axcs", type=int, default=4)
    area_p.set_defaults(func=_cmd_area)

    trace_p = sub.add_parser("trace",
                             help="dump a benchmark's trace to a file")
    trace_p.add_argument("benchmark", choices=BENCHMARKS)
    trace_p.add_argument("path")
    add_size(trace_p)
    trace_p.set_defaults(func=_cmd_trace)

    par_p = sub.add_parser("parallelism",
                           help="invocation-level parallelism profile "
                                "and pipelined speedup")
    par_p.add_argument("benchmark", choices=BENCHMARKS)
    add_size(par_p)
    par_p.set_defaults(func=_cmd_parallelism)

    cfg_p = sub.add_parser("config", help="print Table 2 parameters")
    cfg_p.set_defaults(func=_cmd_config)

    prof_p = sub.add_parser("profile",
                            help="cProfile one uncached simulation and "
                                 "print the hottest functions")
    _add_request(prof_p)
    add_size(prof_p)
    prof_p.add_argument("--top", type=int, default=25, metavar="N",
                        help="rows of the profile report (default 25)")
    prof_p.add_argument("--sort", default="cumulative",
                        choices=("cumulative", "tottime", "calls"),
                        help="pstats sort order (default cumulative)")
    prof_p.add_argument("--include-build", action="store_true",
                        help="profile workload construction and "
                             "lowering too, not just the simulation")
    prof_p.add_argument("--phase", action="store_true",
                        help="prepend an aggregate lowering / replay "
                             "/ protocol / engine phase breakdown")
    prof_p.add_argument("--config", default=None,
                        help="JSON config-override file")
    prof_p.set_defaults(func=_cmd_profile)

    cache_p = sub.add_parser("cache",
                             help="persistent result-cache maintenance")
    cache_p.add_argument("action", choices=("stats", "clear"))
    cache_p.set_defaults(func=_cmd_cache)

    chk_p = sub.add_parser("check",
                           help="coherence model checker: bounded "
                                "interleaving exploration, litmus tests "
                                "and the mutation self-test")
    chk_p.add_argument("--depth", type=int, default=None, metavar="N",
                       help="interleaving exploration depth bound "
                            "(default 8; self-test defaults to each "
                            "scenario's full script)")
    chk_p.add_argument("--seed", type=int, default=0, metavar="S",
                       help="seed for random scenarios and random-walk "
                            "schedules; a failure's printed seed "
                            "replays it exactly (default 0)")
    chk_p.add_argument("--schedules", type=int, default=20, metavar="K",
                       help="random-walk schedules per scenario "
                            "(default 20)")
    chk_p.add_argument("--kind", action="append", default=None,
                       choices=("acc", "shared", "dx"),
                       help="restrict to one protocol kind "
                            "(repeatable; default: all)")
    chk_p.add_argument("--scenario", default=None, metavar="NAME",
                       help="run only one catalog scenario (skips "
                            "litmus tests)")
    chk_p.add_argument("--mutate", default=None, metavar="NAME",
                       help="inject one named protocol mutation; the "
                            "run is then expected to fail (debugging "
                            "and repro aid)")
    chk_p.add_argument("--self-test", action="store_true",
                       help="verify every seeded mutation is caught "
                            "instead of checking the correct protocol")
    chk_p.add_argument("--json", action="store_true",
                       help="emit the full report as JSON")
    chk_p.set_defaults(func=_cmd_check)

    srv_p = sub.add_parser("serve",
                           help="run the sweep-service daemon: durable "
                                "job store + claim workers over the "
                                "batch engine")
    srv_p.add_argument("--host", default="127.0.0.1")
    srv_p.add_argument("--port", type=int, default=7117,
                       help="listen port (0 picks a free one; see "
                            "--announce)")
    srv_p.add_argument("--store", default=None, metavar="PATH",
                       help="experiment store database (default "
                            "<cache dir>/store.db)")
    srv_p.add_argument("--batch", type=int, default=4, metavar="N",
                       help="rows claimed per engine batch (default 4)")
    srv_p.add_argument("--lease", type=float, default=60.0, metavar="S",
                       help="claim lease seconds before other workers "
                            "may steal a row (default 60)")
    srv_p.add_argument("--poll", type=float, default=0.2, metavar="S",
                       help="idle store poll interval (default 0.2)")
    srv_p.add_argument("--announce", default=None, metavar="FILE",
                       help="write the bound host/port/pid as JSON "
                            "once listening")
    srv_p.set_defaults(func=_cmd_serve)

    sub_p = sub.add_parser("submit",
                           help="submit a sweep spec to a running "
                                "service")
    sub_p.add_argument("--systems", required=True,
                       help="comma-separated system list")
    sub_p.add_argument("--benchmarks", required=True,
                       help="comma-separated benchmark list")
    sub_p.add_argument("--size", default="tiny", choices=SIZES)
    sub_p.add_argument("--axis", action="append", metavar="KIND=V1,V2",
                       help="sweep axis, e.g. lease=100,500 or "
                            "l0x_kb=4,8 (repeatable)")
    sub_p.add_argument("--metrics", default=None,
                       help="comma-separated metric list (default "
                            "accel_cycles,energy_uj)")
    sub_p.add_argument("--wait", action="store_true",
                       help="stream progress until done, then fetch "
                            "and render the results")
    sub_p.add_argument("--wait-timeout", type=float, default=600.0,
                       metavar="S")
    sub_p.add_argument("--format", default="text",
                       choices=("text", "csv", "json"))
    _add_client_args(sub_p)
    sub_p.set_defaults(func=_cmd_submit)

    st_p = sub.add_parser("status",
                          help="per-status row counts for one job")
    st_p.add_argument("job_id")
    _add_client_args(st_p)
    st_p.set_defaults(func=_cmd_status)

    fe_p = sub.add_parser("fetch",
                          help="fetch one job's rows and results")
    fe_p.add_argument("job_id")
    fe_p.add_argument("--format", default="text",
                      choices=("text", "csv", "json", "raw"))
    _add_client_args(fe_p)
    fe_p.set_defaults(func=_cmd_fetch)

    doc_p = sub.add_parser("doctor",
                           help="engine health report and live "
                                "fault-recovery drills")
    doc_p.add_argument("--quick", action="store_true",
                       help="report configuration and telemetry only; "
                            "skip the recovery drills")
    doc_p.set_defaults(func=_cmd_doctor)
    return parser


def main(argv=None, one_shot=False):
    """Run one ``fusion-sim`` command; returns its exit code.

    ``one_shot`` says the process ends when this returns (only
    :func:`entry` sets it): every command but ``serve`` then freezes
    what its engine batches leave alive
    (:func:`~repro.common.collector.freeze_batch_survivors`).
    """
    args = build_parser().parse_args(argv)
    if one_shot and args.func is not _cmd_serve:
        collector.freeze_batch_survivors()
    if (args.jobs is not None or args.no_cache
            or args.timeout is not None or args.retries is not None):
        engine_mod.configure(
            jobs=args.jobs,
            cache_enabled=False if args.no_cache else None,
            timeout=args.timeout,
            retries=args.retries)
    return args.func(args)


def entry():
    """Process entry of ``fusion-sim`` and ``python -m repro.cli``.

    Runs :func:`main`; when it returns, the process ends without
    tearing its heap down: the atexit handlers run, stdout and stderr
    are flushed (the interpreter's own exit order), and ``os._exit``
    ends the process with main's code.  Every file the CLI writes
    (results, store rows, journal lines, session stats) is already
    closed by then, and every pool already shut down.  When main raises
    (``SystemExit`` included), another non-daemon thread still runs or
    a flush fails (a closed pipe), the interpreter exits the usual way.
    """
    code = main(one_shot=True)
    if any(not thread.daemon and thread.is_alive()
           for thread in threading.enumerate()
           if thread is not threading.main_thread()):
        sys.exit(code)
    atexit._run_exitfuncs()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:
        sys.exit(code)
    os._exit(0 if code is None else code)


if __name__ == "__main__":
    entry()
