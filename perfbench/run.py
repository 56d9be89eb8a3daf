"""The benchmark: end-to-end host time of the simulator on three workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig6-small --seed 1 --seconds 36 \\
        --trace 0
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --write-reference

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones; either way the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Every
simulated result is checked against ``reference.json``.  See
``NOTES.md`` for what each workload and metric is for.
"""

import argparse
import gc
import json
import os
import pickle
import statistics
import sys
import time

import common
import points

#: A run is rounds of one cold process, three warm ones and one
#: in-process (setup, sim) pair; warm processes then fill the run up to
#: ``--seconds``.  A run fits ``--seconds // ROUND_SECONDS`` rounds (the
#: length of one round on a 2-core VM), and takes at least
#: ``MIN_ROUNDS`` whatever ``--seconds`` says.
MIN_ROUNDS = 3
WARM_PER_ROUND = 3
ROUND_SECONDS = {"fig6-small": 12.5, "fft-replay": 10.0, "sweep-pool": 12.5}

#: Rung toggles of the fallback ladder: (metric, module, flag).
RUNGS = (("coalesce", "repro.accel.core", "COALESCE_RUNS"),
         ("phase", "repro.accel.core", "STEADY_PHASES"),
         ("vector", "repro.accel.core", "VECTOR_PHASES"),
         ("replay", "repro.accel.replay", "REPLAY_INVOCATIONS"))

#: Largest share of a traced cold process's wall that no layer span may
#: cover.
MAX_UNATTRIBUTED = 0.05


def _log(record):
    sys.stderr.write("perfbench: {}\n".format(json.dumps(record,
                                                          sort_keys=True)))


# -- fresh processes ----------------------------------------------------------

def engine_session(cache_dir):
    path = cache_dir / "stats.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def fresh_run(plan, ref, checker, cache_dir, warm, name, spans_path=None):
    """One fresh process on ``cache_dir``.

    Returns a dict: ``wall`` runs from the fork until the output is
    verified, ``start``/``end`` bound the process itself, ``rss`` is its
    peak RSS in MB and ``counts`` its engine (or runner) counters.
    """
    start, end, code, rss, out = common.spawn(
        common.fresh_argv(plan, cache_dir, spans_path),
        common.child_env(cache_dir), cache_dir.parent / name)
    ok = checker.check(code == 0, "{} exited {}".format(name, code))
    counts = {}
    if ok and plan.cli_args is not None:
        try:
            got = common.canonical_table(out)
        except (ValueError, KeyError) as exc:
            got = repr(exc)
        checker.same(got, ref["cli"], name + " output")
    elif ok:
        report = json.loads(out.strip().splitlines()[-1])
        for key, fp in report["points"].items():
            checker.same(fp, ref["points"].get(key), "{} {}".format(name,
                                                                    key))
        counts = {key: report[key]
                  for key in ("computed", "disk_hits", "replay")}
    wall = time.perf_counter() - start
    if ok and plan.cli_args is not None:
        counts = (engine_session(cache_dir) or {}).get("telemetry", {})
    if ok:
        checker.same(counts.get("computed"),
                     0 if warm else len(plan.requests),
                     name + " points computed")
        if warm:
            checker.same(counts.get("disk_hits"), len(plan.requests),
                         name + " disk hits")
    return {"wall": wall, "start": start, "end": end, "rss": rss,
            "counts": counts}


# -- in-process samples -------------------------------------------------------

def timed_sim(plan, prepared, per_point=None):
    """Simulate every point with the collector reset outside the timer;
    returns ``(results, seconds, gen2 collections, replay counters)``
    and fills ``per_point`` with each point's seconds when given."""
    from repro.accel import replay

    gc.collect()
    replay.reset_telemetry()
    before = common.gen2_collections()
    start = time.perf_counter()
    results = points.simulate(plan, prepared, seconds=per_point)
    return (results, time.perf_counter() - start,
            common.gen2_collections() - before, replay.telemetry_snapshot())


def sample_pair(plan, ref, checker):
    """One in-process sample: prepare from scratch, then simulate every
    point.  The previous sample's builds are dropped and the collector
    reset before each timer starts, so every sample starts from the same
    heap."""
    points.forget_builds()
    gc.collect()
    before = common.gen2_collections()
    stages = {}
    start = time.perf_counter()
    prepared = points.prepare(plan, stages)
    setup = time.perf_counter() - start
    gen2_setup = common.gen2_collections() - before
    per_point = {}
    results, sim, gen2_sim, telemetry = timed_sim(plan, prepared, per_point)
    checker.points(results, ref["points"])
    return prepared, results, {
        "setup_s": setup, "sim_s": sim, "gen2_setup": gen2_setup,
        "gen2_sim": gen2_sim, "replay": telemetry, "stages_s": stages,
        "points_s": per_point}


def check_counts(prepared, plan, ref, checker, distinct=False):
    counts = points.trace_counts(prepared, plan, distinct)
    for key, value in counts.items():
        checker.same(value, ref["counts"][key], key)
    return counts


def rounds(workload, seconds):
    """Rounds that fit in ``seconds``, and never fewer than
    ``MIN_ROUNDS``."""
    return max(MIN_ROUNDS, int(seconds // ROUND_SECONDS[workload]))


def untraced(plan, ref, checker, seconds, started):
    """End-to-end metrics.  Samples of each kind are spread across the
    run in rounds (a cold process, warm processes, an in-process pair),
    because this machine has slow spells lasting seconds: the minimum of
    spread-out samples repeats where a median drifts.
    ``setup_s`` and ``sim_s`` sum each stage's or point's fastest run
    over the samples, so a slow spell has to cover every sample of one
    stage or point to show."""
    probe_s = common.probe()
    colds, warm, samples, counts = [], [], [], None

    def warm_sample():
        warm.append(fresh_run(plan, ref, checker, cache_dir, True,
                              "warm{}.out".format(len(warm))))

    for index in range(rounds(plan.workload, seconds)):
        cache_dir = common.fresh_dir("cold{}".format(index))
        colds.append(fresh_run(plan, ref, checker, cache_dir, False,
                               "cold{}.out".format(index)))
        for _ in range(WARM_PER_ROUND):
            warm_sample()
        prepared, results, sample = sample_pair(plan, ref, checker)
        del results
        if counts is None:
            counts = check_counts(prepared, plan, ref, checker)
        del prepared
        samples.append(sample)
    while time.perf_counter() - started < seconds:
        warm_sample()
    for sample in samples[1:]:
        checker.same(sample["replay"], samples[0]["replay"],
                     "replay counts repeat")
        checker.same((sample["gen2_setup"], sample["gen2_sim"]),
                     (samples[0]["gen2_setup"], samples[0]["gen2_sim"]),
                     "gen2 collections per (setup, sim) sample repeat")
    warm_s = [run["wall"] for run in warm]
    cold_s = [run["wall"] for run in colds]
    _log({"workload": plan.workload, "probe_s": probe_s,
          "run_s": time.perf_counter() - started,
          "cold_s": cold_s, "warm_s": warm_s, "samples": samples,
          "counts": counts, "engine_cold": colds[0]["counts"],
          "engine_warm": warm[0]["counts"], "probe_end": common.probe()})
    return {
        "cold_s": (min(cold_s), "s"),
        "warm_s": (min(warm_s), "s"),
        "setup_s": (sum(min(s["stages_s"][key] for s in samples)
                        for key in samples[0]["stages_s"]), "s"),
        "sim_s": (sum(min(s["points_s"][key] for s in samples)
                      for key, _ in plan.requests), "s"),
        "peak_rss_mb": (statistics.median(run["rss"] for run in colds),
                        "MB"),
    }


# -- traced run ---------------------------------------------------------------

def load_spans(spans_path):
    """The traced parent's spans and every pool worker's."""
    parent = json.loads(spans_path.read_text())
    workers = [json.loads(path.read_text()) for path in
               sorted(spans_path.parent.glob(spans_path.name + ".worker-*"))]
    return parent, workers


def traced_process(plan, ref, checker, cache_dir, warm, name):
    """Run one traced fresh process; returns its stage budget.

    Interpreter start-up (fork to the runner's first statement) and
    exit (span dump to reap) become ``python.startup`` and
    ``python.exit`` spans, measured from this side.
    """
    import spans

    spans_path = cache_dir.parent / (name + ".spans")
    run = fresh_run(plan, ref, checker, cache_dir, warm, name + ".out",
                    spans_path)
    parent, workers = load_spans(spans_path)
    recorded = parent["spans"] + [
        ["python.startup", run["start"], parent["started"], -1],
        ["python.exit", parent["ended"], run["end"], -1]]
    totals, unattributed, ok = spans.budget(recorded, run["start"],
                                            run["end"])
    checker.check(ok, name + " spans nest inside its wall")
    worker_totals = {}
    worker_point_s = 0.0
    for worker in workers:
        own, _ = spans.self_times(worker["spans"])
        for key, value in own.items():
            worker_totals[key] = worker_totals.get(key, 0.0) + value
        worker_point_s += sum(end - begin for span_name, begin, end, _
                              in worker["spans"]
                              if span_name == spans.WORKER_POINT)
    batch_s = sum(end - begin for span_name, begin, end, _ in parent["spans"]
                  if span_name == "engine.batch")
    return {"wall": run["end"] - run["start"], "totals": totals,
            "unattributed": unattributed, "worker_totals": worker_totals,
            "worker_point_s": worker_point_s, "batch_s": batch_s,
            "gc_pause_s": parent["gc_pause_s"] + sum(
                worker["gc_pause_s"] for worker in workers),
            "counts": run["counts"]}


def toggle_matrix(plan, ref, checker, blob):
    """Simulate fresh copies of the prepared traces with every rung on,
    then with each rung off in turn; every variant must match the
    reference.  Returns ``(all_on_s, replay counts, results,
    {rung: marginal_s})``."""
    import importlib

    results, on_s, _, telemetry = timed_sim(plan, pickle.loads(blob))
    checker.points(results, ref["points"])
    marginals = {}
    for rung, module_name, flag in RUNGS:
        module = importlib.import_module(module_name)
        prepared = pickle.loads(blob)
        saved = getattr(module, flag)
        setattr(module, flag, False)
        try:
            off, off_s, _, _ = timed_sim(plan, prepared)
        finally:
            setattr(module, flag, saved)
        checker.points(off, ref["points"], " with {} off".format(rung))
        marginals[rung] = off_s - on_s
        del off, prepared
    return on_s, telemetry, results, marginals


def modelled(results):
    """Simulated counts summed over points (read from each RunResult)."""
    totals = dict.fromkeys((
        "coherence.l0x.misses", "coherence.l1x.misses",
        "coherence.mesi.fwd_to_tile", "mem.dram.accesses", "host.dma_kb",
        "interconnect.link_msgs", "energy.total_uj", "sim.accel_cycles"), 0)
    for result in results.values():
        stats = result.stats
        totals["coherence.l0x.misses"] += sum(
            value for name, value in stats.items()
            if name.startswith("l0x.") and name.endswith(".misses"))
        totals["coherence.l1x.misses"] += stats.get("l1x.misses", 0)
        totals["coherence.mesi.fwd_to_tile"] += stats.get(
            "mesi.fwd_to_tile", 0)
        totals["mem.dram.accesses"] += stats.get("dram.accesses", 0)
        totals["host.dma_kb"] += result.dma_kb
        totals["interconnect.link_msgs"] += sum(
            value for name, value in stats.items()
            if name.startswith("link.") and name.endswith(".msgs"))
        totals["energy.total_uj"] += result.energy.total_pj / 1e6
        totals["sim.accel_cycles"] += result.accel_cycles
    return totals


def traced(plan, ref, checker):
    import spans

    probe_s = common.probe()
    cold_dir = common.fresh_dir("cold")
    cold = traced_process(plan, ref, checker, cold_dir, False, "cold")
    warm = traced_process(plan, ref, checker, cold_dir, True, "warm")
    checker.check(cold["unattributed"] <= MAX_UNATTRIBUTED * cold["wall"],
                  "cold wall covered by no layer span: {:.1%}".format(
                      cold["unattributed"] / cold["wall"]))

    # Tracing overhead: one untraced and one traced in-process sample,
    # both simulating freshly prepared traces.
    prepared, results, untraced_sample = sample_pair(plan, ref, checker)
    counts = check_counts(prepared, plan, ref, checker, distinct=True)
    runs = sum(len(prepared[request.benchmark].invocations)
               for _, request in plan.requests)
    del prepared, results
    tracer = spans.Tracer()
    points.forget_builds()
    gc.collect()
    spans.install_layers(tracer)
    tracer.start_gc()
    try:
        prepared = points.prepare(plan)
        blob = pickle.dumps(prepared, pickle.HIGHEST_PROTOCOL)
        results, traced_sim, _, _ = timed_sim(plan, prepared)
    finally:
        tracer.stop_gc()
        tracer.unpatch()
    checker.points(results, ref["points"])
    del prepared, results, tracer
    on_s, telemetry, results, marginals = toggle_matrix(plan, ref, checker,
                                                        blob)

    metrics = {"bench.probe_s": (probe_s, "s")}
    layer = {}
    for run in (cold, warm):
        for source in (run["totals"], run["worker_totals"]):
            for key, value in source.items():
                layer[key] = layer.get(key, 0.0) + value
    for span_name, metric in spans.LAYER_METRICS.items():
        metrics[metric] = (layer.get(span_name, 0.0), "s")
    unknown = set(layer) - set(spans.LAYER_METRICS)
    checker.check(not unknown, "spans without a layer metric: {}".format(
        sorted(unknown)))
    metrics["python.gc.gen2_count"] = (untraced_sample["gen2_sim"], "count")
    metrics["python.gc.pause_s"] = (cold["gc_pause_s"] + warm["gc_pause_s"],
                                    "s")
    for key, value in counts.items():
        metrics[key] = (value, "count")
    for key in ("hits", "recordings", "misses", "ineligible"):
        metrics["accel.replay." + key] = (telemetry[key], "count")
    metrics["accel.replay.hit_ratio"] = (
        telemetry["hits"] / runs if runs else 0.0, "ratio")
    for rung, marginal in marginals.items():
        metrics["accel.rung.{}.marginal_s".format(rung)] = (marginal, "s")
    system_s = sum(value for key, value in cold["totals"].items()
                   if key.startswith("systems."))
    system_s += sum(value for key, value in cold["worker_totals"].items()
                    if key.startswith("systems."))
    metrics["systems.host_us_per_mem_op"] = (
        1e6 * system_s / counts["systems.mem_ops"], "us")
    for key, value in modelled(results).items():
        metrics[key] = (value, "uJ" if key.startswith("energy") else
                        "cycles" if key.startswith("sim.") else
                        "kB" if key.endswith("_kb") else "count")
    metrics["engine.computed"] = (cold["counts"].get("computed", 0), "count")
    metrics["engine.disk_hits"] = (warm["counts"].get("disk_hits", 0),
                                   "count")
    metrics["engine.memory_hits"] = (warm["counts"].get("memory_hits", 0),
                                     "count")
    metrics["engine.pool_busy_share"] = (
        cold["worker_point_s"] / (plan.jobs * cold["batch_s"])
        if cold["batch_s"] else 0.0, "ratio")
    metrics["trace.overhead_share"] = (
        traced_sim / untraced_sample["sim_s"] - 1.0, "ratio")
    metrics["trace.unattributed_share"] = (
        cold["unattributed"] / cold["wall"], "ratio")
    _log({"workload": plan.workload, "cold_wall_s": cold["wall"],
          "warm_wall_s": warm["wall"], "cold_totals": cold["totals"],
          "cold_worker_totals": cold["worker_totals"],
          "unattributed_s": cold["unattributed"], "traced_sim_s": traced_sim,
          "untraced_sim_s": untraced_sample["sim_s"],
          "all_on_copy_sim_s": on_s, "marginals": marginals})
    return metrics


# -- entry points -------------------------------------------------------------

def run_workload(args):
    started = time.perf_counter()
    checker = common.Checker()
    ref = common.load_reference()[args.workload]
    plan = points.plan(args.workload, args.seed)
    import repro.cli  # noqa: F401  (compiles and caches bytecode)
    if args.trace:
        metrics = traced(plan, ref, checker)
    else:
        metrics = untraced(plan, ref, checker, args.seconds, started)
    return {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=points.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if not (args.workload or args.self_test or args.write_reference):
        parser.error("one of --workload, --self-test or --write-reference "
                     "is required")
    return args


def main(argv=None):
    args = parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != common.HASH_SEED:
        # In-process samples must allocate, hash and collect the same
        # way on every run.
        env = dict(os.environ, PYTHONHASHSEED=common.HASH_SEED)
        os.execve(sys.executable, [sys.executable] + sys.argv, env)
    if not common.have_sources():
        sys.stderr.write("perfbench: no repro sources under {}\n".format(
            common.SRC))
        return 2
    common.use_sources()
    try:
        if args.self_test:
            import selftest
            report = selftest.run()
        elif args.write_reference:
            import reference
            report = reference.write()
        else:
            report = run_workload(args)
    finally:
        common.remove_work()
    print(json.dumps(report, sort_keys=True))
    return 0 if args.workload or report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
