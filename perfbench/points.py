"""The benchmark's workloads.

Each workload is a list of simulation points plus the command a user
would run for them.  ``--seed`` permutes only order — the system,
kernel and policy-spec lists handed to the CLI and the in-process
execution order — so every point's expected result is independent of
the seed and the reference is kept per point.
"""

import random
import time
from dataclasses import dataclass

#: FFT iterated far past the registry's sizes, so the replay rung serves
#: most invocation runs: 96 traces with 6 distinct contents.  n=512 keeps
#: the replay structure of n=1024 at under half its run time.
FFT_N = 512
FFT_ITERATIONS = 16
FFT_SIZE = "n{}x{}".format(FFT_N, FFT_ITERATIONS)

POLICY_SPECS = ("static:scratch", "static:shared", "static:fusion",
                "static:fusion-dx", "bandit")


@dataclass
class Plan:
    """One seed's concrete run of a workload."""

    workload: str
    #: ``[(key, RunRequest)]`` in in-process execution order.
    requests: list
    #: Benchmarks in in-process preparation order.
    benchmarks: list
    size: str
    #: ``repro.cli`` arguments of the cold/warm command, or ``None`` when
    #: the fresh process is the benchmark's own runner.
    cli_args: list
    #: Systems in the order the benchmark's fresh runner takes them.
    runner_systems: list = None
    jobs: int = 1


def point_key(request):
    key = "{}/{}/{}".format(request.system, request.benchmark, request.size)
    label = request.config.name
    if label.startswith("sweep:"):
        key += "/" + label[len("sweep:"):]
    return key


def keyed(requests):
    return [(point_key(request), request) for request in requests]


def plan(workload, seed):
    """Return the :class:`Plan` of ``workload`` under ``seed``."""
    from repro.sim.engine import RunRequest
    from repro.sim.sweep import grid_points, policy_axis
    from repro.workloads.registry import BENCHMARKS

    rng = random.Random("{}:{}".format(workload, seed))

    def shuffled(items):
        items = list(items)
        rng.shuffle(items)
        return items

    if workload == "fig6-small":
        benchmarks = shuffled(BENCHMARKS)
        requests = [RunRequest(system, name, "small").normalized()
                    for name in benchmarks
                    for system in ("SCRATCH", "SHARED", "FUSION")]
        return Plan(workload, shuffled(keyed(requests)), benchmarks,
                    "small", ["--jobs", "1", "experiment", "fig6b",
                              "--size", "small", "--format", "json"])
    if workload == "fft-replay":
        systems = shuffled(("SCRATCH", "SHARED", "FUSION", "FUSION-Dx"))
        requests = [RunRequest(system, "fft", FFT_SIZE).normalized()
                    for system in systems]
        return Plan(workload, keyed(requests), ["fft"], FFT_SIZE, None,
                    runner_systems=shuffled(systems))
    if workload == "sweep-pool":
        specs = shuffled(POLICY_SPECS)
        benchmarks = shuffled(BENCHMARKS)
        _, requests = grid_points(["POLICY"], benchmarks,
                                  [policy_axis(*specs)], "small")
        return Plan(workload, shuffled(keyed(requests)), benchmarks,
                    "small", ["--jobs", "2", "sweep", "--policy",
                              ",".join(specs), "--benchmarks",
                              ",".join(benchmarks), "--size", "small",
                              "--format", "json"], jobs=2)
    raise KeyError(workload)


WORKLOADS = ("fig6-small", "fft-replay", "sweep-pool")


def _factory(benchmark):
    from repro.workloads.builder import AddressSpace, TraceBuilder
    space = AddressSpace()
    return space, TraceBuilder(benchmark, space)


def forget_builds():
    """Drop the registry's memoised builds, so the next :func:`prepare`
    builds from scratch and the old traces can be collected first."""
    from repro.workloads import registry
    registry.clear_caches()


def prepare(plan_, seconds=None):
    """Build, lower and characterise the plan's traces from scratch;
    returns ``{benchmark: prepared WorkloadTrace}``.  When ``seconds`` is
    a dict, each stage's wall time is stored in it under
    ``"<stage>/<benchmark>"`` (stages ``build``, ``lower``, ``mlp``)."""
    from repro.workloads import registry
    from repro.workloads.characterize import function_mlp
    from repro.workloads.kernels import fft
    from repro.workloads.lowering import lower_workload

    def timed(stage, name, fn, *args, **kwargs):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        if seconds is not None:
            seconds["{}/{}".format(stage, name)] = \
                time.perf_counter() - start
        return result

    forget_builds()
    prepared = {}
    if plan_.size == FFT_SIZE:
        prepared["fft"], _ = timed("build", "fft", fft.build_workload,
                                   _factory, n=FFT_N,
                                   iterations=FFT_ITERATIONS)
    else:
        for name in plan_.benchmarks:
            prepared[name] = timed("build", name, registry.build_workload,
                                   name, plan_.size)
    for name, workload in prepared.items():
        timed("lower", name, lower_workload, workload)
        timed("mlp", name, function_mlp, workload)
    return prepared


def simulate(plan_, prepared, requests=None, seconds=None):
    """Run every point on ``prepared`` traces; returns ``{key: RunResult
    | Exception}``.  A failing point is recorded, not raised.  When
    ``seconds`` is a dict, each point's wall time is stored in it."""
    from repro.systems import SYSTEMS

    results = {}
    for key, request in requests or plan_.requests:
        start = time.perf_counter()
        try:
            system = SYSTEMS[request.system](
                request.config, prepared[request.benchmark])
            results[key] = system.run()
        except Exception as exc:
            results[key] = exc
        if seconds is not None:
            seconds[key] = time.perf_counter() - start
    return results


def trace_counts(prepared, plan_, distinct=False):
    """Exact size of the work: ops, mem ops per point, invocations and,
    when asked, distinct invocation contents."""
    from repro.common.types import MemOp

    ops = invocations = 0
    per_benchmark_mem = {}
    unique = set()
    for name, workload in prepared.items():
        bench_mem = 0
        for trace in workload.invocations:
            ops += len(trace.ops)
            bench_mem += sum(1 for op in trace.ops if type(op) is MemOp)
            if distinct:
                unique.add((trace.name, trace.lease_time, tuple(trace.ops)))
        invocations += len(workload.invocations)
        per_benchmark_mem[name] = bench_mem
    counts = {
        "workloads.trace_ops": ops,
        "workloads.invocations": invocations,
        "systems.mem_ops": sum(per_benchmark_mem[request.benchmark]
                               for _, request in plan_.requests),
    }
    if distinct:
        counts["workloads.distinct_invocations"] = len(unique)
    return counts
