"""The simulated systems: one :class:`System` model, its registry, and
the one function that turns a request's spelling into a system.

Each registry entry is one tenant under a selector: the paper's four
designs and the IDEAL bound run a static strategy, FUSION-PIPE runs
FUSION with a dependence-aware schedule, and POLICY runs the selector
``config.policy`` describes.  A request names several processes on one
host (FUSION-MT, FUSION-2T) by joining benchmarks; see :func:`resolve`.
"""

from ..coherence.strategy import IDEAL
from ..common.errors import ConfigError
from ..workloads.registry import BENCHMARKS, SIZES
from .pipelined import PipelinedSystem
from .system import System, preset

#: Registry keyed by the names used throughout the paper's figures,
#: plus the analysis/extension systems.
SYSTEMS = {
    "SCRATCH": preset("SCRATCH", "scratch"),
    "SHARED": preset("SHARED", "shared"),
    "FUSION": preset("FUSION", "fusion"),
    "FUSION-Dx": preset("FUSION-Dx", "fusion-dx"),
    "IDEAL": preset("IDEAL", IDEAL),
    "FUSION-PIPE": preset("FUSION-PIPE", "fusion", PipelinedSystem),
    "POLICY": preset("POLICY", None),
}


def _split(value, separator):
    return value.split(separator) if isinstance(value, str) else [value]


def _unknown(kind, name, table):
    return ConfigError("unknown {} {!r}; expected one of {}".format(
        kind, name, ", ".join(table)))


def resolve(request):
    """Parse and check a request's ``system``/``benchmark``/``size``.

    ``benchmark`` is one registry benchmark, or several joined by ``+``
    (the processes time-share one PID-tagged tile) or by ``|`` (each
    gets its own tile).  ``system`` is one registry name for every
    tenant, or one name per tenant joined by ``+``.  Returns
    ``([(registry class, benchmark), ...], per_tile)``, one pair per
    tenant; raises :class:`ConfigError` for an unknown name or size, a
    system count that matches neither one nor the tenant count, or
    FUSION-PIPE (whose schedule is per workload) beside another tenant.
    """
    system, benchmark = request.system, request.benchmark
    per_tile = isinstance(benchmark, str) and "|" in benchmark
    names = _split(system, "+")
    benchmarks = _split(benchmark, "|" if per_tile else "+")
    for name in names:
        if not isinstance(name, str) or name not in SYSTEMS:
            raise _unknown("system", name, SYSTEMS)
    for name in benchmarks:
        if name not in BENCHMARKS:
            raise _unknown("benchmark", name, BENCHMARKS)
    if request.size not in SIZES:
        raise _unknown("size", request.size, SIZES)
    if len(names) == 1:
        names = names * len(benchmarks)
    elif len(names) != len(benchmarks):
        raise ConfigError("{!r} names {} systems for {} benchmark(s) in "
                          "{!r}".format(system, len(names), len(benchmarks),
                                        benchmark))
    if len(names) > 1 and "FUSION-PIPE" in names:
        raise ConfigError("FUSION-PIPE schedules one workload; it cannot "
                          "share a run ({!r} on {!r})".format(system,
                                                               benchmark))
    return list(zip([SYSTEMS[name] for name in names], benchmarks)), per_tile


def build_system(request, workload_of):
    """The :class:`System` a request names, unrun; ``workload_of`` maps
    a benchmark name to its workload.  One tenant builds as its registry
    class (``SYSTEMS[name](config, workload)``); several build one
    :class:`System`, each tenant under its class's selector."""
    tenants, per_tile = resolve(request)
    workloads = [workload_of(benchmark) for _, benchmark in tenants]
    if len(tenants) == 1:
        return tenants[0][0](request.config, workloads[0])
    return System(request.config, [
        (workload, cls.tenant_selector(request.config, workload))
        for (cls, _), workload in zip(tenants, workloads)], per_tile=per_tile)


__all__ = ["SYSTEMS", "System", "build_system", "preset", "resolve"]
