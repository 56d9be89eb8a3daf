"""Microbenchmarks of the simulator's hot paths (true pytest-benchmark
timing loops — these gate simulator performance regressions).

The ``test_micro_core_run_*`` pair measures the tentpole claim of the
trace-lowering layer directly: the same synthetic invocation interpreted
by the legacy per-op loop (replicated in ``perf_smoke.py``) vs executed
from its lowered stream by the production ``AxcCore.run``.  The
committed numbers (and the CI regression gate) live in
``results/perf_baseline.json`` via ``python benchmarks/perf_smoke.py``.
"""

import functools

import perf_smoke
from perf_smoke import Port

from repro.accel import replay as replay_mod
from repro.accel.core import AxcCore
from repro.common.config import small_config
from repro.common.stats import StatsRegistry
from repro.common.types import AccessType, MemOp
from repro.coherence.acc import AccL0XController, AccL1XController
from repro.coherence.mesi import HostMemorySystem
from repro.interconnect.link import Link
from repro.mem.cache import SetAssocCache
from repro.mem.tlb import PageTable
from repro.workloads.lowering import lowered_trace


def test_micro_cache_lookup(benchmark):
    cache = SetAssocCache(small_config().tile.l0x)
    for i in range(64):
        cache.insert(i * 64)
    blocks = [(i % 64) * 64 for i in range(1024)]

    def lookups():
        for block in blocks:
            cache.lookup(block)

    benchmark(lookups)


def test_micro_acc_hit_path(benchmark):
    config = small_config()
    stats = StatsRegistry()
    mem = HostMemorySystem(config, stats)
    l1x = AccL1XController(config, mem, PageTable(), stats)
    mem.tile_agent = l1x
    l0x = AccL0XController(0, config, l1x, Link("axc_l1x", 0.4, stats),
                           Link("fwd", 0.1, stats), stats)
    ops = [MemOp(AccessType.LOAD, (i % 32) * 4) for i in range(512)]

    def accesses():
        for i, op in enumerate(ops):
            l0x.access(op, now=i, lease=1_000_000)

    benchmark(accesses)


def test_micro_core_run_lowered(benchmark):
    """Ops/sec of the production core over the pre-lowered stream."""
    trace = perf_smoke.make_trace()
    core = AxcCore(0, StatsRegistry())
    lowered_trace(trace)  # lower once, outside the loop

    benchmark(lambda: core.run(trace, 0, perf_smoke.FLAT_PORT, mlp=4))


def test_micro_core_run_legacy(benchmark):
    """Ops/sec of the replicated pre-lowering interpreter (comparison
    point for the speedup the lowering layer claims)."""
    trace = perf_smoke.make_trace()
    core = AxcCore(0, StatsRegistry())

    benchmark(lambda: perf_smoke.legacy_run(
        core, trace, 0, perf_smoke._flat_access, mlp=4))


def test_micro_lowered_matches_legacy():
    """Semantics gate: both interpreters end at the same cycle."""
    trace = perf_smoke.make_trace()
    core = AxcCore(0, StatsRegistry())
    legacy_end = perf_smoke.legacy_run(
        core, trace, 0, perf_smoke._flat_access, mlp=4)
    lowered_end = core.run(trace, 0, perf_smoke.FLAT_PORT, mlp=4)
    assert lowered_end == legacy_end


def _warm_run_setup():
    """Warm ACC stack + run-heavy trace for the per-op/phase pair."""
    trace = perf_smoke.make_run_trace()
    core = AxcCore(0, StatsRegistry())
    l0x = perf_smoke.build_acc_l0x()
    l0x.invocation_lease = trace.lease_time
    core.run(trace, 0, Port(l0x), mlp=4)  # install every line
    return trace, core, l0x


def test_micro_acc_run_per_op(benchmark):
    """Ops/sec expanding every access-run op through the L0X protocol."""
    trace, core, l0x = _warm_run_setup()
    port = Port(l0x)

    benchmark(lambda: core.run(trace, 0, port, mlp=4))


def test_micro_acc_phase_steady(benchmark):
    """Ops/sec with ``phase_quote`` serving whole lease-stable windows
    (and lone runs) in one protocol step (the steady-state phase
    engine — the rung of the fallback ladder above the per-op path)."""
    trace, core, l0x = _warm_run_setup()
    port = Port(l0x, "phase_quote")

    benchmark(lambda: core.run(trace, 0, port, mlp=4))


def test_micro_phase_matches_per_op():
    """Semantics gate: the phase path and the per-op path end at the
    same cycle (bit-identity across all counters is the differential
    oracle's job — ``tests/test_oracle.py``)."""
    trace, core, l0x = _warm_run_setup()
    per_op_end = core.run(trace, 0, Port(l0x), mlp=4)
    phased_end = core.run(trace, 0, Port(l0x, "phase_quote"), mlp=4)
    assert phased_end == per_op_end


def _warm_window_setup():
    """Warm ACC stack + a long steady-state trace whose phase plan
    compiles to one large :class:`~repro.workloads.vector.VectorWindow`
    (the regime the vector rung targets)."""
    import pytest

    pytest.importorskip("numpy")
    trace = perf_smoke.make_run_trace(num_runs=2048)
    core = AxcCore(0, StatsRegistry())
    l0x = perf_smoke.build_acc_l0x()
    l0x.invocation_lease = trace.lease_time
    core.run(trace, 0, Port(l0x), mlp=4)  # install every line
    return trace, core, l0x


def test_micro_acc_windows_phased(benchmark):
    """Ops/sec serving the long window one ``phase_quote`` at a time
    (comparison point for the vector rung's batch win)."""
    trace, core, l0x = _warm_window_setup()
    port = Port(l0x, "phase_quote")

    benchmark(lambda: core.run(trace, 0, port, mlp=4))


def test_micro_acc_windows_vector(benchmark):
    """Ops/sec with ``phase_quote_batch`` guarding and accounting the
    whole multi-phase window in one vectorised pass (the fifth rung of
    the fallback ladder)."""
    trace, core, l0x = _warm_window_setup()
    port = Port(l0x, "phase_quote", "phase_quote_batch")

    benchmark(lambda: core.run(trace, 0, port, mlp=4))


def test_micro_vector_matches_phased():
    """Semantics gate: the batched window path and the per-phase path
    end at the same cycle (counter bit-identity is covered by
    ``tests/test_oracle.py``)."""
    trace, core, l0x = _warm_window_setup()
    phased_end = core.run(trace, 0, Port(l0x, "phase_quote"), mlp=4)
    vector_end = core.run(trace, 0, Port(l0x, "phase_quote",
                                         "phase_quote_batch"), mlp=4)
    assert vector_end == phased_end


@functools.lru_cache(maxsize=1)
def _iterated_fft_workload():
    """A small iterated FFT: every invocation recurs eight times, the
    recurrence shape the invocation replay cache targets."""
    from repro.workloads.kernels import fft
    from repro.workloads.registry import _factory

    workload, _ = fft.build_workload(_factory, n=128, iterations=8)
    return workload


def _run_fusion(workload, replay_on):
    from repro.systems import SYSTEMS

    original = replay_mod.REPLAY_INVOCATIONS
    replay_mod.REPLAY_INVOCATIONS = replay_on
    try:
        return SYSTEMS["FUSION"](small_config(), workload).run()
    finally:
        replay_mod.REPLAY_INVOCATIONS = original


def test_micro_fusion_fft_phased(benchmark):
    """Whole-system wall time with the replay rung off: the iterated
    FFT is served by the steady-phase path (comparison point for the
    replay rung's claim)."""
    workload = _iterated_fft_workload()
    _run_fusion(workload, False)  # warm the lowering/DMA trace caches

    benchmark(lambda: _run_fusion(workload, False))


def test_micro_fusion_fft_replayed(benchmark):
    """Whole-system wall time with the guarded invocation replay cache
    serving recorded invocations whole (top rung of the fallback
    ladder)."""
    workload = _iterated_fft_workload()
    _run_fusion(workload, True)  # warm caches and record invocations

    benchmark(lambda: _run_fusion(workload, True))


def test_micro_replay_matches_phased():
    """Semantics gate: the replay rung reports results bit-identical to
    the phased path (the full property is pinned across systems and
    adversarial leases by ``tests/test_oracle.py``)."""
    workload = _iterated_fft_workload()
    phased = _run_fusion(workload, False)
    replayed = _run_fusion(workload, True)
    assert replayed.accel_cycles == phased.accel_cycles
    assert replayed.total_cycles == phased.total_cycles
    assert repr(replayed.energy.total_pj) == repr(phased.energy.total_pj)
    assert (sorted((n, repr(v)) for n, v in replayed.stats.items())
            == sorted((n, repr(v)) for n, v in phased.stats.items()))


def test_micro_host_load_hit(benchmark):
    config = small_config()
    mem = HostMemorySystem(config, StatsRegistry())
    mem.host_load(0x40)

    def loads():
        for _ in range(512):
            mem.host_load(0x40)

    benchmark(loads)
