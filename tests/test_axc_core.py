"""The accelerator cycle model (repro.accel.core)."""

from types import SimpleNamespace

import pytest

from repro.accel.core import AxcCore
from repro.common.stats import StatsRegistry
from repro.common.types import AccessType, ComputeOp, FunctionTrace, MemOp


def make_core():
    stats = StatsRegistry()
    return AxcCore(0, stats), stats


def trace(ops):
    return FunctionTrace(name="f", benchmark="b", ops=ops)


def fixed_latency(latency, issue_interval=1):
    """A memory port offering ``access`` alone."""
    return SimpleNamespace(access=lambda op, now: latency,
                           issue_interval=issue_interval)


def loads(n, stride=64):
    return [MemOp(AccessType.LOAD, i * stride) for i in range(n)]


def test_compute_advances_by_issue_width():
    core, _ = make_core()
    end = core.run(trace([ComputeOp(int_ops=8)]), 0, fixed_latency(1), 1)
    assert end == 2  # 8 ops / ISSUE_WIDTH 4


def test_compute_minimum_one_cycle():
    core, _ = make_core()
    end = core.run(trace([ComputeOp(int_ops=1)]), 0, fixed_latency(1), 1)
    assert end == 1


def test_single_memory_op_latency_on_tail():
    core, _ = make_core()
    end = core.run(trace(loads(1)), 0, fixed_latency(10), 1)
    assert end == 10


def test_mlp_overlaps_latency():
    core, _ = make_core()
    serial = core.run(trace(loads(8)), 0, fixed_latency(12), 1)
    core2, _ = make_core()
    overlapped = core2.run(trace(loads(8)), 0, fixed_latency(12), 4)
    assert overlapped < serial
    # Little's law bound: 8 ops at 12 cycles with 4 outstanding.
    assert overlapped >= 8 * 12 / 4


def test_high_mlp_approaches_issue_rate():
    core, _ = make_core()
    end = core.run(trace(loads(100)), 0, fixed_latency(4), 8)
    assert end <= 100 + 10  # ~1 op/cycle


def test_issue_interval_throttles():
    core, _ = make_core()
    base = core.run(trace(loads(50)), 0, fixed_latency(1), 8)
    core2, _ = make_core()
    throttled = core2.run(trace(loads(50)), 0, fixed_latency(1, 2), 8)
    assert throttled >= 2 * base - 2


def test_mshr_merge_delays_same_block_access():
    core, stats = make_core()

    def miss_then_hit(op, now):
        return 100 if now == 0 else 1

    ops = [MemOp(AccessType.LOAD, 0), MemOp(AccessType.LOAD, 8)]
    end = core.run(trace(ops), 0, SimpleNamespace(access=miss_then_hit), 4)
    # The second access is to the same line: it cannot complete before
    # the outstanding fill.
    assert end >= 100
    assert stats.get("axc.core0.mshr_merges") == 1


def test_start_time_offsets_completion():
    core, _ = make_core()
    end = core.run(trace(loads(1)), 1000, fixed_latency(5), 1)
    assert end == 1005


def test_stats_recorded():
    core, stats = make_core()
    core.run(trace([ComputeOp(int_ops=4, fp_ops=2)] + loads(3)), 0,
             fixed_latency(1), 2)
    assert stats.get("axc.core0.mem_ops") == 3
    assert stats.get("axc.core0.int_ops") == 4
    assert stats.get("axc.core0.fp_ops") == 2
    assert stats.get("axc.invocations") == 1
    assert stats.get("axc.compute.energy_pj") > 0


def test_mlp_stall_cycles_counted():
    core, stats = make_core()
    core.run(trace(loads(8)), 0, fixed_latency(50), 1)
    assert stats.get("axc.core0.mlp_stall_cycles") > 0


def test_fractional_mlp_floors_to_one():
    core, _ = make_core()
    end = core.run(trace(loads(2)), 0, fixed_latency(10), 0.4)
    assert end >= 20  # serialised
