"""Property-based tests: AXC cycle-model timing bounds."""

import math
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel.core import AxcCore
from repro.common.stats import StatsRegistry
from repro.common.types import AccessType, ComputeOp, FunctionTrace, MemOp

ops = st.lists(st.one_of(
    st.builds(MemOp, kind=st.sampled_from(list(AccessType)),
              addr=st.integers(0, 63).map(lambda i: i * 64)),
    st.builds(ComputeOp, int_ops=st.integers(1, 16))),
    max_size=60)
latencies = st.integers(1, 40)
mlps = st.integers(1, 8)


def run_core(trace_ops, latency, mlp, issue_interval=1):
    core = AxcCore(0, StatsRegistry())
    trace = FunctionTrace(name="f", benchmark="b", ops=trace_ops)
    port = SimpleNamespace(access=lambda op, now: latency,
                           issue_interval=issue_interval)
    return core.run(trace, 0, port, mlp)


@given(ops, latencies, mlps)
@settings(max_examples=150)
def test_end_time_lower_bounds(trace_ops, latency, mlp):
    end = run_core(trace_ops, latency, mlp)
    mem = sum(1 for op in trace_ops if isinstance(op, MemOp))
    compute = sum(max(1, math.ceil(op.total / 4)) for op in trace_ops
                  if isinstance(op, ComputeOp))
    # Issue slots + compute are a hard floor...
    assert end >= mem + compute
    # ...and so is Little's law over distinct outstanding slots.
    if mem:
        assert end >= latency  # the last access must complete
        assert end + 1e-9 >= mem * latency / max(mlp, mem)


@given(ops, mlps)
@settings(max_examples=100)
def test_end_time_monotonic_in_latency(trace_ops, mlp):
    fast = run_core(trace_ops, 2, mlp)
    slow = run_core(trace_ops, 20, mlp)
    assert slow >= fast


@given(ops, latencies)
@settings(max_examples=100)
def test_end_time_monotonic_in_mlp(trace_ops, latency):
    serial = run_core(trace_ops, latency, 1)
    parallel = run_core(trace_ops, latency, 8)
    assert parallel <= serial


@given(ops, latencies, mlps)
@settings(max_examples=100)
def test_issue_interval_monotonic(trace_ops, latency, mlp):
    tight = run_core(trace_ops, latency, mlp, issue_interval=1)
    throttled = run_core(trace_ops, latency, mlp, issue_interval=2)
    assert throttled >= tight


@given(ops, latencies, mlps, st.integers(0, 10_000))
@settings(max_examples=100)
def test_start_time_shifts_end_exactly(trace_ops, latency, mlp, start):
    core_a = AxcCore(0, StatsRegistry())
    core_b = AxcCore(0, StatsRegistry())
    trace = FunctionTrace(name="f", benchmark="b", ops=trace_ops)
    port = SimpleNamespace(access=lambda op, now: latency)
    end_zero = core_a.run(trace, 0, port, mlp)
    end_start = core_b.run(trace, start, port, mlp)
    assert end_start == end_zero + start
