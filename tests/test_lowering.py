"""Trace lowering (repro.workloads.lowering)."""

import copy
import math

import repro.accel.replay as replay_mod
from repro.accel.core import AxcCore
from repro.accel.replay import trace_replay_token
from repro.common.stats import StatsRegistry
from repro.common.types import (
    AccessType,
    ComputeOp,
    FunctionTrace,
    MemOp,
    PhaseMarker,
    WorkloadTrace,
    block_address,
    trace_fingerprint,
)
from repro.host.dma import windows_for
from repro.workloads.lowering import (
    LoweredTrace,
    content_source,
    invalidate_lowered,
    lower_trace,
    lower_workload,
    lowered_trace,
)


def _trace(ops):
    return FunctionTrace(name="t", benchmark="b", ops=ops, lease_time=100)


def test_lowered_stream_structure():
    ops = [
        ComputeOp(int_ops=4, fp_ops=0),
        ComputeOp(int_ops=0, fp_ops=8),
        MemOp(AccessType.LOAD, 0x1234),
        PhaseMarker(label="x"),
        MemOp(AccessType.STORE, 0x80),
        ComputeOp(int_ops=2, fp_ops=2),
    ]
    lowered = lower_trace(_trace(ops), issue_width=4)
    # chunk, mem, mem, chunk — phase marker dropped.
    assert len(lowered.steps) == 4
    chunk0, mem0, mem1, chunk1 = lowered.steps
    assert chunk0[0] is None
    assert mem0 == (ops[2], block_address(0x1234), 1)
    assert mem1 == (ops[4], block_address(0x80), 1)
    assert chunk1[0] is None
    assert lowered.mem_ops == 2
    assert lowered.int_ops == 6
    assert lowered.fp_ops == 10
    assert lowered.compute_chunks == 2
    assert lowered.mem_runs == 2
    assert lowered.coalesced_ops == 0


def test_consecutive_same_line_ops_form_one_run():
    """Maximal same-line same-kind sequences coalesce into one step."""
    ops = [
        MemOp(AccessType.LOAD, 0x100),
        MemOp(AccessType.LOAD, 0x108),   # same line, same kind
        MemOp(AccessType.LOAD, 0x110),   # same line, same kind
        MemOp(AccessType.STORE, 0x118),  # same line, kind break
        MemOp(AccessType.STORE, 0x140),  # line break
    ]
    lowered = lower_trace(_trace(ops), issue_width=4)
    assert lowered.steps == [
        (ops[0], block_address(0x100), 3),
        (ops[3], block_address(0x100), 1),
        (ops[4], block_address(0x140), 1),
    ]
    assert lowered.mem_ops == 5
    assert lowered.mem_runs == 3
    assert lowered.coalesced_ops == 3


def test_compute_chunk_breaks_a_run_but_phase_marker_does_not():
    """A compute chunk's latency interleaves with the run timeline, so
    it must terminate the run; a phase marker costs nothing and must
    not (exactly as it never advanced the legacy timeline)."""
    ops = [
        MemOp(AccessType.LOAD, 0x100),
        PhaseMarker(label="x"),
        MemOp(AccessType.LOAD, 0x108),
        ComputeOp(int_ops=4, fp_ops=0),
        MemOp(AccessType.LOAD, 0x110),
    ]
    lowered = lower_trace(_trace(ops), issue_width=4)
    assert lowered.steps == [
        (ops[0], block_address(0x100), 2),
        (None, 1, 1),
        (ops[4], block_address(0x100), 1),
    ]
    assert lowered.mem_runs == 2
    assert lowered.coalesced_ops == 2


def test_subclassed_mem_ops_never_coalesce():
    class TracedMemOp(MemOp):
        pass

    ops = [
        MemOp(AccessType.LOAD, 0x100),
        TracedMemOp(AccessType.LOAD, 0x108),
        TracedMemOp(AccessType.LOAD, 0x110),
        MemOp(AccessType.LOAD, 0x118),
    ]
    lowered = lower_trace(_trace(ops), issue_width=4)
    assert [step[2] for step in lowered.steps] == [1, 1, 1, 1]
    assert lowered.mem_ops == 4
    assert lowered.mem_runs == 4
    assert lowered.coalesced_ops == 0


def test_fused_chunk_latency_sums_per_op_latencies():
    """Fusion must charge the SUM of per-op ``max(1, ceil(total/w))``
    latencies — never re-derive a latency from the summed activity
    (ceil-of-sum would under-charge and break bit-identity)."""
    ops = [ComputeOp(int_ops=1, fp_ops=0),   # ceil(1/4) -> 1
           ComputeOp(int_ops=1, fp_ops=0),   # ceil(1/4) -> 1
           ComputeOp(int_ops=5, fp_ops=0)]   # ceil(5/4) -> 2
    lowered = lower_trace(_trace(ops), issue_width=4)
    assert lowered.steps == [(None, 4, 1)]
    # The naive (wrong) alternative would give ceil(7/4) == 2.
    assert math.ceil(7 / 4) != 4


def test_memoised_per_issue_width_and_invalidate():
    trace = _trace([MemOp(AccessType.LOAD, 64)])
    first = lowered_trace(trace, 4)
    assert lowered_trace(trace, 4) is first
    assert lowered_trace(trace, 8) is not first
    invalidate_lowered(trace)
    assert lowered_trace(trace, 4) is not first


def test_lower_workload_prelowers_every_invocation(fft_tiny):
    lower_workload(fft_tiny)
    for trace in fft_tiny.invocations:
        assert trace.__dict__["_lowered_by_width"][4] is \
            lowered_trace(trace, 4)


class TracedMemOp(MemOp):
    """A MemOp subclass: same fields, its own class."""


def _variants():
    """A trace and near-duplicates that differ from it in one respect
    each; the two subclassed-op traces differ only in that op's
    address, and the marker traces only in the label."""
    def ops(first, marker="m"):
        return [first, ComputeOp(int_ops=3), PhaseMarker(label=marker),
                MemOp(AccessType.STORE, 0x200)]

    load = MemOp(AccessType.LOAD, 0x100)
    return [
        _trace(ops(load)),
        FunctionTrace("t", "b", ops(load), lease_time=101),
        FunctionTrace("u", "b", ops(load), lease_time=100),
        _trace(ops(MemOp(AccessType.LOAD, 0x140))),
        _trace(ops(MemOp(AccessType.STORE, 0x100))),
        _trace(ops(TracedMemOp(AccessType.LOAD, 0x100))),
        _trace(ops(TracedMemOp(AccessType.LOAD, 0x140))),
        _trace(ops(TracedMemOp(AccessType.STORE, 0x140))),
        _trace(ops(load, marker="n")),
    ]


def test_fingerprint_is_exact():
    """Equal fingerprints, and replay tokens, exactly when the traces
    are equal, subclassed ops included; equal traces built apart
    fingerprint alike."""
    variants = _variants()
    for a in variants:
        for b in variants:
            assert (trace_fingerprint(a) == trace_fingerprint(b)) == \
                (a == b), (a, b)
    assert len({trace_replay_token(trace) for trace in variants}) == \
        len(variants)
    twin = copy.deepcopy(variants[5])
    assert twin.ops[0] is not variants[5].ops[0]
    assert trace_fingerprint(twin) == trace_fingerprint(variants[5])


def test_lower_workload_prepares_each_content_once(monkeypatch):
    """Equal invocations share the first one's lowered stream and plans
    and take its replay token without fingerprinting again."""
    variants = _variants()
    invocations = [copy.deepcopy(trace) for trace in variants * 3]
    lower_workload(WorkloadTrace("b", invocations))
    distinct = len(variants)
    for index, trace in enumerate(invocations):
        source = invocations[index % distinct]
        assert content_source(trace) is source
        assert "_lowered_by_width" in trace.__dict__
        for attr in ("_lowered_by_width", "_phase_plans", "_vector_plans"):
            assert trace.__dict__.get(attr) is source.__dict__.get(attr)
    for a in invocations[:distinct]:
        for b in invocations[:distinct]:
            assert (lowered_trace(a, 4) is lowered_trace(b, 4)) == (a is b)

    fingerprinted = []
    monkeypatch.setattr(replay_mod, "trace_fingerprint", lambda trace: (
        fingerprinted.append(trace) or trace_fingerprint(trace)))
    tokens = [trace_replay_token(trace) for trace in invocations]
    assert fingerprinted == invocations[:distinct]
    assert tokens == tokens[:distinct] * 3


def test_invalidate_drops_token_and_sharing():
    """After its ops change and it is invalidated, a trace has its own
    token and lowered form; an equal trace keeps the old content's."""
    source, twin, other = (copy.deepcopy(_variants()[0]) for _ in range(3))
    lower_workload(WorkloadTrace("b", [source, twin, other]))
    old_token = trace_replay_token(twin)
    old_lowered = lowered_trace(twin, 4)
    windows_for(twin, 1)
    twin.ops.append(MemOp(AccessType.LOAD, 0x400))
    invalidate_lowered(twin)
    assert content_source(twin) is twin
    assert trace_replay_token(twin) != old_token
    assert lowered_trace(twin, 4) is not old_lowered
    assert lowered_trace(twin, 4).mem_ops == old_lowered.mem_ops + 1
    assert 0x400 in {block for window in windows_for(twin, 1)
                     for block in window.in_blocks}
    # Changing the source unlinks the traces that shared its memos.
    source.ops.append(MemOp(AccessType.LOAD, 0x400))
    invalidate_lowered(source)
    assert content_source(other) is other
    assert trace_replay_token(other) == old_token
    assert lowered_trace(other, 4) is old_lowered


def test_run_and_iter_run_agree():
    """The tight loop (run) and the generator (iter_run) must produce
    the same end time and the same stats for the same inputs."""
    ops = []
    for i in range(100):
        ops.append(ComputeOp(int_ops=i % 7, fp_ops=i % 3))
        ops.append(MemOp(
            AccessType.STORE if i % 5 == 0 else AccessType.LOAD,
            (i % 16) * 64))
    trace = _trace(ops)

    def access_fn(op, now):
        return 3 if op.kind is AccessType.LOAD else 5

    run_stats = StatsRegistry()
    run_core = AxcCore(0, run_stats)
    run_end = run_core.run(trace, 10, access_fn, mlp=3)

    iter_stats = StatsRegistry()
    iter_core = AxcCore(0, iter_stats)
    generator = iter_core.iter_run(trace, 10, access_fn, mlp=3)
    while True:
        try:
            next(generator)
        except StopIteration as stop:
            iter_end = stop.value
            break

    assert run_end == iter_end
    assert run_stats.snapshot() == iter_stats.snapshot()


def test_lowered_repr_mentions_shape():
    lowered = lower_trace(_trace([MemOp(AccessType.LOAD, 0)]), 4)
    assert isinstance(lowered, LoweredTrace)
    assert "1 mem" in repr(lowered)
