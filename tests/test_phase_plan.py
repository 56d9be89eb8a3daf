"""The phase-plan contract (repro.workloads.phases).

Wherever the compiler cuts, a plan must cover the lowered stream
exactly, every phase must be a structural steady-state candidate inside
its caps, and each phase's one-pass aggregates must equal a fresh
:func:`build_phase` of its steps.  Checked for both plan variants on
every registry benchmark and on generated traces.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.types import AccessType, ComputeOp, FunctionTrace, \
    MemOp, trace_fingerprint
from repro.workloads.lowering import lowered_trace
from repro.workloads.phases import MAX_PHASE_MEM_OPS, \
    MAX_UNLEASED_PHASE_MEM_OPS, MIN_PHASE_MEM_OPS, build_phase, phase_plan
from repro.workloads.registry import BENCHMARKS, build_workload

ISSUE_WIDTH = 4

AGGREGATES = ("mem_ops", "compute_cycles", "num_loads", "num_stores",
              "event_seq", "block_info")


def _span(steps):
    """The compiler's span estimate: two cycles a memory op plus the
    fused compute."""
    return sum(arg if op is None else 2 * count for op, arg, count in steps)


def check_plan(trace, leased):
    lowered = lowered_trace(trace, ISSUE_WIDTH)
    plan = phase_plan(trace, ISSUE_WIDTH, leased)
    lease_time = trace.lease_time if leased else None
    if lease_time:
        max_ops = MAX_PHASE_MEM_OPS
        span_cap = max(MIN_PHASE_MEM_OPS * 4, lease_time // 8)
    else:
        max_ops, span_cap = MAX_UNLEASED_PHASE_MEM_OPS, None

    assert [step for _phase, steps in plan.entries for step in steps] \
        == list(lowered.steps)
    touched, written = set(), set()
    num_phases = phase_ops = 0
    previous_gap = False
    for phase, steps in plan.entries:
        assert steps
        if phase is None:
            # Gaps are maximal: two never sit side by side.
            assert not previous_gap
            previous_gap = True
            for op, arg, _count in steps:
                if op is not None:
                    touched.add(arg)
                    if op.is_store:
                        written.add(arg)
            continue
        previous_gap = False
        assert steps == phase.steps
        num_phases += 1
        phase_ops += phase.mem_ops
        mem_steps = [index for index, step in enumerate(steps)
                     if step[0] is not None]
        assert phase.mem_ops >= MIN_PHASE_MEM_OPS
        # Only the step that opens a window can carry it past a cap.
        assert phase.mem_ops <= max_ops or len(mem_steps) == 1
        if span_cap is not None:
            assert _span(steps) <= span_cap \
                or mem_steps == [len(steps) - 1]
        for op, arg, _count in steps:
            if op is None:
                continue
            assert type(op) is MemOp, "subclassed op in a phase"
            assert arg in touched, "first touch in a phase"
            assert not op.is_store or arg in written, \
                "first store to a loaded line in a phase"
        rebuilt = build_phase(steps)
        for name in AGGREGATES:
            assert getattr(phase, name) == getattr(rebuilt, name), name
    assert (plan.num_phases, plan.phase_ops) == (num_phases, phase_ops)
    if not trace.lease_time:
        assert phase_plan(trace, ISSUE_WIDTH, not leased) is plan
    return plan


@pytest.mark.parametrize("size", ("tiny", "small"))
@pytest.mark.parametrize("name", BENCHMARKS)
def test_registry_plans_keep_the_contract(name, size):
    distinct = {trace_fingerprint(trace): trace for trace in
                build_workload(name, size).invocations}
    phases = 0
    for trace in distinct.values():
        for leased in (True, False):
            phases += check_plan(trace, leased).num_phases
    assert phases, "no phase compiled: the contract was checked on nothing"


class TaggedOp(MemOp):
    """A subclassed op: its side effects are unknown to the compiler."""


BASE = 0x40000

segments = st.one_of(
    st.tuples(st.integers(0, 15), st.booleans(), st.integers(1, 12),
              st.integers(0, 19)),
    st.integers(1, 8),
    st.integers(200, 3000))


@st.composite
def traces(draw):
    body = draw(st.lists(segments, min_size=1, max_size=12))
    ops = []
    for segment in body * draw(st.integers(1, 40)):
        if isinstance(segment, int):
            ops.append(ComputeOp(int_ops=segment))
            continue
        line, is_store, length, tag = segment
        kind = AccessType.STORE if is_store else AccessType.LOAD
        make = TaggedOp if tag == 0 else MemOp
        ops += [make(kind, BASE + line * 64 + (word % 8) * 8)
                for word in range(length)]
    lease = draw(st.sampled_from((0, 1, 30, 100, 500, 4000)))
    return FunctionTrace(name="gen", benchmark="plan", ops=ops,
                         lease_time=lease)


@settings(max_examples=80, deadline=None)
@given(traces())
def test_generated_plans_keep_the_contract(trace):
    for leased in (True, False):
        check_plan(trace, leased)
