"""The phase-plan contract (repro.workloads.phases).

Wherever the compiler cuts, a plan must cover the lowered stream
exactly once each split head is re-joined to its run, every phase must
be a structural steady-state candidate inside its caps, with at least
``MIN_PHASE_MEM_OPS`` memory ops or a single run, and each phase's
one-pass aggregates must equal a fresh :func:`build_phase` of its
steps.  Checked on every registry benchmark and on generated traces.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.accel.core as core_mod
from repro.accel.core import AxcCore
from repro.coherence.acc import AccL0XController, AccL1XController
from repro.coherence.mesi import HostMemorySystem
from repro.common.config import small_config
from repro.common.stats import StatsRegistry
from repro.common.types import AccessType, ComputeOp, FunctionTrace, \
    MemOp, trace_fingerprint
from repro.interconnect.link import Link
from repro.mem.tlb import PageTable
from repro.workloads.lowering import lowered_trace
from repro.workloads.phases import MAX_PHASE_MEM_OPS, MIN_PHASE_MEM_OPS, \
    build_phase, phase_plan
from repro.workloads.registry import BENCHMARKS, build_workload

AGGREGATES = ("mem_ops", "compute_cycles", "num_loads", "num_stores",
              "event_seq", "block_info")


def _rejoined(plan):
    """The plan's steps in program order, each split head (a one-op
    step of the same op and line as the step after it) re-joined to
    its tail."""
    steps = []
    for _phase, entry_steps in plan.entries:
        for op, arg, count in entry_steps:
            if op is not None and steps and steps[-1][0] is op \
                    and steps[-1][1] == arg and steps[-1][2] == 1:
                count += 1
                steps.pop()
            steps.append((op, arg, count))
    return steps


def check_plan(trace):
    lowered = lowered_trace(trace)
    plan = phase_plan(trace)
    assert phase_plan(trace) is plan
    assert _rejoined(plan) == list(lowered.steps)
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
        one_run = len(steps) == 1 and mem_steps == [0] and steps[0][2] > 1
        assert phase.mem_ops >= MIN_PHASE_MEM_OPS or one_run
        # Only the step that opens a window can carry it past a cap.
        assert phase.mem_ops <= MAX_PHASE_MEM_OPS or len(mem_steps) == 1
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
    return plan


@pytest.mark.parametrize("size", ("tiny", "small"))
@pytest.mark.parametrize("name", BENCHMARKS)
def test_registry_plans_keep_the_contract(name, size):
    distinct = {trace_fingerprint(trace): trace for trace in
                build_workload(name, size).invocations}
    phases = sum(check_plan(trace).num_phases
                 for trace in distinct.values())
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
    return FunctionTrace(name="gen", benchmark="plan", ops=ops)


@settings(max_examples=80, deadline=None)
@given(traces())
def test_generated_plans_keep_the_contract(trace):
    check_plan(trace)


BLOCK_A = 0x80000
BLOCK_B = BLOCK_A + 64
BLOCK_C = BLOCK_A + 128


def _run(kind, base, length):
    return [MemOp(kind, base + (word % 8) * 8) for word in range(length)]


def test_first_touch_run_splits_off_its_head():
    """An 8-load first touch: its head op misses and falls back, and
    the 7-op tail is a phase of its own."""
    ops = _run(AccessType.LOAD, BLOCK_A, 8)
    trace = FunctionTrace(name="split", benchmark="plan", ops=ops,
                          lease_time=1000)
    (gap, head), (phase, tail) = check_plan(trace).entries
    assert gap is None and head == ((ops[0], BLOCK_A, 1),)
    assert phase is not None and tail == ((ops[0], BLOCK_A, 7),)
    assert phase.mem_ops == 7


def test_long_steady_window_is_cut_at_the_cap():
    """Alternating runs on two warm lines are one steady candidate;
    the compiler cuts it into windows of at most the cap."""
    ops = (_run(AccessType.LOAD, BLOCK_A, 8)
           + _run(AccessType.LOAD, BLOCK_B, 8)) * 300
    trace = FunctionTrace(name="long", benchmark="plan", ops=ops)
    sizes = [phase.mem_ops for phase, _steps in check_plan(trace).entries
             if phase is not None]
    assert max(sizes) == MAX_PHASE_MEM_OPS
    assert len(sizes) > 2


def _acc_l0x(lease):
    config = small_config()
    stats = StatsRegistry()
    mem = HostMemorySystem(config, stats)
    l1x = AccL1XController(config, mem, PageTable(), stats)
    mem.tile_agent = l1x
    l0x = AccL0XController(0, config, l1x, Link("axc_l1x", 0.4, stats),
                           Link("fwd", 0.1, stats), stats)
    l0x.invocation_lease = lease
    return l0x, stats


class QuoteLog:
    """The L0X as a port offering ``access`` and ``phase_quote``,
    recording each quote's phase length and whether it was granted."""

    def __init__(self, l0x):
        self.l0x = l0x
        self.issue_interval = l0x.issue_interval
        self.access = l0x.access
        self.quoted = []

    def phase_quote(self, phase, now, horizon, interval):
        quote = self.l0x.phase_quote(phase, now, horizon, interval)
        self.quoted.append((len(phase.steps), quote is not None))
        return quote


def test_coalesce_off_serves_one_step_phases_per_op(monkeypatch):
    """``COALESCE_RUNS`` switches the one-step phases alone: off, none
    is offered to ``phase_quote``, longer phases still are, and the
    results do not change."""
    # Each first touch closes a window: [A x7] and [B x2] are one-step
    # phases, [C x2, compute, A x2, B x2] a four-step one.
    ops = (_run(AccessType.LOAD, BLOCK_A, 8)
           + _run(AccessType.STORE, BLOCK_B, 3)
           + _run(AccessType.LOAD, BLOCK_C, 3) + [ComputeOp(int_ops=8)]
           + _run(AccessType.LOAD, BLOCK_A, 2)
           + _run(AccessType.STORE, BLOCK_B, 2))
    trace = FunctionTrace(name="coalesce", benchmark="plan", ops=ops,
                          lease_time=1000)
    outcomes = {}
    for coalesce in (True, False):
        monkeypatch.setattr(core_mod, "COALESCE_RUNS", coalesce)
        l0x, stats = _acc_l0x(trace.lease_time)
        port = QuoteLog(l0x)
        end = AxcCore(0, stats).run(trace, 0, port, mlp=4)
        outcomes[coalesce] = (end, stats.snapshot())
        longer = [(4, True)]
        assert port.quoted == ([(1, True)] * 2 + longer if coalesce
                               else longer)
    assert outcomes[True] == outcomes[False]
