"""Trace lowering: compile a :class:`FunctionTrace` for the hot path.

The per-access inner loop dominates a simulation's wall time, and the
legacy interpreter paid per-op costs that never change between runs:
``isinstance`` dispatch over the heterogeneous ``trace.ops`` list,
``op.block`` property calls (re-aligning the same address every run) and
``math.ceil`` latency arithmetic for every individual
:class:`~repro.common.types.ComputeOp`.  Lowering performs that work
*once* per trace and emits a flat, pre-resolved stream that
:class:`repro.accel.core.AxcCore` interprets with no type dispatch at
all — the same separation of trace construction from evaluation that
Aladdin's pre-lowered DDG traces and LoopTree use.

Lowered form: ``LoweredTrace.steps`` is a list of 3-tuples,

* ``(mem_op, block, count)`` — an *access run*: ``count`` consecutive
  memory operations to the same line with the same kind, with the
  line-aligned address precomputed.  ``mem_op`` is the first original
  :class:`~repro.common.types.MemOp` of the run (every op in a run is
  interchangeable to the memory system: same kind, same line — so
  a port's ``access`` is untouched).  Runs are *maximal*: a run
  breaks on a different line, a different kind, or an intervening
  compute chunk (whose latency would interleave with the run's
  timeline); cost-free phase markers do not break runs, exactly as they
  never advanced the legacy timeline.  Only plain ``MemOp`` instances
  coalesce — subclassed op types always form single-op runs and take
  the per-op path.
* ``(None, latency, 1)`` — a *fused chunk* of adjacent compute ops
  whose dataflow latencies are pre-summed for :data:`ISSUE_WIDTH`.

Runs are the unit the phase compiler (:mod:`repro.workloads.phases`)
builds steady-state windows from; a lone run can be a phase of its own
(see ``docs/simulator.md`` §10).  Fusion sums the per-op latencies
(``max(1, ceil(total / ISSUE_WIDTH))`` each) rather than re-deriving a
latency from the summed activity, so the lowered timeline is
bit-identical to the legacy interpreter's — the golden-stability gate
(``tests/test_golden_full.py``) is the proof.  Phase markers carry no
cost in the core model and are dropped from the stream (SCRATCH
consumes them during window partitioning, before lowering).

Each trace memoises its one lowered form on itself, so every run of a
prepared workload in a process — and every pool worker forked after
the engine prepared it — reuses it.

Kernels record a fresh trace object per invocation, and a kernel
invoked repeatedly records equal ones: FFT at n=512 x16 runs 96
invocations of 6 distinct contents.  :func:`lower_workload` therefore
prepares each distinct content once.  It keys every invocation on its
exact content (:func:`~repro.common.types.trace_fingerprint`) in a
dict that lives only for the call, and puts the first trace of each
content into every later slot of ``workload.invocations``: equal
invocations become one object, so its lowered streams, plans, DMA
windows, block sets and replay token are made once.  Preparation makes
only long-lived objects and no cycles, so it runs with the collector
paused (:func:`~repro.common.collector.collector_paused`,
docs/simulator.md §6.4).
"""

import math

from ..common.collector import collector_paused
from ..common.types import ComputeOp, MemOp, trace_fingerprint

#: Operations the accelerator datapath issues per cycle.
ISSUE_WIDTH = 4

#: Attribute used to memoise the lowered form on a trace object.
_CACHE_ATTR = "_lowered"


class LoweredTrace:
    """The compiled form of one :class:`FunctionTrace` invocation."""

    __slots__ = ("name", "steps", "mem_ops", "int_ops", "fp_ops",
                 "compute_chunks")

    def __init__(self, name, steps, mem_ops, int_ops, fp_ops,
                 compute_chunks):
        self.name = name
        self.steps = steps
        self.mem_ops = mem_ops
        self.int_ops = int_ops
        self.fp_ops = fp_ops
        self.compute_chunks = compute_chunks

    def __repr__(self):
        return ("LoweredTrace({}, {} steps: {} mem + {} chunks)"
                .format(self.name, len(self.steps), self.mem_ops,
                        self.compute_chunks))


def lower_trace(trace):
    """Compile ``trace``; one pass, no memoisation.

    Semantics-preserving by construction: every MemOp appears in program
    order inside a maximal same-line same-kind access run with its
    precomputed line address; every run of adjacent ComputeOps becomes
    one chunk whose latency is the *sum* of the per-op
    ``max(1, ceil(total / ISSUE_WIDTH))`` latencies the legacy
    interpreter would have charged; every other op kind (phase markers)
    advances nothing and is dropped, exactly as the legacy loop skipped
    it.
    """
    steps = []
    append = steps.append
    ceil = math.ceil
    pending_latency = 0
    run_op = None           # first MemOp of the open access run
    run_block = 0
    run_kind = None
    run_count = 0
    mem_ops = 0
    int_ops = 0
    fp_ops = 0
    compute_chunks = 0
    for op in trace.ops:
        if type(op) is MemOp:
            if pending_latency:
                append((None, pending_latency, 1))
                pending_latency = 0
                compute_chunks += 1
            mem_ops += 1
            block = op.block
            if run_op is not None:
                if block == run_block and op.kind is run_kind:
                    run_count += 1
                    continue
                append((run_op, run_block, run_count))
            run_op = op
            run_block = block
            run_kind = op.kind
            run_count = 1
        elif type(op) is ComputeOp:
            if run_op is not None:
                # A compute chunk's latency interleaves with the run's
                # timeline, so it terminates the run.
                append((run_op, run_block, run_count))
                run_op = None
            int_ops += op.int_ops
            fp_ops += op.fp_ops
            pending_latency += max(1, ceil(op.total / ISSUE_WIDTH))
        elif isinstance(op, MemOp):
            # Subclassed op types take the slow (but equivalent) path:
            # always a single-op run, never merged with neighbours.
            if pending_latency:
                append((None, pending_latency, 1))
                pending_latency = 0
                compute_chunks += 1
            if run_op is not None:
                append((run_op, run_block, run_count))
                run_op = None
            mem_ops += 1
            append((op, op.block, 1))
        elif isinstance(op, ComputeOp):
            if run_op is not None:
                append((run_op, run_block, run_count))
                run_op = None
            int_ops += op.int_ops
            fp_ops += op.fp_ops
            pending_latency += max(1, ceil(op.total / ISSUE_WIDTH))
        # Anything else (PhaseMarker, foreign op types) costs nothing in
        # the core model — dropped, as the legacy interpreter skipped
        # it, and (costing nothing) it does not break an open run.
    if run_op is not None:
        append((run_op, run_block, run_count))
    if pending_latency:
        append((None, pending_latency, 1))
        compute_chunks += 1
    return LoweredTrace(trace.name, steps, mem_ops, int_ops, fp_ops,
                        compute_chunks)


def lowered_trace(trace):
    """Return the memoised lowered form of ``trace``.

    The compiled stream is cached in the trace object's ``__dict__``
    (traces are read-only to the simulator once built), so repeat
    invocations reuse it.
    """
    lowered = trace.__dict__.get(_CACHE_ATTR)
    if lowered is None:
        lowered = trace.__dict__[_CACHE_ATTR] = lower_trace(trace)
    return lowered


def invalidate_lowered(trace):
    """Drop a trace's memoised derived forms (after mutating its ops).

    Clears the lowered stream, the compiled steady-state phase and
    vector plans (which are derived from it), the block-set caches
    (:meth:`~repro.common.types.FunctionTrace.touched_blocks` /
    ``dirty_blocks``), the DMA windows and the replay token —
    everything derived from ``trace.ops``.  Equal invocations of a
    prepared workload are one object, so mutating it changes every
    slot it fills.
    """
    for attr in (_CACHE_ATTR, "_phase_plan", "_vector_plan",
                 "_touched_blocks", "_dirty_blocks", "_dma_windows",
                 "_replay_token"):
        trace.__dict__.pop(attr, None)


def lower_workload(workload):
    """Pre-lower every invocation of ``workload``.

    Used by the execution engine to prepare a workload once per
    process (pool workers inherit it by fork), so runs interpret
    ready-to-run streams.  Compiled phase plans (the steady-state fast
    path's unit of work) are built here too — and, when numpy is
    available, the structure-of-arrays vector plans above them (the
    vector rung; skipped cleanly on a numpy-less install).  Each
    distinct content is prepared once: an invocation equal to an
    earlier one is replaced by it.  Runs with the collector paused.
    Returns the workload for chaining.
    """
    from . import vector
    from .phases import phase_plan

    with collector_paused():
        invocations = workload.invocations
        first = {}
        for index, trace in enumerate(invocations):
            source = first.setdefault(trace_fingerprint(trace), trace)
            if source is not trace:
                invocations[index] = source
                continue
            lowered_trace(trace)
            phase_plan(trace)
            if vector.HAVE_NUMPY:
                vector.vector_plan(trace)
    return workload
