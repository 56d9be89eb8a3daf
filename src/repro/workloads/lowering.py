"""Trace lowering: compile a :class:`FunctionTrace` for the hot path.

The per-access inner loop dominates a simulation's wall time, and the
legacy interpreter paid per-op costs that never change between runs:
``isinstance`` dispatch over the heterogeneous ``trace.ops`` list,
``op.block`` property calls (re-aligning the same address every run) and
``math.ceil`` latency arithmetic for every individual
:class:`~repro.common.types.ComputeOp`.  Lowering performs that work
*once* per (trace, issue width) and emits a flat, pre-resolved stream
that :class:`repro.accel.core.AxcCore` interprets with no type dispatch
at all — the same separation of trace construction from evaluation that
Aladdin's pre-lowered DDG traces and LoopTree use.

Lowered form: ``LoweredTrace.steps`` is a list of 3-tuples,

* ``(mem_op, block, count)`` — an *access run*: ``count`` consecutive
  memory operations to the same line with the same kind, with the
  line-aligned address precomputed.  ``mem_op`` is the first original
  :class:`~repro.common.types.MemOp` of the run (every op in a run is
  interchangeable to the memory system: same kind, same line — so
  ``access_fn`` closures are untouched).  Runs are *maximal*: a run
  breaks on a different line, a different kind, or an intervening
  compute chunk (whose latency would interleave with the run's
  timeline); cost-free phase markers do not break runs, exactly as they
  never advanced the legacy timeline.  Only plain ``MemOp`` instances
  coalesce — subclassed op types always form single-op runs and take
  the per-op path.
* ``(None, latency, 1)`` — a *fused chunk* of adjacent compute ops
  whose dataflow latencies are pre-summed for the core's issue width.

Runs are what the run-coalescing fast path consumes: the core hands a
whole run to a controller's ``access_run`` entry point and serves it in
one protocol step when the steady-state guard holds (see
``docs/simulator.md`` §9).  Fusion sums the per-op latencies
(``max(1, ceil(total / issue_width))`` each) rather than re-deriving a
latency from the summed activity, so the lowered timeline is
bit-identical to the legacy interpreter's — the golden-stability gate
(``tests/test_golden_full.py``) is the proof.  Phase markers carry no
cost in the core model and are dropped from the stream (SCRATCH
consumes them during window partitioning, before lowering).

Lowered traces are memoised on the trace object itself (keyed by issue
width), so every run of a prepared workload in a process — and every
pool worker forked after the engine prepared it — reuses them.

Kernels record a fresh trace object per invocation, and a kernel
invoked repeatedly records equal ones: FFT at n=512 x16 runs 96
invocations of 6 distinct contents.  :func:`lower_workload` therefore
prepares each distinct content once.  It keys every invocation on its
exact content (:func:`~repro.common.types.trace_fingerprint`) in a
dict that lives only for the call; a later trace equal to an earlier
one takes the earlier one's memo dicts (lowered streams, phase plans,
vector plans) and a link to it (:func:`content_source`), from which
invocation replay takes its token.  Preparation makes only long-lived
objects and no cycles, so it runs with the collector paused
(:func:`~repro.common.collector.collector_paused`, docs/simulator.md
§6.4).
"""

import math

from ..common.collector import collector_paused
from ..common.types import ComputeOp, MemOp, trace_fingerprint

#: Attribute used to memoise lowered forms on a trace object.
_CACHE_ATTR = "_lowered_by_width"

#: The memo dicts an equal trace shares with its content source: the
#: lowered streams, phase plans (:mod:`.phases`) and vector plans
#: (:mod:`.vector`).
_SHARED_ATTRS = (_CACHE_ATTR, "_phase_plans", "_vector_plans")

#: Attribute linking a trace to the equal trace it shares memos with.
_SOURCE_ATTR = "_content_source"


class LoweredTrace:
    """The compiled form of one :class:`FunctionTrace` invocation."""

    __slots__ = ("name", "issue_width", "steps", "mem_ops", "int_ops",
                 "fp_ops", "compute_chunks", "mem_runs", "coalesced_ops")

    def __init__(self, name, issue_width, steps, mem_ops, int_ops,
                 fp_ops, compute_chunks, mem_runs=0, coalesced_ops=0):
        self.name = name
        self.issue_width = issue_width
        self.steps = steps
        self.mem_ops = mem_ops
        self.int_ops = int_ops
        self.fp_ops = fp_ops
        self.compute_chunks = compute_chunks
        #: Number of mem steps (access runs, singletons included).
        self.mem_runs = mem_runs
        #: Memory ops inside runs of length >= 2 (the coalescable ops).
        self.coalesced_ops = coalesced_ops

    def __repr__(self):
        return ("LoweredTrace({}, iw={}, {} steps: {} mem in {} runs "
                "+ {} chunks)".format(
                    self.name, self.issue_width, len(self.steps),
                    self.mem_ops, self.mem_runs, self.compute_chunks))


def lower_trace(trace, issue_width):
    """Compile ``trace`` for ``issue_width``; one pass, no memoisation.

    Semantics-preserving by construction: every MemOp appears in program
    order inside a maximal same-line same-kind access run with its
    precomputed line address; every run of adjacent ComputeOps becomes
    one chunk whose latency is the *sum* of the per-op
    ``max(1, ceil(total / issue_width))`` latencies the legacy
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
    mem_runs = 0
    coalesced_ops = 0
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
                mem_runs += 1
                if run_count > 1:
                    coalesced_ops += run_count
            run_op = op
            run_block = block
            run_kind = op.kind
            run_count = 1
        elif type(op) is ComputeOp:
            if run_op is not None:
                # A compute chunk's latency interleaves with the run's
                # timeline, so it terminates the run.
                append((run_op, run_block, run_count))
                mem_runs += 1
                if run_count > 1:
                    coalesced_ops += run_count
                run_op = None
            int_ops += op.int_ops
            fp_ops += op.fp_ops
            pending_latency += max(1, ceil(op.total / issue_width))
        elif isinstance(op, MemOp):
            # Subclassed op types take the slow (but equivalent) path:
            # always a single-op run, never merged with neighbours.
            if pending_latency:
                append((None, pending_latency, 1))
                pending_latency = 0
                compute_chunks += 1
            if run_op is not None:
                append((run_op, run_block, run_count))
                mem_runs += 1
                if run_count > 1:
                    coalesced_ops += run_count
                run_op = None
            mem_ops += 1
            append((op, op.block, 1))
            mem_runs += 1
        elif isinstance(op, ComputeOp):
            if run_op is not None:
                append((run_op, run_block, run_count))
                mem_runs += 1
                if run_count > 1:
                    coalesced_ops += run_count
                run_op = None
            int_ops += op.int_ops
            fp_ops += op.fp_ops
            pending_latency += max(1, ceil(op.total / issue_width))
        # Anything else (PhaseMarker, foreign op types) costs nothing in
        # the core model — dropped, as the legacy interpreter skipped
        # it, and (costing nothing) it does not break an open run.
    if run_op is not None:
        append((run_op, run_block, run_count))
        mem_runs += 1
        if run_count > 1:
            coalesced_ops += run_count
    if pending_latency:
        append((None, pending_latency, 1))
        compute_chunks += 1
    return LoweredTrace(trace.name, issue_width, steps, mem_ops,
                        int_ops, fp_ops, compute_chunks, mem_runs,
                        coalesced_ops)


def lowered_trace(trace, issue_width):
    """Return the memoised lowered form of ``trace`` for ``issue_width``.

    The compiled stream is cached in the trace object's ``__dict__``
    (traces are read-only to the simulator once built), so repeat
    invocations reuse it.
    """
    cache = trace.__dict__.get(_CACHE_ATTR)
    if cache is None:
        cache = {}
        trace.__dict__[_CACHE_ATTR] = cache
    lowered = cache.get(issue_width)
    if lowered is None:
        lowered = lower_trace(trace, issue_width)
        cache[issue_width] = lowered
    return lowered


def content_source(trace):
    """The equal trace whose prepared forms ``trace`` shares, or
    ``trace`` itself.

    :func:`lower_workload` sets the link.  It holds only while both
    traces still share one lowered memo: once either is invalidated
    (:func:`invalidate_lowered`), their contents may differ.
    """
    source = trace.__dict__.get(_SOURCE_ATTR)
    if source is None or (source.__dict__.get(_CACHE_ATTR)
                          is not trace.__dict__.get(_CACHE_ATTR)):
        return trace
    return source


def invalidate_lowered(trace):
    """Drop a trace's memoised derived forms (after mutating its ops).

    Clears the lowered streams, the compiled steady-state phase and
    vector plans (which are derived from the lowered streams), the
    block-set caches (:meth:`~repro.common.types.FunctionTrace.touched_blocks`
    / ``dirty_blocks``), the DMA windows, the replay token and the link
    to a content source — everything derived from ``trace.ops``.  Memos
    shared with an equal trace are dropped from this trace only.
    """
    for attr in _SHARED_ATTRS + (_SOURCE_ATTR, "_touched_blocks",
                                 "_dirty_blocks", "_dma_windows",
                                 "_replay_token"):
        trace.__dict__.pop(attr, None)


def lower_workload(workload, issue_width=4):
    """Pre-lower every invocation of ``workload`` (default issue width).

    Used by the execution engine to prepare a workload once per
    process (pool workers inherit it by fork), so runs interpret
    ready-to-run streams.  Compiled phase plans (the steady-state fast
    path's unit of work) are built here too — and, when numpy is
    available, the structure-of-arrays vector plans above them (the
    vector rung; skipped cleanly on a numpy-less install).  Each
    distinct content is prepared once: an invocation equal to an
    earlier one shares its memos instead.  Runs with the collector
    paused.  Returns the workload for chaining.
    """
    from . import vector
    from .phases import phase_plan

    with collector_paused():
        sources = {}
        for trace in workload.invocations:
            source = sources.setdefault(trace_fingerprint(trace), trace)
            if source is not trace:
                for attr in _SHARED_ATTRS:
                    if attr in source.__dict__:
                        trace.__dict__[attr] = source.__dict__[attr]
                trace.__dict__[_SOURCE_ATTR] = source
                continue
            lowered_trace(trace, issue_width)
            phase_plan(trace, issue_width, leased=True)
            phase_plan(trace, issue_width, leased=False)
            if vector.HAVE_NUMPY:
                vector.vector_plan(trace, issue_width, leased=True)
                vector.vector_plan(trace, issue_width, leased=False)
    return workload
