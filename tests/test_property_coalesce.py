"""Property-based tests: run coalescing is invisible to the results.

The coalesced fast path (``access_run`` + the tight replay loop in
``AxcCore.run``) is a pure interpreter optimisation: for any trace, on
any of the four evaluated systems, the :class:`RunResult` with
``COALESCE_RUNS`` enabled must be *bit-identical* — every cycle count
and every stats counter, floats compared via ``repr`` — to the one
computed by the per-op path.  The traces here are biased to produce
long same-line runs (the fast path's target) interleaved with compute,
kind changes and cross-accelerator sharing (the guards' targets).
"""

from hypothesis import given, note, settings
from hypothesis import strategies as st

import repro.accel.core as core_mod
from repro.common.config import small_config
from repro.common.types import AccessType, ComputeOp, FunctionTrace, \
    MemOp, WorkloadTrace
from repro.systems import SYSTEMS

PAPER_SYSTEMS = tuple(SYSTEMS[name] for name in
                      ("SCRATCH", "SHARED", "FUSION", "FUSION-Dx"))

# A segment is either a same-line access run (block index, store?,
# length — lengths up to 6 make the fast path bite) or a compute op.
# Blocks come from a 16-line pool so lines churn through the tiny L0X.
run_segment = st.tuples(
    st.integers(0, 15),       # block index in the shared pool
    st.booleans(),            # store?
    st.integers(1, 6),        # run length
)
compute_segment = st.builds(ComputeOp, int_ops=st.integers(1, 8))
segments = st.lists(st.one_of(run_segment, compute_segment),
                    min_size=1, max_size=20)

workloads = st.lists(
    st.tuples(st.integers(0, 2), segments),   # (function tag, segments)
    min_size=1, max_size=4)

BASE = 0x10000


def _expand(segs):
    ops = []
    for seg in segs:
        if isinstance(seg, ComputeOp):
            ops.append(seg)
            continue
        index, is_store, length = seg
        kind = AccessType.STORE if is_store else AccessType.LOAD
        for word in range(length):
            ops.append(MemOp(kind, BASE + index * 64 + (word % 8) * 8))
    return ops


def build(spec):
    invocations = [
        FunctionTrace(name="fn{}".format(tag), benchmark="prop",
                      ops=_expand(segs), lease_time=250)
        for tag, segs in spec
        if _expand(segs)
    ]
    size = 16 * 64
    return WorkloadTrace(
        benchmark="prop", invocations=invocations,
        host_input_arrays=[(BASE, size)],
        host_output_arrays=[(BASE, size)],
        array_ranges={"pool": (BASE, size)},
    )


def fingerprint(result):
    """Everything a RunResult reports, floats pinned via ``repr``."""
    return {
        "accel_cycles": result.accel_cycles,
        "total_cycles": result.total_cycles,
        "energy_pj": repr(result.energy.total_pj),
        "stats": sorted((name, repr(value))
                        for name, value in result.stats.items()),
    }


def run_both_paths(system_cls, workload):
    original = core_mod.COALESCE_RUNS
    try:
        core_mod.COALESCE_RUNS = True
        coalesced = system_cls(small_config(), workload).run()
        core_mod.COALESCE_RUNS = False
        per_op = system_cls(small_config(), workload).run()
    finally:
        core_mod.COALESCE_RUNS = original
    return coalesced, per_op


@given(workloads)
@settings(max_examples=25, deadline=None)
def test_coalesced_results_bit_identical_on_all_systems(spec):
    note("workload spec: {!r}".format(spec))
    workload = build(spec)
    if not workload.invocations:
        return
    for system_cls in PAPER_SYSTEMS:
        coalesced, per_op = run_both_paths(system_cls, workload)
        assert fingerprint(coalesced) == fingerprint(per_op), \
            "coalescing changed {} results".format(system_cls.name)


@given(segments)
@settings(max_examples=25, deadline=None)
def test_single_function_store_heavy_runs_match(segs):
    """Stress the store-side guards (W state, write-through, dirty
    accounting) with a single hot function."""
    note("segments: {!r}".format(segs))
    ops = _expand(segs)
    if not ops:
        return
    workload = build([(0, segs)])
    for system_cls in PAPER_SYSTEMS:
        coalesced, per_op = run_both_paths(system_cls, workload)
        assert fingerprint(coalesced) == fingerprint(per_op), \
            "coalescing changed {} results".format(system_cls.name)
