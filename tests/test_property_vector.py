"""Property-based tests: the vector (array-compiled) rung is invisible.

The vectorised window fast path (``phase_quote_batch`` + the bulk
closed-form timeline in ``AxcCore._run_window``) sits one rung above
the steady-state phase engine on the fallback ladder
(``docs/simulator.md`` §13) and, like every rung below it, is a pure
interpreter optimisation: for any trace, on any evaluated system, the
:class:`RunResult` with ``VECTOR_PHASES`` enabled must be
*bit-identical* — every cycle count and every stats counter, floats
compared via ``repr`` — to the one computed with the rung disabled
(which serves the same stream through the per-phase path).

The traces are biased toward the rung's targets (long stretches of
consecutive lease-stable phases) *and* its guards: kind changes mid
stretch, cross-line churn through the tiny L0X, compute interleave,
and — adversarially — lease times so short that leases expire mid
window, forcing ACC's batched cover guard into its partial-prefix and
full-decline branches.

A final test pins the numpy-less contract: with
``repro.workloads.vector.HAVE_NUMPY`` forced off the rung must warn
once (RuntimeWarning), degrade to the phase engine, and still report
bit-identical results.
"""

import warnings

import pytest
from hypothesis import given, note, settings
from hypothesis import strategies as st

import repro.accel.core as core_mod
import repro.workloads.vector as vector_mod
from repro.common.config import small_config
from repro.common.types import AccessType, ComputeOp, FunctionTrace, \
    MemOp, WorkloadTrace
from repro.systems import SYSTEMS, coresident

# Same trace shapes as tests/test_property_phases.py: runs up to 12 ops
# build phases the compilers accept, a 16-line pool keeps lines
# churning, and back-to-back runs build the multi-phase windows the
# vector compiler slices.
run_segment = st.tuples(
    st.integers(0, 15),       # block index in the shared pool
    st.booleans(),            # store?
    st.integers(1, 12),       # run length
)
compute_segment = st.builds(ComputeOp, int_ops=st.integers(1, 8))
segments = st.lists(st.one_of(run_segment, compute_segment),
                    min_size=1, max_size=24)

workloads = st.lists(
    st.tuples(st.integers(0, 2), segments),   # (function tag, segments)
    min_size=1, max_size=4)

#: Lease times from "expires before a window can even open" through the
#: catalog default: the short end drives ACC's batched cover compare
#: into partial-prefix accepts and full declines.
lease_times = st.sampled_from([1, 3, 7, 30, 250])

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


def build(spec, lease_time=250):
    invocations = [
        FunctionTrace(name="fn{}".format(tag), benchmark="prop",
                      ops=_expand(segs), lease_time=lease_time)
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


def run_both_paths(make_system):
    original = core_mod.VECTOR_PHASES
    try:
        core_mod.VECTOR_PHASES = True
        vectored = make_system().run()
        core_mod.VECTOR_PHASES = False
        fallback = make_system().run()
    finally:
        core_mod.VECTOR_PHASES = original
    return vectored, fallback


@given(workloads)
@settings(max_examples=20, deadline=None)
def test_vector_results_bit_identical_on_all_systems(spec):
    """All six systems — the four designs, IDEAL and the pipelined
    tile — report identical results with the rung on and off."""
    note("workload spec: {!r}".format(spec))
    workload = build(spec)
    if not workload.invocations:
        return
    for system_cls in SYSTEMS.values():
        vectored, fallback = run_both_paths(
            lambda: system_cls(small_config(), workload))
        assert fingerprint(vectored) == fingerprint(fallback), \
            "vector rung changed {} results".format(system_cls.name)


@given(workloads, lease_times)
@settings(max_examples=20, deadline=None)
def test_adversarial_leases_stay_bit_identical(spec, lease_time):
    """Leases expiring mid-window (or before one opens) must cap the
    accepted prefix or decline — never corrupt the timeline."""
    note("workload spec: {!r} lease_time={}".format(spec, lease_time))
    workload = build(spec, lease_time=lease_time)
    if not workload.invocations:
        return
    for name in ("FUSION", "FUSION-Dx", "FUSION-PIPE"):
        system_cls = SYSTEMS[name]
        vectored, fallback = run_both_paths(
            lambda: system_cls(small_config(), workload))
        assert fingerprint(vectored) == fingerprint(fallback), \
            "vector rung changed {} results under lease {}".format(
                name, lease_time)


@given(workloads, workloads)
@settings(max_examples=15, deadline=None)
def test_multitenant_bit_identical(spec_a, spec_b):
    """Two co-resident processes time-sharing one tile: the vector
    rung must stay invisible across the interleaved invocations."""
    note("workload specs: {!r} / {!r}".format(spec_a, spec_b))
    tenants = [build(spec_a), build(spec_b, lease_time=30)]
    if not all(w.invocations for w in tenants):
        return
    vectored, fallback = run_both_paths(
        lambda: coresident(small_config(), tenants))
    assert fingerprint(vectored) == fingerprint(fallback), \
        "vector rung changed multi-tenant results"


def test_numpy_less_fallback_warns_once_and_matches(monkeypatch):
    """With numpy masked out, ``VECTOR_PHASES=1`` must degrade to the
    phase engine after exactly one RuntimeWarning, and the results must
    still match the rung-off run bit for bit."""
    spec = [(0, [(0, False, 8), (1, True, 8), (0, False, 8)])]
    workload = build(spec)
    system_cls = SYSTEMS["FUSION"]

    monkeypatch.setattr(core_mod, "VECTOR_PHASES", True)
    reference = system_cls(small_config(), workload).run()

    monkeypatch.setattr(vector_mod, "HAVE_NUMPY", False)
    monkeypatch.setattr(core_mod, "_warned_no_numpy", False)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        degraded = system_cls(small_config(), workload).run()
        again = system_cls(small_config(), workload).run()
    runtime = [w for w in caught if issubclass(w.category, RuntimeWarning)
               and "numpy" in str(w.message)]
    assert len(runtime) == 1, "warn-once contract broken"
    assert fingerprint(degraded) == fingerprint(reference)
    assert fingerprint(again) == fingerprint(reference)


def test_numpy_less_silent_when_rung_disabled(monkeypatch):
    """No numpy *and* no request for the rung: nothing to warn about."""
    monkeypatch.setattr(vector_mod, "HAVE_NUMPY", False)
    monkeypatch.setattr(core_mod, "_warned_no_numpy", False)
    monkeypatch.setattr(core_mod, "VECTOR_PHASES", False)
    spec = [(0, [(0, False, 6), (1, False, 6)])]
    workload = build(spec)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        SYSTEMS["FUSION"](small_config(), workload).run()
    assert not [w for w in caught
                if issubclass(w.category, RuntimeWarning)]
