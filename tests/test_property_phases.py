"""The phase rung on and off: the oracle's property with only
``STEADY_PHASES`` flipped (``tests/test_oracle.py`` checks every
combination of the four rungs), and an accepted phase's timeline
applied on live state against the per-op loop."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.accel.core import AxcCore
from repro.common.stats import StatsRegistry
from repro.common.types import AccessType, MemOp
from repro.workloads.phases import build_phase
from test_oracle import ALL_ON, CORESIDENT, SOLO_MAKERS, cases, check, \
    pick, rung_off
# The oracle's autouse phase cap: the generated traces keep forming
# multi-phase windows here too.
from test_oracle import oracle_phase_cap  # noqa: F401

OFF = rung_off("STEADY_PHASES")


@given(cases())
@settings(max_examples=4, deadline=None)
def test_phase_results_bit_identical_on_all_systems(case):
    check(case, (ALL_ON, OFF), SOLO_MAKERS)


@given(cases(leases=(0, 1, 3, 7)))
@settings(max_examples=4, deadline=None)
def test_adversarial_leases_stay_bit_identical(case):
    """Leases expiring mid-phase (or before one opens) must make the
    guard decline, never corrupt the timeline."""
    check(case, (ALL_ON, OFF), pick("FUSION", "FUSION-Dx", "FUSION-PIPE"))


@given(cases())
@settings(max_examples=4, deadline=None)
def test_multitenant_bit_identical(case):
    """Co-resident processes on one tile or a tile each: the phase rung
    must stay invisible across the interleaved invocations."""
    check(case, (ALL_ON, OFF), pick(*CORESIDENT))


# -- a phase applied on live state equals the per-op loop -------------------

#: Lines a generated phase touches, and a line it never touches.
PHASE_LINES = tuple(0x40000 + 64 * line for line in range(4))
FRESH_LINE = 0x40000 + 64 * 16

segments = st.lists(st.one_of(
    st.tuples(st.integers(0, len(PHASE_LINES) - 1), st.booleans(),
              st.integers(1, 6)),
    st.integers(1, 4)), min_size=1, max_size=10)

#: ``(load_lat, store_lat)``: at or below the interval, one uniform
#: latency above it, or anything.
latencies = st.one_of(
    st.tuples(st.integers(0, 1), st.integers(0, 1)),
    st.integers(2, 12).map(lambda lat: (lat, lat)),
    st.tuples(st.integers(0, 12), st.integers(0, 12)))

#: Offsets from the entry clock in half cycles: past entries (already
#: retired), near ones and far ones.  Near ones are drawn more often:
#: a fill can only merge a few cycles past its line's first issue.
half_offsets = st.one_of(st.integers(-2, 12), st.integers(-6, 40)).map(
    lambda half: half / 2)


def _mem_op(line, is_store):
    kind = AccessType.STORE if is_store else AccessType.LOAD
    return MemOp(kind, PHASE_LINES[line])


def _steps(segs):
    steps = []
    for seg in segs:
        if isinstance(seg, int):
            steps.append((None, seg, 1))
        else:
            op = _mem_op(seg[0], seg[1])
            steps.append((op, op.block, seg[2]))
    return steps


def _counters(stats):
    return (stats.get("axc.core0.mlp_stall_cycles"),
            stats.get("axc.core0.mshr_merges"))


# Each guard's edge, pinned: a full heap must stall; a fill one cycle
# past its line's first completion must merge; and so must one between
# a first store's completion and the slower load latency.
@example(segs=[(0, False, 2)], lats=(1, 1), mlp=1, interval=1, now=50,
         heap_offsets=[5], fill_offsets=[None] * 4, probe_lat=0)
@example(segs=[(0, False, 1)], lats=(1, 1), mlp=8, interval=1, now=50,
         heap_offsets=[], fill_offsets=[2, None, None, None], probe_lat=0)
@example(segs=[(1, True, 1), (0, False, 1)], lats=(1, 0), mlp=1,
         interval=1, now=50, heap_offsets=[],
         fill_offsets=[None, 0.5, None, None], probe_lat=0)
@given(segments, latencies, st.integers(1, 8), st.sampled_from((1, 1.5)),
       st.integers(0, 40).map(lambda half: 50 + half / 2),
       st.lists(half_offsets, max_size=10),
       st.lists(st.one_of(st.none(), half_offsets),
                min_size=len(PHASE_LINES), max_size=len(PHASE_LINES)),
       st.integers(0, 6))
@settings(max_examples=400, deadline=None)
def test_phase_applied_on_live_state_equals_per_op_loop(
        segs, lats, mlp, interval, now, heap_offsets, fill_offsets,
        probe_lat):
    """``AxcCore._apply_phase`` — the closed forms, or the issue loop at
    the quoted latencies — leaves the same clock, counters and timeline
    state as the per-op loop over the phase's steps: a probe of per-op
    accesses issued afterwards (each phase line once, then more than
    ``mlp`` ops on a fresh line) ends at the same time too."""
    load_lat, store_lat = lats
    phase = build_phase(_steps(segs))
    heap = sorted(now + offset for offset in heap_offsets)
    fills = {block: now + offset
             for block, offset in zip(PHASE_LINES, fill_offsets)
             if offset is not None}
    fills[FRESH_LINE] = now + 3

    def constant(op, _now):
        return store_lat if op.is_store else load_lat

    probe = [(op, op.block, 1) for op in
             (_mem_op(line, False) for line in range(len(PHASE_LINES)))]
    probe_op = MemOp(AccessType.LOAD, FRESH_LINE)
    probe.append((probe_op, probe_op.block, mlp + 2))
    ends = []
    for apply in (True, False):
        stats = StatsRegistry()
        core = AxcCore(0, stats)
        outstanding = list(heap)
        fill_time_of = dict(fills)
        if apply:
            clock = core._apply_phase(phase, load_lat, store_lat, now,
                                      outstanding, fill_time_of, mlp,
                                      interval)
        else:
            clock = core._interpret(phase.steps, now, outstanding,
                                    fill_time_of, constant, mlp, interval)
        exit_state = (clock, _counters(stats))
        clock = core._interpret(probe, clock, outstanding, fill_time_of,
                                lambda op, _now: probe_lat, mlp, interval)
        ends.append((exit_state, clock, max([clock, *outstanding]),
                     _counters(stats)))
    assert ends[0] == ends[1]
