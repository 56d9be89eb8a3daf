"""Property-based tests: the invocation replay cache is invisible.

The guarded invocation replay cache (``repro.accel.replay``) is the top
rung of the fallback ladder (``docs/simulator.md`` §11) and, like the
rungs below it, a pure interpreter optimisation: for any workload, on
any evaluated system, the :class:`RunResult` with ``REPLAY_INVOCATIONS``
enabled must be *bit-identical* — every cycle count and every stats
counter, floats compared via ``repr`` — to the one computed with the
rung disabled (which serves every invocation through the phase path).

The workloads repeat each function several times (the replay engine
never records a key that cannot recur), and are biased toward the
guard's hard cases: cross-line churn evicting lines under pressure in
the tiny L0X, leases so short they expire mid-invocation, forwarding
plans (FUSION-Dx), and alternating function contents that force guard
misses and the engine's decline/disable paths.
"""

from dataclasses import replace

from hypothesis import given, note, settings
from hypothesis import strategies as st

import repro.accel.replay as replay_mod
from repro.common.config import small_config
from repro.common.types import AccessType, ComputeOp, FunctionTrace, \
    MemOp, WorkloadTrace
from repro.systems import SYSTEMS, coresident

# A segment is either a same-line access run (block index, store?,
# length) or a compute op — the same shapes the phase-engine suite
# uses, so every replayed invocation exercises the rungs below too.
run_segment = st.tuples(
    st.integers(0, 15),       # block index in the shared pool
    st.booleans(),            # store?
    st.integers(1, 12),       # run length
)
compute_segment = st.builds(ComputeOp, int_ops=st.integers(1, 8))
segments = st.lists(st.one_of(run_segment, compute_segment),
                    min_size=1, max_size=16)

functions = st.lists(
    st.tuples(st.integers(0, 2), segments),   # (function tag, segments)
    min_size=1, max_size=3)

#: POLICY static strategy key per paper system.
STATIC_KEYS = {"SCRATCH": "scratch", "SHARED": "shared",
               "FUSION": "fusion", "FUSION-Dx": "fusion-dx"}

#: Iteration counts past the engine's recording floor, so later
#: iterations genuinely probe (and, in steady state, hit).
iteration_counts = st.integers(3, 6)

#: Lease times from "expires before the invocation ends" through the
#: catalog default: the short end keeps every recorded lease out of the
#: guard's COVERS class, exercising PAST and exact-relative matching.
lease_times = st.sampled_from([1, 3, 7, 30, 250])

BASE = 0x10000

#: Block pool spanning more lines than the small config's L0X holds,
#: so repeated invocations evict under pressure while recorded.
PRESSURE_BLOCKS = 96


def _expand(segs, num_blocks=16):
    ops = []
    for seg in segs:
        if isinstance(seg, ComputeOp):
            ops.append(seg)
            continue
        index, is_store, length = seg
        kind = AccessType.STORE if is_store else AccessType.LOAD
        for word in range(length):
            ops.append(MemOp(kind, BASE + (index % num_blocks) * 64
                             + (word % 8) * 8))
    return ops


def build(spec, iterations=4, lease_time=250, num_blocks=16):
    functions = [
        FunctionTrace(name="fn{}".format(tag), benchmark="prop",
                      ops=_expand(segs, num_blocks),
                      lease_time=lease_time)
        for tag, segs in spec
        if _expand(segs)
    ]
    # Round-robin repetition: the same invocation recurs ``iterations``
    # times with the others interleaved, like the paper's streaming
    # pipelines — exactly the shape the replay cache targets.
    invocations = [trace for _ in range(iterations)
                   for trace in functions]
    size = num_blocks * 64
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
    original = replay_mod.REPLAY_INVOCATIONS
    try:
        replay_mod.REPLAY_INVOCATIONS = True
        replayed = make_system().run()
        replay_mod.REPLAY_INVOCATIONS = False
        fallback = make_system().run()
    finally:
        replay_mod.REPLAY_INVOCATIONS = original
    return replayed, fallback


@given(functions, iteration_counts)
@settings(max_examples=15, deadline=None)
def test_replay_results_bit_identical_on_all_systems(spec, iterations):
    """Every registry system — the four designs, IDEAL, the pipelined
    tile and POLICY under each static strategy — reports identical
    results with the replay rung on and off."""
    note("workload spec: {!r} x{}".format(spec, iterations))
    workload = build(spec, iterations=iterations)
    if not workload.invocations:
        return
    presets = {}
    for system_cls in SYSTEMS.values():
        replayed, fallback = run_both_paths(
            lambda: system_cls(small_config(), workload))
        assert fingerprint(replayed) == fingerprint(fallback), \
            "replay cache changed {} results".format(system_cls.name)
        presets[system_cls.name] = replayed
    # POLICY under a static selector is offered the rung too, and is
    # the preset it names in everything but the system name.
    for name, key in STATIC_KEYS.items():
        config = small_config().with_policy(selector="static",
                                            static_strategy=key)
        replayed, fallback = run_both_paths(
            lambda: SYSTEMS["POLICY"](config, workload))
        assert fingerprint(replayed) == fingerprint(fallback), \
            "replay cache changed POLICY static:{} results".format(key)
        assert replace(replayed, system=name) == presets[name], \
            "POLICY static:{} differs from {}".format(key, name)


@given(functions, lease_times)
@settings(max_examples=15, deadline=None)
def test_adversarial_leases_stay_bit_identical(spec, lease_time):
    """Leases expiring mid-invocation (or before the next one starts)
    must make the guard decline or class-match — never corrupt state."""
    note("workload spec: {!r} lease_time={}".format(spec, lease_time))
    workload = build(spec, iterations=4, lease_time=lease_time)
    if not workload.invocations:
        return
    for name in ("FUSION", "FUSION-Dx", "SHARED"):
        system_cls = SYSTEMS[name]
        replayed, fallback = run_both_paths(
            lambda: system_cls(small_config(), workload))
        assert fingerprint(replayed) == fingerprint(fallback), \
            "replay cache changed {} results under lease {}".format(
                name, lease_time)


@given(functions, iteration_counts)
@settings(max_examples=10, deadline=None)
def test_eviction_under_pressure_stays_bit_identical(spec, iterations):
    """A pool wider than the L0X: recorded invocations evict lines
    under pressure, and the guard must pin LRU order exactly."""
    note("workload spec: {!r} x{}".format(spec, iterations))
    workload = build(spec, iterations=iterations,
                     num_blocks=PRESSURE_BLOCKS)
    if not workload.invocations:
        return
    for name in ("FUSION", "FUSION-Dx", "SCRATCH"):
        system_cls = SYSTEMS[name]
        replayed, fallback = run_both_paths(
            lambda: system_cls(small_config(), workload))
        assert fingerprint(replayed) == fingerprint(fallback), \
            "replay cache changed {} results under pressure".format(name)


@given(functions, functions)
@settings(max_examples=10, deadline=None)
def test_multitenant_bit_identical(spec_a, spec_b):
    """Two co-resident processes time-sharing one tile: flipping the
    replay flag must not perturb the interleaved invocations."""
    note("workload specs: {!r} / {!r}".format(spec_a, spec_b))
    tenants = [build(spec_a), build(spec_b, lease_time=30)]
    if not all(w.invocations for w in tenants):
        return
    replayed, fallback = run_both_paths(
        lambda: coresident(small_config(), tenants))
    assert fingerprint(replayed) == fingerprint(fallback), \
        "replay flag changed multi-tenant results"


def _steady_workload(iterations=8):
    """A deterministic streaming loop that reaches replay steady state."""
    segs = [(i, i % 2 == 0, 8) for i in range(8)]
    return build([(0, segs), (1, list(reversed(segs)))],
                 iterations=iterations)


def test_replay_engine_actually_hits():
    """Anti-vacuity: on a steady iterated workload the FUSION engine
    must serve invocations from the replay cache, not just fall back."""
    workload = _steady_workload()
    original = replay_mod.REPLAY_INVOCATIONS
    try:
        replay_mod.REPLAY_INVOCATIONS = True
        system = SYSTEMS["FUSION"](small_config(), workload)
        system.run()
    finally:
        replay_mod.REPLAY_INVOCATIONS = original
    engine = system.replay_engine
    assert engine is not None
    assert engine.hits > 0, "replay guard never matched a recording"


def test_replay_rung_follows_the_selector():
    """POLICY under a static selector takes the rung like the preset it
    names; a learning selector (cross-invocation state) never does."""
    workload = _steady_workload()
    original = replay_mod.REPLAY_INVOCATIONS
    try:
        replay_mod.REPLAY_INVOCATIONS = True
        static = SYSTEMS["POLICY"](small_config(), workload)
        static.run()
        bandit = SYSTEMS["POLICY"](
            small_config().with_policy(selector="bandit"), workload)
        bandit.run()
    finally:
        replay_mod.REPLAY_INVOCATIONS = original
    assert static.replay_engine is not None
    assert static.replay_engine.hits > 0
    assert bandit.replay_engine is None


def test_forced_decline_paths_stay_bit_identical():
    """Tiny store/disable budgets force the decline and key-disable
    paths; results must stay bit-identical while misses accumulate."""
    workload = _steady_workload()
    saved = (replay_mod.MAX_RECORDINGS_PER_KEY,
             replay_mod.DISABLE_AFTER_MISSES)
    try:
        replay_mod.MAX_RECORDINGS_PER_KEY = 1
        replay_mod.DISABLE_AFTER_MISSES = 1
        replayed, fallback = run_both_paths(
            lambda: SYSTEMS["FUSION"](small_config(), workload))
    finally:
        (replay_mod.MAX_RECORDINGS_PER_KEY,
         replay_mod.DISABLE_AFTER_MISSES) = saved
    assert fingerprint(replayed) == fingerprint(fallback)
    # The constrained store must have declined at least once (the cold
    # recording can never match the warm second iteration).
    original = replay_mod.REPLAY_INVOCATIONS
    try:
        replay_mod.REPLAY_INVOCATIONS = True
        replay_mod.MAX_RECORDINGS_PER_KEY = 1
        replay_mod.DISABLE_AFTER_MISSES = 1
        system = SYSTEMS["FUSION"](small_config(), workload)
        system.run()
    finally:
        replay_mod.REPLAY_INVOCATIONS = original
        (replay_mod.MAX_RECORDINGS_PER_KEY,
         replay_mod.DISABLE_AFTER_MISSES) = saved
    assert system.replay_engine.misses > 0


def test_lease_expiry_mid_span_declines_cleanly():
    """Leases shorter than the invocation span: recorded lease fields
    sit in the PAST/exact classes and every iteration must still agree
    with the fallback path bit for bit."""
    segs = [(i, True, 12) for i in range(6)]
    workload = build([(0, segs)], iterations=6, lease_time=3)
    replayed, fallback = run_both_paths(
        lambda: SYSTEMS["FUSION"](small_config(), workload))
    assert fingerprint(replayed) == fingerprint(fallback)
