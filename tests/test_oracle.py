"""The differential oracle: every rung combination matches the per-op path.

Every rung of the fallback ladder above per-op (coalesced run, phase,
vector window, invocation replay; ``docs/simulator.md`` §9-§13) is a
pure interpreter optimisation: on any trace and any system, each of the
16 combinations of the four rung flags must report a :class:`RunResult`
bit-identical to the all-off run, floats compared via ``repr``.  The
teeth tests fault each guard and demand that the oracle notices.
"""

import contextlib
import copy
import dataclasses
import itertools
import pathlib
import warnings

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import repro.accel.core as core_mod
import repro.accel.replay as replay_mod
import repro.workloads.vector as vector_mod
from repro.accel.replay import AccTileReplayAdapter
from repro.check.mutations import LTIME_SKEW
from repro.coherence.acc import AccL0XController
from repro.common.config import small_config
from repro.common.types import AccessType, ComputeOp, FunctionTrace, \
    MemOp, WorkloadTrace
from repro.sim.engine import RunRequest, collector_paused
from repro.systems import SYSTEMS, build_system
from repro.workloads.lowering import lower_workload, lowered_trace

# -- the rung flags -----------------------------------------------------------

#: The four rung flags, bottom of the ladder first.
RUNG_FLAGS = ((core_mod, "COALESCE_RUNS"), (core_mod, "STEADY_PHASES"),
              (core_mod, "VECTOR_PHASES"),
              (replay_mod, "REPLAY_INVOCATIONS"))

#: Every ``(coalesce, phase, vector, replay)`` combination; the first is
#: the per-op reference, the last the shipped default.
COMBOS = tuple(itertools.product((False, True), repeat=4))
PER_OP, ALL_ON = COMBOS[0], COMBOS[-1]


def rung_off(flag):
    """The shipped default with rung ``flag`` alone switched off."""
    return tuple(name != flag for _module, name in RUNG_FLAGS)


@contextlib.contextmanager
def rungs(combo=ALL_ON):
    """Set the four rung flags to ``combo`` for the body, then restore."""
    saved = [getattr(module, flag) for module, flag in RUNG_FLAGS]
    for (module, flag), value in zip(RUNG_FLAGS, combo):
        setattr(module, flag, value)
    try:
        yield
    finally:
        for (module, flag), value in zip(RUNG_FLAGS, saved):
            setattr(module, flag, value)


# -- traces -------------------------------------------------------------------

BASE = 0x10000

#: Lines in the hot pool, and in one past the small config's 64-line L0X.
POOL, PRESSURE_POOL = 16, 96

#: Lines between two addresses of one L1X (and so one L0X) set in the
#: small config: an eviction sweep walks a hot line's set.
SET_STRIDE = 128

#: Zero, one cycle, short enough to expire mid-invocation, the default.
LEASES = (0, 1, 3, 7, 30, 500)

run_lengths = st.integers(1, 12)
computes = st.integers(1, 8)


@st.composite
def bodies(draw, pool, parity):
    """One function body as segments: ``(line, store?, length)`` for a
    same-line access run, an int for a compute op of that many ops."""
    half = pool // 2
    kind = draw(st.sampled_from(("stream", "stencil", "table", "pingpong",
                                 "free")))
    if kind == "free":
        segments = draw(st.lists(st.one_of(
            st.tuples(st.integers(0, pool - 1), st.booleans(), run_lengths),
            computes), min_size=1, max_size=16))
    elif kind == "table":
        table = draw(st.lists(st.integers(0, pool - 1), min_size=1,
                              max_size=4))
        segments = draw(st.lists(st.tuples(
            st.sampled_from(table), st.just(False), run_lengths),
            min_size=1, max_size=12))
    else:
        # Streaming reads one half and writes the other; a stencil reads
        # a line's neighbours too; ping-pong functions of opposite
        # parity write the half the other one reads.
        src = parity * half if kind == "pingpong" else 0
        first = draw(st.integers(0, half - 1))
        segments = []
        for line in range(first, first + draw(st.integers(1, 6))):
            reads = (line - 1, line, line + 1) if kind == "stencil" \
                else (line,)
            segments += [(src + read % half, False, draw(run_lengths))
                         for read in reads]
            segments += [draw(computes), (half - src + line % half, True,
                                          draw(run_lengths))]
    # Re-walking the body inside one invocation builds steady phases.
    return tuple(segments) * draw(st.integers(1, 3))


def functions(pool, leases=LEASES):
    """1-3 functions: ``((lease, segments), ...)``."""
    return st.integers(1, 3).flatmap(lambda count: st.tuples(*(
        st.tuples(st.sampled_from(leases), bodies(pool, index % 2))
        for index in range(count))))


def perturbations(lines):
    """What happens after an invocation: usually nothing; else a host
    write of some of ``lines``, a sweep walking their sets ``depth``
    deep, or a compute gap that ages every lease."""
    picks = st.lists(st.sampled_from(lines), min_size=1, max_size=4)
    gaps = st.tuples(st.just("gap"), st.integers(1, 4000))
    return st.one_of(st.none(), st.none(), st.none(), gaps, gaps,
                     st.tuples(st.just("host"), picks),
                     st.tuples(st.just("sweep"), picks, st.integers(1, 10)))


@st.composite
def cases(draw, pools=(POOL, PRESSURE_POOL), leases=LEASES):
    """``(pool, functions, schedule, (partner, rounds))``: the schedule
    repeats the functions round-robin with perturbations in between; the
    partner is the co-resident systems' second tenant."""
    pool = draw(st.sampled_from(pools))
    fns = draw(functions(pool, leases))
    # Perturb the lines the functions touch, so a stale recording shows.
    between = perturbations(sorted({
        segment[0] % pool for _lease, segments in fns
        for segment in segments if not isinstance(segment, int)} or {0}))
    schedule = []
    for _round in range(draw(st.integers(3, 6))):
        for index in range(len(fns)):
            schedule += [index, draw(between)]
    return (pool, fns, [event for event in schedule if event is not None],
            (draw(functions(POOL)), draw(st.integers(1, 3))))


def _ops(segments, pool):
    ops = []
    for segment in segments:
        if isinstance(segment, int):
            ops.append(ComputeOp(int_ops=segment))
        else:
            line, is_store, length = segment
            kind = AccessType.STORE if is_store else AccessType.LOAD
            ops += [MemOp(kind, BASE + (line % pool) * 64 + (word % 8) * 8)
                    for word in range(length)]
    return ops


def build(fns, schedule=None, pool=POOL, rounds=1):
    """``(WorkloadTrace, {position: pool lines the host writes just
    before that invocation})`` for ``fns`` run through ``schedule``
    (default: ``rounds`` round-robin passes)."""
    traces = [FunctionTrace(name="fn{}".format(index), benchmark="oracle",
                            ops=_ops(segments, pool), lease_time=lease)
              for index, (lease, segments) in enumerate(fns)]
    invocations, host_writes = [], {}
    for event in schedule or list(range(len(fns))) * rounds:
        if isinstance(event, int):
            invocations.append(traces[event])
        elif event[0] == "host":
            host_writes.setdefault(len(invocations), []).extend(event[1])
        elif event[0] == "sweep":
            invocations.append(FunctionTrace("sweep", "oracle", [
                MemOp(AccessType.LOAD, BASE + (line + step * SET_STRIDE) * 64)
                for step in range(1, event[2] + 1) for line in event[1]]))
        else:
            invocations.append(FunctionTrace(
                "gap", "oracle", [ComputeOp(int_ops=event[1])]))
    arrays = [(BASE, pool * 64)]
    return WorkloadTrace("oracle", invocations, arrays, arrays,
                         {"pool": arrays[0]}), host_writes


# -- systems ------------------------------------------------------------------

CONFIG = small_config()


def _maker(name, config=CONFIG):
    return lambda workload, partner: SYSTEMS[name](config, workload)


#: Every system the oracle checks, built from ``(workload, partner)``.
MAKERS = {name: _maker(name) for name in SYSTEMS if name != "POLICY"}
MAKERS.update({"POLICY static:" + key: _maker("POLICY", CONFIG.with_policy(
    selector="static", static_strategy=key))
    for key in ("scratch", "shared", "fusion", "fusion-dx")})
MAKERS["POLICY bandit"] = _maker("POLICY",
                                 CONFIG.with_policy(selector="bandit"))


def _coresident(system, benchmark, config=CONFIG):
    """A co-resident request, built as the engine builds it, whose two
    benchmarks ``adpcm`` and ``filter`` stand for the drawn workload and
    its partner."""
    request = RunRequest(system, benchmark, "tiny", config)
    return lambda workload, partner: build_system(
        request, {"adpcm": workload, "filter": partner}.__getitem__)


MAKERS["FUSION-MT"] = _coresident("FUSION", "adpcm+filter")
MAKERS["FUSION-2T"] = _coresident("FUSION", "adpcm|filter")
MAKERS["FUSION+POLICY bandit"] = _coresident(
    "FUSION+POLICY", "adpcm+filter", CONFIG.with_policy(selector="bandit"))

#: The co-resident runs, and every system that runs one workload.
CORESIDENT = ("FUSION-MT", "FUSION-2T", "FUSION+POLICY bandit")
SOLO_MAKERS = {name: make for name, make in MAKERS.items()
               if name not in CORESIDENT}


def pick(*names):
    """The makers of the systems ``names``."""
    return {name: MAKERS[name] for name in names}


def with_host_writes(system, writes):
    """The host writes pool lines ``writes[k]`` before the run loop
    dispatches invocation ``k`` through ``System._step`` or the replay
    engine; FUSION-PIPE schedules its own and sees no host writes."""
    turns = itertools.count()

    def hooked(step):
        def dispatch(*args):
            *head, tenant, index, trace, now = args
            for line in writes.get(next(turns), ()):
                now = tenant.host_core.produce(BASE + line * 64, 64, now)
            return step(*head, tenant, index, trace, now)
        return dispatch

    system._step = hooked(system._step)
    make_engine = system._make_replay_engine

    def make_replay_engine():
        engine = make_engine()
        if engine is not None:
            del system._step    # the engine calls _step itself
            engine.run_invocation = hooked(engine.run_invocation)
        return engine

    system._make_replay_engine = make_replay_engine


def fingerprint(result):
    """Everything a RunResult reports, floats pinned via ``repr``."""
    return (result.accel_cycles, result.total_cycles,
            repr(result.energy.total_pj), sorted(
                (name, repr(value)) for name, value in result.stats.items()))


def run(make, built, combo=ALL_ON):
    workload, partner, host_writes = built
    # Runs are cycle-free, so pause the collector as run_batch does.
    with rungs(combo), collector_paused():
        system = make(workload, partner)
        with_host_writes(system, host_writes)
        return fingerprint(system.run())


def check(case, variants, makers=MAKERS):
    """The oracle: on every system each rung combination in ``variants``
    matches the per-op reference."""
    pool, fns, schedule, (partner, rounds) = case
    workload, host_writes = build(fns, schedule, pool)
    built = workload, build(partner, rounds=rounds)[0], host_writes
    for name, make in makers.items():
        reference = run(make, built, PER_OP)
        for variant in dict.fromkeys(variants):
            try:
                got = run(make, built, variant)
            except Exception as exc:    # a crash is a difference too
                got = repr(exc)
            assert got == reference, \
                "{} differs from per-op with rungs {}".format(name, variant)


@given(cases(), st.sampled_from(COMBOS))
@settings(max_examples=6, deadline=None)
def test_every_rung_combination_matches_per_op(case, combo):
    check(case, (ALL_ON, combo))


#: A steady loop every rung serves, and an adversarial trace: zero,
#: one-cycle and short leases on a pressure pool, perturbed in between.
FIXED = {
    "steady": (POOL, ((500, ((0, False, 4), (1, True, 4), 2,
                             (2, False, 4), (3, True, 4)) * 3),
                      (250, tuple((line, line % 2 == 0, 8)
                                  for line in range(4, 12)))),
               (0, 1) * 8, (((30, ((0, True, 4), 3, (1, False, 6))),), 2)),
    "adversarial": (PRESSURE_POOL,
                    ((0, ((3, False, 9), 2, (70, True, 5))),
                     (1, ((70, False, 12), (5, True, 3), (3, False, 4))),
                     (30, ((9, False, 6), (40, True, 6), 4) * 2)),
                    (0, 1, ("host", [3]), 2, ("sweep", [3, 9], 9), 0, 1,
                     2, ("gap", 250), 0, 1, ("host", [9]), 2),
                    (((3, ((0, False, 8), (1, True, 8))),), 2)),
}


@pytest.mark.parametrize("name", sorted(FIXED))
def test_all_sixteen_combinations_on_fixed_traces(name):
    """Every combination on every system but POLICY static:*, which runs
    its preset's code (``tests/test_strategy.py`` pins the two equal)."""
    check(FIXED[name], COMBOS[1:],
          {system: make for system, make in MAKERS.items()
           if not system.startswith("POLICY static:")})


# -- shared preparation -------------------------------------------------------

class TracedMemOp(MemOp):
    """A MemOp subclass: per-op path, and its own class in a key."""


def near_duplicates(trace):
    """Traces that differ from ``trace`` in one respect each: lease
    time, name, its first access's line, and that access as a
    subclassed op on its own line or on the next one."""
    first = next(index for index, op in enumerate(trace.ops)
                 if type(op) is MemOp)
    op = trace.ops[first]

    def with_first(cls, addr):
        ops = list(trace.ops)
        ops[first] = cls(op.kind, addr, op.size, op.array)
        return dataclasses.replace(trace, ops=ops)

    return [dataclasses.replace(trace, lease_time=trace.lease_time + 1),
            dataclasses.replace(trace, name=trace.name + "'"),
            with_first(MemOp, op.addr + 64),
            with_first(TracedMemOp, op.addr),
            with_first(TracedMemOp, op.addr + 64)]


def test_shared_preparation_matches_per_op():
    """Invocations that are distinct objects with equal content, next to
    near-duplicates, prepared by ``lower_workload``: equal ones share
    one lowered stream, near-duplicates do not, and every rung
    combination on every system matches the per-op run on an
    unprepared deep copy."""
    pool, fns, _schedule, (partner, rounds) = FIXED["steady"]
    workload = build(fns, pool=pool)[0]
    first, second = workload.invocations
    workload.invocations = [copy.deepcopy(trace) for trace in
                            ([first, second] + near_duplicates(first)) * 3]
    unprepared = copy.deepcopy(workload)
    lower_workload(workload)
    invocations = workload.invocations
    for a in invocations:
        for b in invocations:
            assert (lowered_trace(a, 4) is lowered_trace(b, 4)) == \
                (a == b), (a, b)
    partner = build(partner, rounds=rounds)[0]
    for name, make in MAKERS.items():
        if name.startswith("POLICY static:"):
            continue
        reference = run(make, (copy.deepcopy(unprepared), partner, {}),
                        PER_OP)
        for combo in COMBOS:
            assert run(make, (workload, partner, {}), combo) == reference, \
                "{} differs from per-op with rungs {}".format(name, combo)


# -- teeth: a faulted guard must fail the oracle ------------------------------

def _skew_guard(method, blocks_of):
    """Fault ``AccL0XController.<method>``: show its cover check every
    live lease ``LTIME_SKEW`` cycles later than it is, then restore it
    (the ``phase-guard-skip`` mutation's trick, at class level)."""
    def fault(monkeypatch):
        real = getattr(AccL0XController, method)

        def skewed(self, plan, *args):
            lines = {id(line): line
                     for line in map(self.cache._lines.get, blocks_of(plan))
                     if line is not None and line.lease is not None}
            for line in lines.values():
                line.lease += LTIME_SKEW
            try:
                return real(self, plan, *args)
            finally:
                for line in lines.values():
                    line.lease -= LTIME_SKEW

        monkeypatch.setattr(AccL0XController, method, skewed)
    return fault


FAULTS = {
    "phase-guard-skew": _skew_guard("phase_quote", lambda phase: [
        info[0] for info in phase.block_info]),
    "batch-guard-skew": _skew_guard("phase_quote_batch",
                                    lambda window: window.row_blocks),
    "replay-accepts-all": lambda monkeypatch: monkeypatch.setattr(
        AccTileReplayAdapter, "matches", lambda self, recording, t0: True),
}


#: The systems that run the faulted ACC controllers.
ACC_MAKERS = {name: make for name, make in MAKERS.items()
              if "fusion" in name.lower()}


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_oracle_catches_a_faulted_guard(fault, monkeypatch):
    FAULTS[fault](monkeypatch)
    faulted = settings(derandomize=True, database=None, max_examples=30,
                       deadline=None, phases=[Phase.generate],
                       report_multiple_bugs=False)(
        given(cases(), st.sampled_from(COMBOS))(
            lambda case, combo: check(case, (ALL_ON, combo), ACC_MAKERS)))
    with pytest.raises(AssertionError, match="differs from per-op"):
        faulted()


# -- targeted rung behaviour --------------------------------------------------

def _steady_workload(iterations=8):
    """A deterministic streaming loop that reaches replay steady state."""
    segs = tuple((i, i % 2 == 0, 8) for i in range(8))
    return build(((250, segs), (250, tuple(reversed(segs)))),
                 rounds=iterations)[0]


def _fusion(workload, combo=ALL_ON):
    """Run FUSION on ``workload``; returns ``(system, fingerprint)``."""
    system = SYSTEMS["FUSION"](CONFIG, workload)
    with rungs(combo):
        return system, fingerprint(system.run())


def test_replay_engine_actually_hits():
    """Anti-vacuity: on a steady iterated workload the FUSION engine
    must serve invocations from the replay cache, not just fall back."""
    engine = _fusion(_steady_workload())[0].replay_engine
    assert engine is not None
    assert engine.hits > 0, "replay guard never matched a recording"


def test_replay_rung_follows_the_selector():
    """POLICY under a static selector takes the rung like the preset it
    names; a learning selector (cross-invocation state) never does."""
    static = SYSTEMS["POLICY"](CONFIG, _steady_workload())
    bandit = MAKERS["POLICY bandit"](_steady_workload(), None)
    with rungs():
        static.run()
        bandit.run()
    assert static.replay_engine is not None
    assert static.replay_engine.hits > 0
    assert bandit.replay_engine is None


def test_forced_decline_paths_stay_bit_identical(monkeypatch):
    """Tiny store/disable budgets force the decline and key-disable
    paths; results must stay bit-identical while misses accumulate."""
    monkeypatch.setattr(replay_mod, "MAX_RECORDINGS_PER_KEY", 1)
    monkeypatch.setattr(replay_mod, "DISABLE_AFTER_MISSES", 1)
    workload = _steady_workload()
    system, replayed = _fusion(workload)
    assert replayed == _fusion(workload, PER_OP)[1]
    # The constrained store must have declined at least once (the cold
    # recording can never match the warm second iteration).
    assert system.replay_engine.misses > 0


def test_lease_expiry_mid_span_declines_cleanly():
    """Leases shorter than the invocation span: recorded lease fields
    sit in the PAST/exact classes and every iteration must still agree
    with the per-op path bit for bit."""
    segs = tuple((i, True, 12) for i in range(6))
    workload = build(((3, segs),), rounds=6)[0]
    assert _fusion(workload)[1] == _fusion(workload, PER_OP)[1]


def test_numpy_less_fallback_warns_once_and_matches(monkeypatch):
    """With numpy masked out, the vector rung must degrade to the phase
    engine after exactly one RuntimeWarning, and the results must still
    match the rung-on run bit for bit."""
    workload = build(((250, ((0, False, 8), (1, True, 8),
                             (0, False, 8))),))[0]
    reference = _fusion(workload)[1]
    monkeypatch.setattr(vector_mod, "HAVE_NUMPY", False)
    monkeypatch.setattr(core_mod, "_warned_no_numpy", False)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        degraded, again = _fusion(workload)[1], _fusion(workload)[1]
    runtime = [w for w in caught if issubclass(w.category, RuntimeWarning)
               and "numpy" in str(w.message)]
    assert len(runtime) == 1, "warn-once contract broken"
    assert degraded == reference and again == reference


def test_numpy_less_silent_when_rung_disabled(monkeypatch):
    """No numpy *and* no request for the rung: nothing to warn about."""
    monkeypatch.setattr(vector_mod, "HAVE_NUMPY", False)
    monkeypatch.setattr(core_mod, "_warned_no_numpy", False)
    workload = build(((250, ((0, False, 6), (1, False, 6))),))[0]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _fusion(workload, (True, True, False, True))
    assert not [w for w in caught
                if issubclass(w.category, RuntimeWarning)]


# -- slow tier: the real Fig-6 small grid -------------------------------------

@pytest.mark.slow
def test_fig6_small_grid_per_op_matches_reference(monkeypatch):
    """The 21 fig6-small points, every rung off, against the per-point
    fingerprints ``perfbench/reference.json`` pins."""
    monkeypatch.syspath_prepend(
        str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))
    from common import fingerprint as point_fingerprint, load_reference
    from points import plan, prepare, simulate

    grid = plan("fig6-small", 1)
    with rungs(PER_OP):
        results = simulate(grid, prepare(grid))
    expected = load_reference()["fig6-small"]["points"]
    assert len(results) == 21
    for key, result in results.items():
        assert not isinstance(result, BaseException), (key, result)
        assert point_fingerprint(result) == expected[key], key
