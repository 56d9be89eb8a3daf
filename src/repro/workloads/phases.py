"""Steady-state phase compiler: the layer between lowering and the core.

The Fig-6 kernels spend almost all of their accelerator time in *steady
state*: the same small set of lines is hit over and over under live
leases, with no expiry, no upgrade, no conflict miss and no sharer
activity.  The run-coalescing fast path (``docs/simulator.md`` §9)
already collapses each same-line run into one protocol step, but it
still pays one Python-level protocol call per run plus a per-op heap
replay in :class:`repro.accel.core.AxcCore`.

This module compiles a :class:`~repro.workloads.lowering.LoweredTrace`
one level further, into a :class:`PhasePlan`: the run stream is
partitioned into *phases* — maximal windows of steps that are
steady-state **candidates** (every line was already touched earlier in
the trace, every store goes to a line already in write state, no
subclassed op types) — plus fallback gaps covering everything else
(first touches, upgrades, odd op types).  A phase carries closed-form
per-phase aggregates:

* ``event_seq`` — the program-ordered ``(is_store, count)`` event runs,
  from which a controller builds one bulk *sequence flusher*
  (:meth:`repro.common.stats.StatsRegistry.sequence_flusher`) charging
  the phase's whole counter/energy delta bit-identically to the per-op
  path;
* ``block_info`` — per distinct line: load/store counts, the kind of
  its first access, and the ordinal of its *last* access, from which a
  controller validates the guard and applies the exact LRU advance
  (:meth:`repro.mem.cache.SetAssocCache.touch_phase`);
* cached :class:`PhaseTimeline` objects — the core's issue timeline
  (cycle advance, MLP stalls, MSHR merges, exit-heap residue) for a
  given ``(load latency, store latency, mlp, issue interval)``,
  computed once per quoted latency signature and then applied in O(1).

Whether a phase actually *is* steady state is decided at run time by the
controller's ``phase_quote`` hook — residency, live leases covering the
phase's whole span, write states, write-through copies — so the compiler
stays protocol-agnostic, and a declined quote only costs speed: the core
falls back to the per-run coalesced path, and below that the per-op
path, for exactly that window (the fallback ladder, §10 of the docs).

Plans are memoised on the trace object (keyed by issue width, like
lowered forms), so they live as long as the prepared workload that
holds the trace; :func:`repro.workloads.lowering.invalidate_lowered`
evicts them together with the lowered stream.
"""

import heapq

from ..common.types import MemOp
from .lowering import lowered_trace

#: Attribute used to memoise compiled plans on a trace object.
_PLAN_ATTR = "_phase_plans"

#: A *leased* phase never spans more memory ops than this: the longer
#: the window, the harder ACC's lease-cover guard is to satisfy, so
#: past this point extra length only costs declines.
MAX_PHASE_MEM_OPS = 128

#: An *unleased* phase (SHARED / SCRATCH / IDEAL — no lease to expire)
#: can be much longer: the only risk is that a single evicted line
#: declines the whole window, so this caps the blast radius of one
#: fallback rather than any guard's acceptance.
MAX_UNLEASED_PHASE_MEM_OPS = 1024

#: Candidate windows with fewer memory ops than this stay on the
#: coalesced-run path: a quote costs a guard scan plus a ledger flush,
#: which only pays for itself across several runs.
MIN_PHASE_MEM_OPS = 4


class PhaseTimeline:
    """The core-side issue timeline of one phase, relative to its entry.

    Computed by replaying the phase's steps against the *relative* entry
    state the core observed — the outstanding-fill completions and the
    phase lines' pending fills, each expressed as an offset from the
    entry clock (see :meth:`Phase.timeline`).  Because every simulator
    time is a dyadic rational (integer latencies, issue intervals of 1
    or 1.5), relative replay plus an absolute rebase is bit-identical to
    replaying in absolute time, so one cached timeline serves every
    phase entry that presents the same relative state.

    ``cycles`` is the issue-clock advance (the per-op path bumps ``now``
    to the last completion only at invocation end, never mid-trace, so
    the timeline must not either).  ``exit_heap`` and ``fill_residue``
    carry only completions strictly beyond the exit clock: entries at or
    below it would be drained before their values could ever matter.
    """

    __slots__ = ("cycles", "mlp_stall", "mshr_merges", "exit_heap",
                 "fill_residue")

    def __init__(self, cycles, mlp_stall, mshr_merges, exit_heap,
                 fill_residue):
        self.cycles = cycles
        self.mlp_stall = mlp_stall
        self.mshr_merges = mshr_merges
        self.exit_heap = exit_heap
        self.fill_residue = fill_residue

    def __repr__(self):
        return ("PhaseTimeline(cycles={}, stall={}, merges={}, "
                "residue={})".format(self.cycles, self.mlp_stall,
                                     self.mshr_merges,
                                     len(self.fill_residue)))


#: A phase's timeline cache never outgrows this; pathological entry
#: states (never-repeating relative heaps) fall back to uncached replay
#: instead of accumulating unbounded memory.
MAX_TIMELINE_CACHE = 256


class Phase:
    """One steady-state candidate window of a lowered trace."""

    __slots__ = ("steps", "mem_ops", "compute_cycles", "num_loads",
                 "num_stores", "event_seq", "block_info", "_timelines")

    def __init__(self, steps, mem_ops, compute_cycles, num_loads,
                 num_stores, event_seq, block_info):
        #: The lowered steps this phase covers (the fallback ladder
        #: re-interprets exactly these on a declined quote).
        self.steps = steps
        self.mem_ops = mem_ops
        self.compute_cycles = compute_cycles
        self.num_loads = num_loads
        self.num_stores = num_stores
        #: Program-ordered ``(is_store, count)`` event runs — the input
        #: to a controller's per-phase sequence flusher.
        self.event_seq = event_seq
        #: Per distinct line, in first-touch order:
        #: ``(block, loads, stores, first_is_store, last_pos,
        #: first_mem, first_comp)`` where ``last_pos`` is the 1-based
        #: ordinal of the line's last access among the phase's
        #: ``mem_ops`` and ``first_mem`` / ``first_comp`` count the
        #: memory ops and fused compute cycles *preceding* its first
        #: access — ``first_mem * interval + first_comp`` is the exact
        #: stall-free issue offset of that access, which is what lets
        #: the timeline's transparency test bound a pending entry fill
        #: against the first completion that could merge with it.
        self.block_info = block_info
        #: ``(load_lat, store_lat, mlp, interval, rel_heap, rel_fills)
        #: -> PhaseTimeline``.
        self._timelines = {}

    def timeline(self, load_lat, store_lat, mlp, interval, rel_heap=(),
                 rel_fills=()):
        """Return the cached issue timeline for one entry signature.

        ``rel_heap`` is the core's outstanding-completion heap at phase
        entry and ``rel_fills`` the pending fills of this phase's lines,
        both as sorted offsets from the entry clock (only values > 0 can
        affect the replay; the caller prunes the rest).  The replay
        materialises that state, so the cached result is exact for
        *every* entry presenting the same relative signature — in steady
        state, each phase sees one or two signatures per configuration.
        """
        key = (load_lat, store_lat, mlp, interval, rel_heap, rel_fills)
        cached = self._timelines.get(key)
        if cached is None:
            min_lat = load_lat if self.num_loads else store_lat
            if self.num_loads and self.num_stores and store_lat < min_lat:
                min_lat = store_lat
            # A pending entry fill can only merge with the *first*
            # completion of its own line — later completions are even
            # larger — and in every stall-free regime that completion
            # lands exactly at ``first_mem * interval + first_comp``
            # plus the op's latency (at least ``min_lat``).  A fill at
            # or below that instant can therefore never merge: it is
            # timing-transparent and simply gets overwritten by the
            # phase's own completions, which the residue walk tracks.
            fills_transparent = all(
                offset <= first_mem * interval + first_comp + min_lat
                for _, offset, first_mem, first_comp in rel_fills)
            if (fills_transparent and len(rel_heap) < mlp
                    and (not self.num_loads or load_lat <= interval)
                    and (not self.num_stores or store_lat <= interval)):
                # Closed form: with every per-op latency at most the
                # issue interval, each phase completion retires before
                # the next issue, so the heap never holds more than the
                # (shrinking) entry residue plus one live fill — below
                # the MLP limit throughout (the entry residue starts
                # below it), hence no stalls; a block's pending fill is
                # always its previous completion, already in the past,
                # hence no merges; and every phase completion is at or
                # below the exit clock, so only entry-heap stragglers
                # can survive it.
                cycles = self.mem_ops * interval + self.compute_cycles
                cached = PhaseTimeline(
                    cycles, 0, 0,
                    tuple(entry for entry in rel_heap
                          if entry > cycles), ())
            elif fills_transparent and interval > 0:
                # Transparent fills are bounded by their line's first
                # completion, which the phase then overwrites — and the
                # residue walk reports exactly the lines whose *last*
                # completion outlives the exit clock, so the stale
                # entry values the closed form leaves behind match the
                # replay's prune bit for bit.
                cached = self._uniform_closed_form(
                    load_lat, store_lat, mlp, interval, rel_heap)
            if cached is None:
                outstanding = list(rel_heap)
                fill_time_of = {block: offset
                                for block, offset, _, _ in rel_fills}
                exit_now, stall, merges = replay_steps(
                    self.steps, load_lat, store_lat, 0, outstanding,
                    fill_time_of, mlp, interval)
                exit_heap = tuple(sorted(
                    completion for completion in outstanding
                    if completion > exit_now))
                residue = tuple(
                    (block, completion)
                    for block, completion in fill_time_of.items()
                    if completion > exit_now)
                cached = PhaseTimeline(exit_now, stall, merges,
                                       exit_heap, residue)
            if len(self._timelines) < MAX_TIMELINE_CACHE:
                self._timelines[key] = cached
        return cached

    def _uniform_closed_form(self, load_lat, store_lat, mlp, interval,
                             rel_heap):
        """Closed form for a uniform per-op latency above the interval.

        The SHARED L1X regime (and write-through store-only phases):
        every op costs the same latency ``lat > interval``.  Issue times
        then rise by at least ``interval`` per op, so completions are
        strictly monotone — a line's pending fill is always below the
        next completion, hence no MSHR merges.  At most ``K`` phase
        completions are live at any issue (``K`` = number of spacings
        strictly inside ``lat``), so if the entry residue still live at
        each op's earliest possible issue time plus that bound stays
        below the MLP limit, no stalls either: the clock advances by
        exactly ``interval`` per op plus the compute.  Only the last few
        completions outlive the exit clock; a backward walk over the
        tail reconstructs the exit heap and fill residue exactly.
        Returns ``None`` when mixed latencies or the stall guard demand
        the exact replay.
        """
        lat = load_lat if self.num_loads else store_lat
        if self.num_loads and self.num_stores and store_lat != load_lat:
            return None
        live_spacings = 0
        while (live_spacings + 1) * interval < lat:
            live_spacings += 1
        for j in range(len(rel_heap) + live_spacings + 2):
            earliest_issue = j * interval
            occupancy = min(j, live_spacings)
            for entry in rel_heap:
                if entry > earliest_issue:
                    occupancy += 1
            if occupancy >= mlp:
                return None
        cycles = self.mem_ops * interval + self.compute_cycles
        tail = [entry for entry in rel_heap if entry > cycles]
        residue = []
        seen = set()
        after = 0
        for op, arg, count in reversed(self.steps):
            if op is None:
                after += arg
                if after + interval >= lat:
                    break
                continue
            room = lat - after
            if room <= interval:
                break
            if arg not in seen:
                seen.add(arg)
                residue.append((arg, cycles + room - interval))
            m = 1
            while m <= count and m * interval < room:
                tail.append(cycles + room - m * interval)
                m += 1
            after += count * interval
            if after + interval >= lat:
                break
        return PhaseTimeline(cycles, 0, 0, tuple(sorted(tail)),
                             tuple(residue))

    def __repr__(self):
        return "Phase({} steps, {} mem ops, {} blocks)".format(
            len(self.steps), self.mem_ops, len(self.block_info))


class PhasePlan:
    """A lowered trace partitioned into phases and fallback gaps."""

    __slots__ = ("entries", "num_phases", "phase_ops")

    def __init__(self, entries, num_phases, phase_ops):
        #: ``(Phase | None, steps)`` in program order: a phase to quote,
        #: or a fallback gap the core interprets step by step.
        self.entries = entries
        self.num_phases = num_phases
        #: Memory ops inside phases (coverage; the rest is fallback).
        self.phase_ops = phase_ops

    def __repr__(self):
        return "PhasePlan({} entries, {} phases, {} phase ops)".format(
            len(self.entries), self.num_phases, self.phase_ops)


def replay_steps(steps, load_lat, store_lat, now, outstanding,
                 fill_time_of, mlp, interval):
    """Replay ``steps`` against the core's live timeline state.

    The exact per-op issue loop of ``AxcCore.run`` — drains, MLP pops,
    MSHR merges — with the protocol call replaced by the two constant
    latencies a quote established.  Mutates ``outstanding`` and
    ``fill_time_of`` in place; returns ``(now, mlp_stall, merges)``.
    Used both to precompute a :class:`PhaseTimeline` (fresh state) and
    as the exact fallback apply when fills are still outstanding at
    phase entry (live state).
    """
    heappush = heapq.heappush
    heappop = heapq.heappop
    pending_fill = fill_time_of.get
    stall = 0
    merges = 0
    for op, arg, count in steps:
        if op is None:
            now += arg
            continue
        latency = store_lat if op.is_store else load_lat
        for _ in range(count):
            while outstanding and outstanding[0] <= now:
                heappop(outstanding)
            if len(outstanding) >= mlp:
                earliest = heappop(outstanding)
                if earliest > now:
                    stall += earliest - now
                    now = earliest
            completion = now + latency
            pending = pending_fill(arg)
            if pending is not None and pending > completion:
                completion = pending
                merges += 1
            fill_time_of[arg] = completion
            heappush(outstanding, completion)
            now += interval
    return now, stall, merges


def build_phase(steps):
    """Aggregate a window of phase-eligible steps into a :class:`Phase`."""
    mem_ops = 0
    compute_cycles = 0
    num_loads = 0
    num_stores = 0
    event_seq = []
    info = {}
    order = []
    for op, arg, count in steps:
        if op is None:
            compute_cycles += arg
            continue
        is_store = op.is_store
        if is_store:
            num_stores += count
        else:
            num_loads += count
        if event_seq and event_seq[-1][0] == is_store:
            event_seq[-1][1] += count
        else:
            event_seq.append([is_store, count])
        record = info.get(arg)
        if record is None:
            info[arg] = record = [0, 0, is_store, 0, mem_ops,
                                  compute_cycles]
            order.append(arg)
        record[1 if is_store else 0] += count
        mem_ops += count
        record[3] = mem_ops
    block_info = tuple(
        (block, info[block][0], info[block][1], info[block][2],
         info[block][3], info[block][4], info[block][5])
        for block in order)
    return Phase(tuple(steps), mem_ops, compute_cycles, num_loads,
                 num_stores,
                 tuple((is_store, count) for is_store, count in event_seq),
                 block_info)


def single_run_phase(op, count):
    """A one-run phase (used by the model checker's litmus harness)."""
    return build_phase([(op, op.block, count)])


def compile_plan(lowered, lease_time=None):
    """Partition a lowered step stream into a :class:`PhasePlan`.

    Compile-time eligibility is *structural* (what can be proven from
    the trace alone); the run-time guard in each controller's
    ``phase_quote`` proves the rest:

    * a line's **first** touch in the trace is a fallback step — on a
      cold cache it must miss, and its run-tail still coalesces through
      ``access_run``;
    * the first **store** to a line so far only loaded is a fallback
      step — it must upgrade (acquire a write epoch) under ACC;
    * subclassed op types always take the per-op path (unknown
      side effects), exactly as lowering never coalesces them;
    * phases are capped at :data:`MAX_UNLEASED_PHASE_MEM_OPS` ops, and
      — when ``lease_time`` is given — at :data:`MAX_PHASE_MEM_OPS`
      plus an estimated span of an eighth of the lease: the shorter
      the window, the larger the fraction of a line's lease period
      during which ACC's cover guard can say yes (:func:`phase_plan`
      derives that variant from the structural one via
      :func:`_slice_leased` instead of re-scanning);
    * candidate windows shorter than :data:`MIN_PHASE_MEM_OPS` mem ops
      are folded back into the surrounding fallback gap.
    """
    span_cap = None
    max_ops = MAX_UNLEASED_PHASE_MEM_OPS
    if lease_time:
        span_cap = max(MIN_PHASE_MEM_OPS * 4, lease_time // 8)
        max_ops = MAX_PHASE_MEM_OPS
    entries = []
    num_phases = 0
    phase_ops = 0
    fallback = []
    # Open-window accumulators: the same aggregates ``build_phase``
    # derives, filled in the one pass that decides eligibility so a
    # closing window constructs its Phase without re-walking its steps.
    current = []
    current_span = 0
    cur_mem_ops = 0
    cur_compute = 0
    cur_loads = 0
    cur_stores = 0
    cur_events = []
    cur_info = {}
    cur_order = []
    touched = set()
    written = set()

    def close_current():
        nonlocal current, current_span, cur_mem_ops, cur_compute, \
            cur_loads, cur_stores, cur_events, cur_info, cur_order, \
            num_phases, phase_ops
        if cur_mem_ops >= MIN_PHASE_MEM_OPS:
            if fallback:
                entries.append((None, tuple(fallback)))
                del fallback[:]
            phase = Phase(
                tuple(current), cur_mem_ops, cur_compute, cur_loads,
                cur_stores,
                tuple((is_store, count)
                      for is_store, count in cur_events),
                tuple((block, record[0], record[1], record[2],
                       record[3], record[4], record[5])
                      for block, record in
                      ((block, cur_info[block]) for block in cur_order)))
            entries.append((phase, phase.steps))
            num_phases += 1
            phase_ops += cur_mem_ops
        elif current:
            fallback.extend(current)
        current = []
        current_span = 0
        cur_mem_ops = 0
        cur_compute = 0
        cur_loads = 0
        cur_stores = 0
        cur_events = []
        cur_info = {}
        cur_order = []

    for step in lowered.steps:
        op, arg, count = step
        if op is None:
            # Fused compute: always eligible; only its span can close
            # the window.
            if cur_mem_ops and span_cap is not None \
                    and current_span + arg > span_cap:
                close_current()
            current.append(step)
            cur_compute += arg
            current_span += arg
            continue
        if type(op) is MemOp:
            block = arg
            is_store = op.is_store
            if block not in touched:
                touched.add(block)
                if is_store:
                    written.add(block)
                eligible = False
            elif is_store and block not in written:
                written.add(block)
                eligible = False
            else:
                eligible = True
        else:
            touched.add(arg)
            if op.is_store:
                written.add(arg)
            eligible = False
        if not eligible:
            close_current()
            fallback.append(step)
            continue
        span = 2 * count
        if cur_mem_ops and (
                cur_mem_ops + count > max_ops
                or (span_cap is not None
                    and current_span + span > span_cap)):
            close_current()
        current.append(step)
        cur_mem_ops += count
        current_span += span
        if is_store:
            cur_stores += count
        else:
            cur_loads += count
        if cur_events and cur_events[-1][0] == is_store:
            cur_events[-1][1] += count
        else:
            cur_events.append([is_store, count])
        record = cur_info.get(block)
        if record is None:
            cur_info[block] = record = [0, 0, is_store, 0,
                                        cur_mem_ops - count, cur_compute]
            cur_order.append(block)
        record[1 if is_store else 0] += count
        record[3] = cur_mem_ops
    close_current()
    if fallback:
        entries.append((None, tuple(fallback)))
    return PhasePlan(tuple(entries), num_phases, phase_ops)


def _slice_leased(base, lease_time):
    """Derive the lease-capped plan variant from the structural one.

    Eligibility is cap-independent, so the unleased plan's fallback
    gaps transfer verbatim and each unleased phase — whose steps are
    all proven eligible — is merely re-cut under the lease span cap.
    Phases already inside both caps are shared between the variants
    outright (no re-aggregation, no duplicate timeline caches).
    """
    span_cap = max(MIN_PHASE_MEM_OPS * 4, lease_time // 8)
    entries = []
    num_phases = 0
    phase_ops = 0
    fallback = []
    current = []
    current_span = 0
    cur_mem_ops = 0
    cur_compute = 0
    cur_loads = 0
    cur_stores = 0
    cur_events = []
    cur_info = {}
    cur_order = []

    def close_current():
        nonlocal current, current_span, cur_mem_ops, cur_compute, \
            cur_loads, cur_stores, cur_events, cur_info, cur_order, \
            num_phases, phase_ops
        if cur_mem_ops >= MIN_PHASE_MEM_OPS:
            if fallback:
                entries.append((None, tuple(fallback)))
                del fallback[:]
            phase = Phase(
                tuple(current), cur_mem_ops, cur_compute, cur_loads,
                cur_stores,
                tuple((is_store, count)
                      for is_store, count in cur_events),
                tuple((block, record[0], record[1], record[2],
                       record[3], record[4], record[5])
                      for block, record in
                      ((block, cur_info[block]) for block in cur_order)))
            entries.append((phase, phase.steps))
            num_phases += 1
            phase_ops += cur_mem_ops
        elif current:
            fallback.extend(current)
        current = []
        current_span = 0
        cur_mem_ops = 0
        cur_compute = 0
        cur_loads = 0
        cur_stores = 0
        cur_events = []
        cur_info = {}
        cur_order = []

    for phase, steps in base.entries:
        if phase is None:
            fallback.extend(steps)
            continue
        if phase.mem_ops <= MAX_PHASE_MEM_OPS and \
                2 * phase.mem_ops + phase.compute_cycles <= span_cap:
            if fallback:
                entries.append((None, tuple(fallback)))
                del fallback[:]
            entries.append((phase, steps))
            num_phases += 1
            phase_ops += phase.mem_ops
            continue
        for step in steps:
            op, arg, count = step
            if op is None:
                if cur_mem_ops and current_span + arg > span_cap:
                    close_current()
                current.append(step)
                cur_compute += arg
                current_span += arg
                continue
            is_store = op.is_store
            span = 2 * count
            if cur_mem_ops and (
                    cur_mem_ops + count > MAX_PHASE_MEM_OPS
                    or current_span + span > span_cap):
                close_current()
            current.append(step)
            cur_mem_ops += count
            current_span += span
            if is_store:
                cur_stores += count
            else:
                cur_loads += count
            if cur_events and cur_events[-1][0] == is_store:
                cur_events[-1][1] += count
            else:
                cur_events.append([is_store, count])
            record = cur_info.get(arg)
            if record is None:
                cur_info[arg] = record = [0, 0, is_store, 0,
                                          cur_mem_ops - count,
                                          cur_compute]
                cur_order.append(arg)
            record[1 if is_store else 0] += count
            record[3] = cur_mem_ops
        close_current()
    close_current()
    if fallback:
        entries.append((None, tuple(fallback)))
    return PhasePlan(tuple(entries), num_phases, phase_ops)


def phase_plan(trace, issue_width, leased=True):
    """Return the memoised :class:`PhasePlan` of ``trace``.

    Two variants exist per issue width: ``leased`` plans honour the
    trace's lease span cap (ACC's cover guard needs short windows),
    unleased plans use the large structural cap only (SHARED / SCRATCH /
    IDEAL controllers have nothing that expires, so longer windows just
    amortise the per-phase machinery further).  The structural plan is
    compiled from the lowered stream; the leased variant is sliced out
    of it.  Plans are cached in the trace's ``__dict__`` keyed by
    ``(issue_width, leased)`` — the same memo pattern as lowered forms,
    so compiled phases live as long as the prepared workload and are
    evicted together by
    :func:`repro.workloads.lowering.invalidate_lowered`.
    """
    cache = trace.__dict__.get(_PLAN_ATTR)
    if cache is None:
        cache = trace.__dict__[_PLAN_ATTR] = {}
    key = (issue_width, leased)
    plan = cache.get(key)
    if plan is None:
        base = cache.get((issue_width, False))
        if base is None:
            base = compile_plan(lowered_trace(trace, issue_width))
            cache[(issue_width, False)] = base
        if leased:
            lease_time = getattr(trace, "lease_time", None)
            plan = _slice_leased(base, lease_time) if lease_time else base
            cache[key] = plan
        else:
            plan = base
    return plan
