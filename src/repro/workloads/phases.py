"""Steady-state phase compiler: the layer between lowering and the core.

The Fig-6 kernels spend almost all of their accelerator time in *steady
state*: the same small set of lines is hit over and over under live
leases, with no expiry, no upgrade, no conflict miss and no sharer
activity.  Serving those ops one protocol call at a time is what the
per-op path of :class:`repro.accel.core.AxcCore` pays.

This module compiles a :class:`~repro.workloads.lowering.LoweredTrace`
into a :class:`PhasePlan`: the run stream is partitioned into *phases*
— maximal windows of steps that are steady-state **candidates** (every
line was already touched earlier in the trace, every store goes to a
line already in write state, no subclassed op types), or single
same-line runs outside such a window — plus fallback gaps covering
everything else (the head op of a first touch or upgrade, odd op types,
lone ops).  A phase carries closed-form per-phase aggregates:

* ``event_seq`` — the program-ordered ``(is_store, count)`` event runs,
  from which a controller's phase ledger
  (:meth:`repro.common.stats.StatsRegistry.phase_ledger`) charges the
  phase's whole counter/energy delta bit-identically to the per-op
  path;
* ``block_info`` — per distinct line: load/store counts, the kind of
  its first access, and the ordinal of its *last* access, from which a
  controller validates the guard and applies the exact LRU advance
  (:meth:`repro.mem.cache.SetAssocCache.touch_phase`), and the issue
  offset of its first access, from which :meth:`Phase.advance` proves
  that a pending fill cannot merge.

An accepted phase's issue timeline is applied on the core's live state:
:meth:`Phase.advance` covers the two regimes with a closed form (every
latency at most the issue interval, or one uniform latency above it),
and the core's own per-op loop, at the quoted latencies, covers the
rest.

Whether a phase actually *is* steady state is decided at run time by the
controller's ``phase_quote`` hook — residency, live leases covering the
phase's whole span, write states, write-through copies — so the compiler
stays protocol-agnostic, and a declined quote only costs speed: the core
serves exactly that window on the per-op path (the fallback ladder,
§10 of the docs).

Each trace memoises its one plan on itself, like its lowered form, and
every port is served that plan.  It lives as long as the prepared
workload that holds the trace, and
:func:`repro.workloads.lowering.invalidate_lowered` evicts it together
with the lowered stream.
"""

import heapq

from ..common.types import MemOp
from .lowering import lowered_trace

#: Attribute used to memoise the compiled plan on a trace object.
_PLAN_ATTR = "_phase_plan"

#: A phase never spans more memory ops than this.  One guard failure
#: (an evicted line, a lease that ends inside the window) declines the
#: whole window, so this caps the blast radius of one fallback; the
#: guard itself decides at run time whether a window is steady.
MAX_PHASE_MEM_OPS = 1024

#: Candidate windows with fewer memory ops than this are not quoted
#: whole: a quote costs a guard scan plus a ledger flush, which a
#: window of a few lone ops does not repay.  Each run of two or more
#: ops in such a window is still quoted as its own one-run phase.
MIN_PHASE_MEM_OPS = 4


class Phase:
    """One steady-state candidate window of a lowered trace."""

    __slots__ = ("steps", "mem_ops", "compute_cycles", "num_loads",
                 "num_stores", "event_seq", "block_info")

    def __init__(self, steps, mem_ops, compute_cycles, num_loads,
                 num_stores, event_seq, block_info):
        #: The lowered steps this phase covers (the core interprets
        #: exactly these on a declined quote, or at the quoted
        #: latencies when no closed form applies).
        self.steps = steps
        self.mem_ops = mem_ops
        self.compute_cycles = compute_cycles
        self.num_loads = num_loads
        self.num_stores = num_stores
        #: Program-ordered ``(is_store, count)`` event runs — the input
        #: to a controller's phase ledger.
        self.event_seq = event_seq
        #: Per distinct line, in first-touch order:
        #: ``(block, loads, stores, first_is_store, last_pos,
        #: first_mem, first_comp)`` where ``last_pos`` is the 1-based
        #: ordinal of the line's last access among the phase's
        #: ``mem_ops`` and ``first_mem`` / ``first_comp`` count the
        #: memory ops and fused compute cycles *preceding* its first
        #: access — ``first_mem * interval + first_comp`` is the exact
        #: stall-free issue offset of that access, which is what lets
        #: :meth:`advance`'s transparency test bound a pending entry fill
        #: against the first completion that could merge with it.
        self.block_info = block_info

    def advance(self, now, load_lat, store_lat, mlp, interval, outstanding,
                fill_time_of):
        """Apply this phase's issue timeline in closed form on the core's
        live state; returns the exit clock, or ``None`` when only the
        per-op loop is exact.

        ``outstanding`` (the completion heap, drained to ``now``) and
        ``fill_time_of`` are the core's own.  Completions at or below
        the exit clock are left out of both: the per-op loop drains
        them before they could matter, and a fill at or below the clock
        never merges.  Every simulator time is dyadic (integer
        latencies, issue intervals of 1 or 1.5), so the closed forms
        are bit-identical to the per-op loop at the quoted latencies.
        """
        num_loads = self.num_loads
        num_stores = self.num_stores
        min_lat = load_lat if num_loads else store_lat
        if num_loads and num_stores and store_lat < min_lat:
            min_lat = store_lat
        if fill_time_of:
            # A pending entry fill can only merge with the *first*
            # completion of its own line — later completions are even
            # larger — and in every stall-free regime that completion
            # lands exactly at ``first_mem * interval + first_comp``
            # plus the op's latency (at least ``min_lat``).  A fill at
            # or below that instant can therefore never merge: it is
            # timing-transparent and simply gets overwritten by the
            # phase's own completions.
            pending = fill_time_of.get
            for block, _, _, _, _, first_mem, first_comp in self.block_info:
                fill = pending(block)
                if fill is not None and fill - now > \
                        first_mem * interval + first_comp + min_lat:
                    return None
        cycles = self.mem_ops * interval + self.compute_cycles
        if (len(outstanding) < mlp
                and (not num_loads or load_lat <= interval)
                and (not num_stores or store_lat <= interval)):
            # Stall-free: with every per-op latency at most the issue
            # interval, each phase completion retires before the next
            # issue, so the heap never holds more than the (shrinking)
            # entry residue plus one live fill — below the MLP limit
            # throughout, hence no stalls; a block's pending fill is
            # always its previous completion, already in the past,
            # hence no merges; and every phase completion is at or
            # below the exit clock, so nothing is written.
            return now + cycles
        if interval > 0:
            return self._uniform_closed_form(
                now, load_lat, store_lat, mlp, interval, outstanding,
                fill_time_of, cycles)
        return None

    def _uniform_closed_form(self, now, load_lat, store_lat, mlp, interval,
                             outstanding, fill_time_of, cycles):
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
        tail pushes them and records each line's last one.  Returns
        ``None`` when mixed latencies or the stall guard demand the
        per-op loop.
        """
        lat = load_lat if self.num_loads else store_lat
        if self.num_loads and self.num_stores and store_lat != load_lat:
            return None
        live_spacings = 0
        while (live_spacings + 1) * interval < lat:
            live_spacings += 1
        for j in range(len(outstanding) + live_spacings + 2):
            earliest_issue = now + j * interval
            occupancy = min(j, live_spacings)
            for entry in outstanding:
                if entry > earliest_issue:
                    occupancy += 1
            if occupancy >= mlp:
                return None
        exit_now = now + cycles
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
                fill_time_of[arg] = exit_now + room - interval
            m = 1
            while m <= count and m * interval < room:
                heapq.heappush(outstanding, exit_now + room - m * interval)
                m += 1
            after += count * interval
            if after + interval >= lat:
                break
        return exit_now

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
    """A phase of one run: ``count`` ops of ``op`` on its line.

    How :func:`compile_plan` emits a run that sits outside a full-size
    window, and how the model checker issues a run event, so both go
    through the one ``phase_quote`` guard.
    """
    return build_phase([(op, op.block, count)])


def compile_plan(lowered):
    """Partition a lowered step stream into a :class:`PhasePlan`.

    Compile-time eligibility is *structural* (what can be proven from
    the trace alone); the run-time guard in each controller's
    ``phase_quote`` proves the rest:

    * a line's **first** touch in the trace is split: its head op is a
      fallback step (on a cold cache it must miss), and the rest of its
      run is eligible and opens the next window;
    * the first **store** to a line so far only loaded is split the same
      way: its head must upgrade (acquire a write epoch) under ACC;
    * subclassed op types always take the per-op path (unknown
      side effects), exactly as lowering never coalesces them;
    * phases are capped at :data:`MAX_PHASE_MEM_OPS` ops (read at
      call time);
    * a candidate window shorter than :data:`MIN_PHASE_MEM_OPS` mem ops
      is not quoted whole: each of its runs of two or more ops becomes
      a one-run phase (:func:`single_run_phase`), and its other steps
      fold back into the surrounding fallback gap.

    So every phase has at least :data:`MIN_PHASE_MEM_OPS` mem ops or is
    one run, and the plan's steps are ``lowered.steps`` with each split
    head cut off its run.
    """
    max_ops = MAX_PHASE_MEM_OPS
    entries = []
    num_phases = 0
    phase_ops = 0
    fallback = []
    # Open-window accumulators: the same aggregates ``build_phase``
    # derives, filled in the one pass that decides eligibility so a
    # closing window constructs its Phase without re-walking its steps.
    current = []
    cur_mem_ops = 0
    cur_compute = 0
    cur_loads = 0
    cur_stores = 0
    cur_events = []
    cur_info = {}
    cur_order = []
    touched = set()
    written = set()

    def emit(phase):
        nonlocal num_phases, phase_ops
        if fallback:
            entries.append((None, tuple(fallback)))
            del fallback[:]
        entries.append((phase, phase.steps))
        num_phases += 1
        phase_ops += phase.mem_ops

    def close_current():
        nonlocal current, cur_mem_ops, cur_compute, cur_loads, \
            cur_stores, cur_events, cur_info, cur_order
        if cur_mem_ops >= MIN_PHASE_MEM_OPS:
            emit(Phase(
                tuple(current), cur_mem_ops, cur_compute, cur_loads,
                cur_stores,
                tuple((is_store, count)
                      for is_store, count in cur_events),
                tuple((block, record[0], record[1], record[2],
                       record[3], record[4], record[5])
                      for block, record in
                      ((block, cur_info[block]) for block in cur_order))))
        else:
            for step in current:
                if step[2] > 1:
                    emit(single_run_phase(step[0], step[2]))
                else:
                    fallback.append(step)
        current = []
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
            # Fused compute: always eligible.
            current.append(step)
            cur_compute += arg
            continue
        block = arg
        is_store = op.is_store
        if type(op) is not MemOp:
            touched.add(block)
            if is_store:
                written.add(block)
            close_current()
            fallback.append(step)
            continue
        if block not in touched or (is_store and block not in written):
            # Split: the head op falls back, the tail is eligible.
            touched.add(block)
            if is_store:
                written.add(block)
            close_current()
            fallback.append((op, block, 1))
            count -= 1
            if not count:
                continue
            step = (op, block, count)
        if cur_mem_ops and cur_mem_ops + count > max_ops:
            close_current()
        current.append(step)
        cur_mem_ops += count
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


def phase_plan(trace):
    """Return the memoised :class:`PhasePlan` of ``trace``.

    One plan serves every port: whether a window is steady (residency,
    lease cover, write states) is the controller's ``phase_quote``
    decision at run time, so nothing here depends on the port.  The
    plan is cached in the trace's ``__dict__``, the same memo pattern
    as the lowered form, so it lives as long as the prepared workload
    and is evicted with it by
    :func:`repro.workloads.lowering.invalidate_lowered`.
    """
    plan = trace.__dict__.get(_PLAN_ATTR)
    if plan is None:
        plan = trace.__dict__[_PLAN_ATTR] = compile_plan(
            lowered_trace(trace))
    return plan
