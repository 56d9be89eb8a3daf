"""The fixed-function accelerator cycle model.

The paper (Section 4) drives a constrained dynamic data-dependence graph
"on a cycle-by-cycle [basis], generating any requisite memory operations
in a cycle and stalling the appropriate operations as necessary", with an
aggressive non-blocking memory interface.  This model reproduces that
behaviour at trace granularity:

* compute chunks advance time by their dataflow-limited latency
  (activity / ``ISSUE_WIDTH``);
* memory operations overlap up to the function's memory-level
  parallelism (MLP), with MSHR-style merging of accesses to a block
  whose fill is already outstanding;
* the memory system is one *port* object passed to :meth:`AxcCore.run`,
  so one core model serves every system design.

The port is the controller itself: the FUSION L0X, the SHARED L1X, a
SCRATCH scratchpad model or IDEAL's
:class:`~repro.coherence.strategy.FreeMemory`.  It offers ``access(op,
now) -> latency`` and either or both of the fast entry points
``phase_quote`` and ``phase_quote_batch`` (below, and
``docs/simulator.md`` §9).  The core reads each once per call; a
missing one means the port does not offer that rung.  One class
attribute completes a port: ``issue_interval``, the cycles between
memory-op issues (1 when absent; 1.5 when every op crosses the SHARED
tile switch).  Every port is served the same compiled plan: whether a
window is steady is the port's own run-time decision.

Hot path: the core never walks the raw heterogeneous ``trace.ops`` list.
:mod:`repro.workloads.lowering` compiles each trace once into a flat
stream of ``(mem_op, block, count)`` / ``(None, latency, 1)`` tuples —
adjacent compute ops pre-fused, line addresses pre-aligned, consecutive
same-line same-kind memory ops grouped into *access runs* — and one
issue loop, :meth:`AxcCore._interpret`, interprets that stream with no
per-op type dispatch.  :meth:`AxcCore.run` drives it over whole
windows; :meth:`AxcCore.iter_run` (generator, for the pipelined
scheduler) drives it one op at a time.  Both are pinned bit-identical
to the legacy interpreter by ``tests/test_golden_full.py``.

Steady-state phases: the phase compiler (:mod:`repro.workloads.phases`)
partitions the stream into windows that are steady-state *candidates*,
a single same-line run being the smallest.  When the port offers
``phase_quote(phase, now, horizon, interval)``, each candidate is
offered to the protocol controller as a whole (``horizon`` is ``max(now,
max(outstanding))``, an upper bound for lease guards): a non-``None``
quote means every op of the phase was served and accounted in one
protocol step (bulk phase ledger, exact LRU advance), and the core
advances its live timeline state past the phase: in closed form
(:meth:`~repro.workloads.phases.Phase.advance`) when one applies, else
through the issue loop at the quoted latencies, with no protocol calls.
A declined quote serves the window per-op: the fallback ladder of
``docs/simulator.md`` §10.  ``STEADY_PHASES`` (read at call time)
toggles the path for equivalence testing, and ``COALESCE_RUNS`` the
one-step phases alone (off: they are served per-op).
``phase_quote_batch`` sits one rung higher (``VECTOR_PHASES``, numpy
only): the port guards and accounts a whole window of consecutive
phases in one pass, and the remaining entries of a partly accepted
window drop down the ladder.

Energy: Aladdin-style activity counts are charged per compute chunk.
"""

import heapq
import warnings

from ..energy.accel_energy import INVOCATION_OVERHEAD_PJ, compute_energy_pj
from ..workloads import vector as vector_mod
from ..workloads.lowering import lowered_trace
from ..workloads.phases import phase_plan
from ..workloads.vector import vector_plan

#: Global enable for quoting one-step phases (a lone same-line run);
#: off, the core serves them per-op.  The differential oracle
#: (``tests/test_oracle.py``) flips it like the other rung flags.
COALESCE_RUNS = True

#: Global enable for the steady-state phase fast path; the differential
#: oracle (``tests/test_oracle.py``) flips the module attribute.
STEADY_PHASES = True

#: Global enable for the vectorised phase-window fast path (the fifth
#: rung: whole sequences of lease-stable phases batch-quoted and
#: applied in one pass).  Same toggle discipline as ``STEADY_PHASES``;
#: requires numpy — on a numpy-less install the rung silently (after
#: one warning) degrades to the per-phase path, so results never
#: depend on whether numpy is importable.
VECTOR_PHASES = True

_warned_no_numpy = False


def _vector_available():
    """True when the vector rung can run; warns once when numpy is
    missing but ``VECTOR_PHASES`` asked for it."""
    global _warned_no_numpy
    if vector_mod.HAVE_NUMPY:
        return True
    if not _warned_no_numpy:
        _warned_no_numpy = True
        warnings.warn(
            "VECTOR_PHASES requested but numpy is not installed; "
            "falling back to the steady-state phase rung",
            RuntimeWarning, stacklevel=3)
    return False


class AxcCore:
    """One fixed-function accelerator's datapath and memory interface."""

    def __init__(self, axc_id, stats):
        self.axc_id = axc_id
        self.stats = stats.scope("axc")
        self._core_stats = stats.scope("axc.core{}".format(axc_id))
        # Bound counter handles: dotted names resolved once, not per op.
        self._add_mlp_stall = self._core_stats.counter("mlp_stall_cycles")
        self._add_mshr_merge = self._core_stats.counter("mshr_merges")

    def run(self, trace, start_time, port, mlp, charge_invocation=True):
        """Execute one invocation to completion; returns the end time.

        Args:
            trace: the :class:`FunctionTrace` to execute.
            start_time: tile clock at invocation start.
            port: the memory system — one controller offering ``access``
                and either or both of ``phase_quote`` and
                ``phase_quote_batch`` (see the module docstring).
            mlp: maximum outstanding memory operations.
            charge_invocation: charge the fixed per-invocation
                control/sequencing energy.  SCRATCH passes False for the
                continuation windows of one invocation — the datapath
                stays configured across DMA windows.
        """
        mlp = max(1, int(mlp))
        lowered = lowered_trace(trace)
        outstanding = []            # heap of completion times
        fill_time_of = {}           # block -> outstanding completion
        access = port.access
        interval = getattr(port, "issue_interval", 1)
        coalesce = COALESCE_RUNS
        phase_quote = getattr(port, "phase_quote", None) \
            if STEADY_PHASES else None
        plan = None
        if phase_quote is not None:
            plan = phase_plan(trace)
            if not plan.num_phases:
                plan = None
        vplan = None
        quote_batch = getattr(port, "phase_quote_batch", None)
        if plan is not None and quote_batch is not None \
                and VECTOR_PHASES and _vector_available():
            vplan = vector_plan(trace)
            if vplan is not None and not vplan.windows:
                vplan = None
        if plan is None:
            now = self._interpret(
                lowered.steps, start_time, outstanding, fill_time_of,
                access, mlp, interval)
        else:
            now = start_time
            entries = plan.entries
            num_entries = len(entries)
            window_at = vplan.window_at if vplan is not None else None
            index = 0
            while index < num_entries:
                phase, steps = entries[index]
                if phase is not None \
                        and (coalesce or len(steps) > 1):
                    if window_at is not None:
                        window = window_at.get(index)
                        if window is not None:
                            accepted, now = self._run_window(
                                window, quote_batch, now, outstanding,
                                fill_time_of, mlp, interval)
                            if accepted:
                                # The accepted prefix is served and
                                # applied; the remaining entries of the
                                # window (and everything after) drop
                                # down the per-phase ladder unchanged.
                                index += accepted
                                continue
                    quoted = phase_quote(phase, now,
                                         max([now, *outstanding]), interval)
                    if quoted is not None:
                        load_lat, store_lat = quoted
                        now = self._apply_phase(
                            phase, load_lat, store_lat, now,
                            outstanding, fill_time_of, mlp, interval)
                        index += 1
                        continue
                now = self._interpret(
                    steps, now, outstanding, fill_time_of, access, mlp,
                    interval)
                index += 1
        if outstanding:
            now = max(now, max(outstanding))
        self._record(lowered, now - start_time, charge_invocation)
        return now

    def _apply_phase(self, phase, load_lat, store_lat, now, outstanding,
                     fill_time_of, mlp, interval):
        """Apply one accepted phase's issue timeline; returns ``now``.

        Retire fills that have arrived — exactly what the per-op path's
        next access would do first — then let the phase's closed form
        advance the live state, or, outside its regimes, run the per-op
        loop over the phase's steps at the quoted latencies, which
        charges MLP stalls and MSHR merges exactly as per-op service
        would.
        """
        heappop = heapq.heappop
        while outstanding and outstanding[0] <= now:
            heappop(outstanding)
        exit_now = phase.advance(now, load_lat, store_lat, mlp, interval,
                                 outstanding, fill_time_of)
        if exit_now is not None:
            return exit_now
        return self._interpret(
            phase.steps, now, outstanding, fill_time_of,
            lambda op, _now: store_lat if op.is_store else load_lat,
            mlp, interval)

    def _run_window(self, window, batch_fn, now, outstanding,
                    fill_time_of, mlp, interval):
        """Offer a whole phase window to the batched quote; returns
        ``(accepted_phases, now)``.

        On a non-empty accepted prefix the controller has already
        served and accounted every op of those phases; this applies
        their cycle timelines.  When every accepted phase is in the
        stall-free closed-form regime — per-op latency at most the
        issue interval, entry heap below the MLP limit, no pending
        fill of any window line — the whole prefix collapses to one
        array-derived total (``cum_mem_ops * interval + cum_compute``):
        bit-identical to chaining the per-phase closed forms, because
        each phase's closed form neither stalls, merges, writes fills,
        nor admits new heap entries, so the conditions persist.
        Otherwise each accepted phase is applied in order, exactly as
        the per-phase rung would.
        """
        quoted = batch_fn(window, now, max([now, *outstanding]), interval)
        if quoted is None:
            return 0, now
        accepted, load_lat, store_lat = quoted
        heappop = heapq.heappop
        while outstanding and outstanding[0] <= now:
            heappop(outstanding)
        bulk = len(outstanding) < mlp \
            and (not window.cum_loads[accepted] or load_lat <= interval) \
            and (not window.cum_stores[accepted]
                 or store_lat <= interval)
        if bulk and fill_time_of:
            pending = fill_time_of.get
            row_blocks = window.row_blocks
            for i in range(window.row_start[accepted]):
                fill = pending(row_blocks[i])
                if fill is not None and fill > now:
                    bulk = False
                    break
        if bulk:
            now += window.prefix_cycles(accepted, interval)
        else:
            phases = window.phases
            for j in range(accepted):
                now = self._apply_phase(
                    phases[j], load_lat, store_lat, now, outstanding,
                    fill_time_of, mlp, interval)
        return accepted, now

    def _interpret(self, steps, now, outstanding, fill_time_of, access,
                   mlp, interval):
        """The core's one issue loop: interpret a window of lowered
        steps op by op through ``access``, mutating the timeline state
        in place; returns ``now``."""
        heappush = heapq.heappush
        heappop = heapq.heappop
        pending_fill = fill_time_of.get
        add_mlp_stall = self._add_mlp_stall
        add_mshr_merge = self._add_mshr_merge
        for op, arg, count in steps:
            if op is None:          # fused compute chunk
                now += arg
                continue
            while count:
                # Retire fills that have arrived.
                while outstanding and outstanding[0] <= now:
                    heappop(outstanding)
                # MLP limit: wait for the earliest outstanding fill.
                if len(outstanding) >= mlp:
                    earliest = heappop(outstanding)
                    if earliest > now:
                        add_mlp_stall(earliest - now)
                        now = earliest
                latency = access(op, now)
                completion = now + latency
                # MSHR merge: an access cannot complete before an
                # already-outstanding fill of the same block.
                pending = pending_fill(arg)
                if pending is not None and pending > completion:
                    completion = pending
                    add_mshr_merge()
                fill_time_of[arg] = completion
                heappush(outstanding, completion)
                now += interval  # issue slot(s)
                count -= 1
        return now

    def iter_run(self, trace, start_time, port, mlp,
                 charge_invocation=True):
        """Generator form of :meth:`run`: steps :meth:`_interpret` one
        memory op at a time and yields the local clock after each issue,
        so a scheduler can interleave several invocations on one tile
        (pipelined execution).  The generator's return value is the
        completion time.

        Every op is served through ``access`` here: between yields
        another invocation may mutate shared protocol state (evict a
        line, expire a lease), so no phase guard evaluated at the start
        of a window could remain valid across its span, and only the
        port's ``access`` and ``issue_interval`` are used.
        """
        mlp = max(1, int(mlp))
        lowered = lowered_trace(trace)
        access = port.access
        interval = getattr(port, "issue_interval", 1)
        now = start_time
        outstanding = []
        fill_time_of = {}
        interpret = self._interpret
        for op, arg, count in lowered.steps:
            if op is None:
                now += arg
                continue
            single = ((op, arg, 1),)
            for _ in range(count):
                now = interpret(single, now, outstanding, fill_time_of,
                                access, mlp, interval)
                yield now
        if outstanding:
            now = max(now, max(outstanding))
        self._record(lowered, now - start_time, charge_invocation)
        return now

    def _record(self, lowered, cycles, charge_invocation=True):
        energy = compute_energy_pj(lowered.int_ops, lowered.fp_ops)
        if charge_invocation:
            energy += INVOCATION_OVERHEAD_PJ
            self.stats.add("invocations")
        self.stats.add("compute.energy_pj", energy)
        self._core_stats.add("cycles", cycles)
        self._core_stats.add("mem_ops", lowered.mem_ops)
        self._core_stats.add("int_ops", lowered.int_ops)
        self._core_stats.add("fp_ops", lowered.fp_ops)
