"""The SHARED baseline's tile cache: one L1X shared by all accelerators.

This models the "at-the-core"/coprocessor-dominated designs the paper
compares against [Dyser, Zheng et al.]: every accelerator memory
operation crosses the tile switch to a banked shared L1 cache, which
participates in the host's MESI protocol as an ordinary L1 agent.  There
are no private L0Xs, no leases — just a conventional cache with higher
per-access latency and energy than a small private cache, which is
exactly the tradeoff Lessons 1-3 quantify.
"""

from ..common.types import AccessType
from ..common.units import LINE_SIZE
from ..energy import cacti
from ..mem.banking import BankContention
from ..mem.cache import SetAssocCache
from ..workloads import vector as vector_windows
from .directory import TILE
from .messages import Msg, counter_pairs as msg_counter_pairs, send

#: AXC -> shared L1X switch traversal, one way, cycles.
SWITCH_LATENCY = 1

_BLOCK_MASK = ~(LINE_SIZE - 1)
_STORE = AccessType.STORE

#: Memory-op issue interval in the SHARED design: the request flit and
#: the response flit of every access serialise on the tile switch, so an
#: accelerator cannot quite sustain one L1X access per cycle the way it can
#: against a private scratchpad/L0X.  This is the load-to-use throughput
#: penalty Lessons 1-2 attribute to shared-cache designs.
ISSUE_INTERVAL = 1.5


class SharedL1XController:
    """A MESI-participating shared L1X with no private caches below it;
    the core's memory port in the SHARED design."""

    #: Port constant (:mod:`repro.accel.core`): every op crosses the
    #: tile switch.
    issue_interval = ISSUE_INTERVAL

    def __init__(self, config, host_mem, page_table, stats,
                 agent_name=TILE):
        self.config = config.tile.l1x
        self.host = host_mem
        self.page_table = page_table
        #: Host-directory agent name; distinct per tile when several
        #: coherence strategies coexist in one run.
        self.agent_name = agent_name
        self.stats = stats.scope("l1x")
        self.cache = SetAssocCache(self.config, name="shared_l1x")
        self.banks = (BankContention(self.config.banks, occupancy=1,
                                     stats=self.stats)
                      if config.tile.model_bank_conflicts else None)
        self._read_energy = cacti.cache_access_energy_pj(self.config)
        self._write_energy = cacti.cache_access_energy_pj(
            self.config, is_store=True)
        # Hot-path bindings: counter handles plus the set-index shift/mask
        # (line size and set count are powers of two by config validation).
        self._add_accesses = self.stats.counter("accesses")
        self._add_energy = self.stats.counter("energy_pj")
        self._add_hits = self.stats.counter("hits")
        self._add_misses = self.stats.counter("misses")
        self._set_shift = self.config.line_size.bit_length() - 1
        self._set_mask = self.config.num_sets - 1
        self._base_latency = SWITCH_LATENCY + self.config.hit_latency
        #: Steady-state phase fast path: per-phase translated block
        #: info keyed by the Phase object.
        self._phase_info = {}
        #: Batched-quote state per VectorWindow (the vector rung).
        self._window_info = {}
        self.axc_link = None  # attached by the system (builds flushers)

    @property
    def axc_link(self):
        return self._axc_link

    @axc_link.setter
    def axc_link(self, link):
        """Attach the tile link and prebuild the hit-path flushers.

        One hit performs a fixed set of increments (request message,
        cache access/energy/hit, word-sized response); bundling them
        into one :meth:`StatsRegistry.flusher` serves a whole access in
        a single call, bit-identical to the unbundled sequence.
        """
        self._axc_link = link
        if link is None:
            self._flush_load_hit = None
            self._flush_store_hit = None
            self._charge_phase = None
            return
        registry = self.stats.registry
        qualify = self.stats.qualified
        self._flush_load_hit = registry.flusher(
            msg_counter_pairs(link, Msg.GETS, self.stats, "req")
            + [(qualify("accesses"), 1),
               (qualify("energy_pj"), self._read_energy),
               (qualify("hits"), 1)]
            + msg_counter_pairs(link, Msg.DATA_WORD, self.stats, "resp"))
        self._flush_store_hit = registry.flusher(
            msg_counter_pairs(link, Msg.GETX, self.stats, "req")
            + [(qualify("accesses"), 1),
               (qualify("energy_pj"), self._write_energy),
               (qualify("hits"), 1)]
            + msg_counter_pairs(link, Msg.WT_DATA, self.stats,
                                "store_data"))
        self._charge_phase = registry.phase_ledger(
            self._flush_load_hit.pairs, self._flush_store_hit.pairs)

    def _charge(self, is_store=False):
        self._add_accesses()
        self._add_energy(self._write_energy if is_store else
                         self._read_energy)

    def access(self, op, now):
        """Serve one accelerator operation across the tile switch.

        Every access costs a request message and a word-sized response on
        the AXC<->L1X link — the pull-based overhead the FUSION L0X
        exists to filter (Figure 6c).
        """
        is_store = op.is_store
        pblock = self.page_table.translate(op.addr) & _BLOCK_MASK
        line = self.cache.lookup(pblock)
        if line is not None and self.banks is None:
            # Steady-state hit with no bank contention modelled: one
            # prebuilt flush covers the whole request/access/response
            # increment set.
            if is_store:
                line.dirty = True
                line.state = "M"
                self._flush_store_hit()
            else:
                self._flush_load_hit()
            return self._base_latency + SWITCH_LATENCY
        send(self.axc_link, Msg.GETX if is_store else Msg.GETS,
             self.stats, "req")
        latency = self._base_latency
        if self.banks is not None:
            latency += self.banks.access(
                (pblock >> self._set_shift) & self._set_mask, now)
        self._add_accesses()
        self._add_energy(self._write_energy if is_store else
                         self._read_energy)
        if line is None:
            self._add_misses()
            fill_latency, line = self._fill(pblock, now + latency)
            latency += fill_latency
        else:
            self._add_hits()
        if is_store:
            line.dirty = True
            line.state = "M"
            send(self.axc_link, Msg.WT_DATA, self.stats, "store_data")
        else:
            send(self.axc_link, Msg.DATA_WORD, self.stats, "resp")
        return latency + SWITCH_LATENCY

    def phase_quote(self, phase, now, horizon, interval):
        """Serve a whole steady-state phase in one protocol step.

        Guard: bank contention not modelled (the contention model
        observes every access) and every (physical) line of the phase
        resident — residency alone guarantees the per-op expansion
        would be all hits (there are no leases to expire here, and the
        phase is the only tile activity during its span).  On success
        the phase ledger charges the program-ordered counter deltas, the
        LRU clock advances exactly, and stored lines are marked
        dirty/modified.  Latency is the same constant for loads and
        stores.  Returns ``None`` to decline.
        """
        if self.banks is not None:
            return None
        pblocks = self._phase_info.get(phase)
        if pblocks is None:
            pblocks = self._compile_phase(phase)
        lines = self.cache._lines
        touched = []
        dirty = []
        for pblock, stores, last_pos in pblocks:
            line = lines.get(pblock)
            if line is None:
                return None
            touched.append((line, last_pos))
            if stores:
                dirty.append(line)
        self.cache.touch_phase(touched, phase.mem_ops)
        for line in dirty:
            line.dirty = True
            line.state = "M"
        self._charge_phase(phase)
        latency = self._base_latency + SWITCH_LATENCY
        return latency, latency

    def _compile_phase(self, phase):
        """Translate a phase's lines (cached per phase).

        The page table is affine (physical = virtual + ``offset``, a
        page-aligned constant per pid), so the phase's translated
        projection is just its ``block_info`` shifted by the offset —
        no per-op walk.
        """
        offset = self.page_table.offset
        pblocks = tuple((info[0] + offset, info[2], info[4])
                        for info in phase.block_info)
        self._phase_info[phase] = pblocks
        return pblocks

    def phase_quote_batch(self, window, now, horizon, interval):
        """Serve the longest resident prefix of a phase *window* in one
        pass (the vector rung's batched quote API).

        The SHARED guard has no leases, so the batched form is a single
        residency scan over the window's flattened ``(phase, line)``
        rows — the first absent line caps the accepted prefix at its
        phase, exactly the per-phase :meth:`phase_quote` guard applied
        phase by phase (residency cannot change mid-window: the window
        is the only tile activity during its span).  Application
        mirrors the per-phase quote — per-phase LRU advance and
        dirty/modified marks in phase order, then one bulk window
        ledger for a full accept (or the per-phase ledgers for
        a partial prefix / while a ``PjTrace`` records).

        The L1X hit latency here exceeds the SHARED issue interval, so
        the core never takes the bulk *timeline* for these windows —
        the win is the batched guard and the collapsed ledger.
        Declines (``None``) when bank contention is modelled.
        """
        if self.banks is not None:
            return None
        info = self._window_info.get(window)
        if info is None:
            info = self._compile_window(window)
        pblocks, store_rows, ledger = info
        lines = self.cache._lines
        num_rows = len(pblocks)
        line_scratch = [None] * num_rows
        accepted = window.span
        for i, pblock in enumerate(pblocks):
            line = lines.get(pblock)
            if line is None:
                accepted = window.row_phase_ids[i]
                break
            line_scratch[i] = line
        if accepted == 0:
            return None
        row_start = window.row_start
        last_pos = window.row_last_pos_list
        mem_ops = window.mem_ops
        touch_phase = self.cache.touch_phase
        for j in range(accepted):
            touch_phase(
                [(line_scratch[i], last_pos[i])
                 for i in range(row_start[j], row_start[j + 1])],
                mem_ops[j])
        limit = row_start[accepted]
        for i in store_rows:
            if i >= limit:
                break
            line = line_scratch[i]
            line.dirty = True
            line.state = "M"
        if accepted == window.span \
                and not self.stats.registry.pj_trace_active:
            ledger()
        else:
            phases = window.phases
            for j in range(accepted):
                self._charge_phase(phases[j])
        latency = self._base_latency + SWITCH_LATENCY
        return accepted, latency, latency

    def _compile_window(self, window):
        """Precompile one window's batched-quote state (lines
        translated by the page table's affine ``offset``, as in
        :meth:`_compile_phase`).

        The pure pieces — translated blocks, store rows, the ledger
        program — are memoised on the window across controller
        instances (:meth:`VectorWindow.cached`); only the registry
        binding happens per controller.
        """
        offset = self.page_table.offset
        pblocks = window.cached(
            ("shared-pblocks", offset),
            lambda: tuple(block + offset for block in window.row_blocks))
        store_rows = window.cached("store-rows", lambda: tuple(
            i for i, (_, stores) in enumerate(window.rows) if stores))
        load_pairs = self._flush_load_hit.pairs
        store_pairs = self._flush_store_hit.pairs
        program = window.cached(
            ("ledger", tuple(load_pairs), tuple(store_pairs)),
            lambda: vector_windows.compile_window_ledger(
                load_pairs, store_pairs, window))
        ledger = self.stats.registry.window_flusher(program)
        compiled = (pblocks, store_rows, ledger)
        self._window_info[window] = compiled
        return compiled

    def _fill(self, pblock, now):
        """Fill ``pblock`` from the host; returns ``(latency, line)``."""
        latency = self.host.fetch_for_tile(pblock, now,
                                           tile=self.agent_name)
        line, victim = self.cache.install(pblock, state="E", paddr=pblock)
        if victim is not None:
            self._charge(is_store=False)
            latency += self.host.tile_writeback(victim.paddr, victim.dirty,
                                                now, tile=self.agent_name)
            self.stats.add("evictions")
        return latency, line

    def handle_forwarded_request(self, pblock, now, is_store):
        """Tile-agent interface: a directory forward probes the L1X
        directly (physically indexed — no RMAP or GTIME needed)."""
        line = self.cache.lookup(pblock, touch=False)
        if line is None:
            self.stats.add("fwd_misses")
            return 0, False
        self._charge(is_store=False)
        self.cache.invalidate(pblock)
        self.stats.add("fwd_evictions")
        return 0, line.dirty

    def flush(self, now):
        """Drain every dirty line back to the host (end of workload).

        The writeback is a PUTX: the directory drops the tile as a
        sharer, so the line must leave the cache too — keeping it
        resident would let a later access hit a copy the host no longer
        knows to invalidate (found by ``repro.check``'s mei-directory
        invariant)."""
        latency = 0
        for line in list(self.cache.dirty_lines()):
            self._charge(is_store=False)
            latency += self.host.tile_writeback(line.paddr, dirty=True,
                                                now=now,
                                                tile=self.agent_name)
            self.cache.invalidate(line.block)
            self.stats.add("flush_writebacks")
        return latency

    # -- invocation replay surface (repro.accel.replay) ----------------------

    def state_signature(self, set_indices=None):
        """Raw replay-state capture of the shared L1X array."""
        return self.cache.capture_sets(set_indices)

    def apply_transform(self, transform, t0):
        """Apply a recorded invocation end-state transform at ``t0``."""
        from ..accel.replay import apply_cache_transform
        apply_cache_transform(self.cache, transform, t0)
