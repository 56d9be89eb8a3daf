"""Oracle coherent DMA for the SCRATCH baseline.

The paper's SCRATCH system is deliberately generous: "a particularly
aggressive oracle DMA implementation" that auto-generates transfers from
the dynamic trace, DMA-ing *in* exactly the blocks the window reads and
*out* exactly the blocks it dirtied, with the controller residing at the
host LLC (no issue overhead).  Working sets exceed the scratchpad, so
each invocation is segmented into execution windows with a DMA-in /
compute / DMA-out sequence per window — all on the critical path, which
is where SCRATCH loses on DMA-bound workloads (Figure 6b) while winning
on request-message energy (it is push-based; Lesson 4).
"""

from dataclasses import dataclass, field

from ..common.types import AccessType, FunctionTrace, MemOp
from ..common.units import LINE_SIZE
from ..energy import cacti
from ..workloads import vector as vector_windows

_BLOCK_MASK = ~(LINE_SIZE - 1)
_STORE = AccessType.STORE


@dataclass
class DmaWindow:
    """One execution window of an invocation on a scratchpad."""

    ops: list = field(default_factory=list)
    blocks: set = field(default_factory=set)
    in_blocks: list = field(default_factory=list)
    out_blocks: list = field(default_factory=list)
    #: Read-only :class:`FunctionTrace` covering exactly this window's
    #: ops, built once by :func:`windows_for` so repeated invocations of
    #: the same kernel reuse one trace object (and therefore one lowered
    #: form) per window.
    trace: object = None


def partition_windows(trace, capacity_blocks):
    """Split an invocation trace into scratchpad-sized windows.

    A window closes when touching one more distinct block would overflow
    the scratchpad.  For each window the oracle computes:

    * ``in_blocks`` — blocks whose first access in the window is a load
      (data the accelerator actually reads; write-first blocks need no
      staging);
    * ``out_blocks`` — blocks the window stores to (dirty data).
    """
    windows = []
    current = DmaWindow()
    first_access = {}
    for op in trace.ops:
        if isinstance(op, MemOp):
            block = op.block
            if block not in current.blocks and \
                    len(current.blocks) >= capacity_blocks:
                _finalize(current, first_access)
                windows.append(current)
                current = DmaWindow()
                first_access = {}
            current.blocks.add(block)
            if block not in first_access:
                first_access[block] = op.kind
        current.ops.append(op)
    _finalize(current, first_access)
    windows.append(current)
    return windows


def windows_for(trace, capacity_blocks):
    """Memoised :func:`partition_windows` keyed by scratchpad capacity.

    Traces are read-only by contract once built, and the window split is
    a pure function of ``(trace, capacity_blocks)``, so the result is
    cached on the trace object itself — mirroring how lowered traces are
    memoised — and each window gets a reusable :class:`FunctionTrace`.
    """
    cache = trace.__dict__.get("_dma_windows")
    if cache is None:
        cache = trace.__dict__["_dma_windows"] = {}
    windows = cache.get(capacity_blocks)
    if windows is None:
        windows = partition_windows(trace, capacity_blocks)
        for window in windows:
            window.trace = FunctionTrace(
                name=trace.name, benchmark=trace.benchmark,
                ops=window.ops, lease_time=trace.lease_time)
        cache[capacity_blocks] = windows
    return windows


def _finalize(window, first_access):
    stored = set()
    for op in window.ops:
        if isinstance(op, MemOp) and op.kind is _STORE:
            stored.add(op.block)
    window.in_blocks = sorted(
        block for block, kind in first_access.items()
        if kind is AccessType.LOAD)
    window.out_blocks = sorted(stored)


class OracleDmaController:
    """Coherent DMA engine streaming lines between the LLC and scratchpads.

    The engine's state machine (SETUP -> STREAM -> COMPLETE) is modelled
    by a setup latency plus a bandwidth-limited streaming phase, with the
    LLC pipeline depth appearing once per transfer.
    """

    def __init__(self, config, host_mem, page_table, stats):
        self.config = config.dma
        self.host = host_mem
        self.page_table = page_table
        self.stats = stats.scope("dma")
        self._l2_pipeline = config.host.l2_avg_latency

    def _stream_latency(self, num_blocks):
        if num_blocks == 0:
            return 0
        num_bytes = num_blocks * LINE_SIZE
        stream = -(-num_bytes // self.config.bytes_per_cycle)  # ceil div
        # NUCA bank reads are not perfectly pipelined behind the link.
        stream = max(stream, num_blocks * self.config.per_block_cycles)
        return self.config.setup_latency + self._l2_pipeline + stream

    def transfer_in(self, vblocks, scratchpad, now):
        """DMA blocks from the LLC into ``scratchpad``; returns latency."""
        for vblock in vblocks:
            pblock = self.page_table.translate(vblock)
            self.host.dma_read(pblock, now)
            scratchpad.fill(vblock)
        latency = self._stream_latency(len(vblocks))
        self.stats.add("transfers_in", 1 if vblocks else 0)
        self.stats.add("blocks_in", len(vblocks))
        self.stats.add("bytes_in", len(vblocks) * LINE_SIZE)
        self.stats.add("cycles", latency)
        return latency

    def transfer_out(self, vblocks, now):
        """DMA dirty blocks from a scratchpad back to the LLC."""
        for vblock in vblocks:
            pblock = self.page_table.translate(vblock)
            self.host.dma_write(pblock, now)
        latency = self._stream_latency(len(vblocks))
        self.stats.add("transfers_out", 1 if vblocks else 0)
        self.stats.add("blocks_out", len(vblocks))
        self.stats.add("bytes_out", len(vblocks) * LINE_SIZE)
        self.stats.add("cycles", latency)
        return latency

    @property
    def total_bytes(self):
        return self.stats.get("bytes_in") + self.stats.get("bytes_out")


class ScratchpadAccessModel:
    """Charges scratchpad access latency/energy during window execution;
    the core's memory port in the SCRATCH design."""

    #: Port constant (:mod:`repro.accel.core`): a local store issues
    #: one op per cycle.
    issue_interval = 1

    def __init__(self, config, scratchpad, stats):
        self.scratchpad = scratchpad
        self.latency = config.tile.scratchpad.access_latency
        self.stats = stats.scope("scratchpad")
        self._read_energy = cacti.scratchpad_access_energy_pj(
            config.tile.scratchpad)
        self._write_energy = cacti.scratchpad_access_energy_pj(
            config.tile.scratchpad, is_store=True)
        self._add_accesses = self.stats.counter("accesses")
        self._add_energy = self.stats.counter("energy_pj")
        # Per-event flushers (one call per access; bit-identical to the
        # unbundled handles by construction).
        registry = self.stats.registry
        qualify = self.stats.qualified
        self._flush_load = registry.flusher([
            (qualify("accesses"), 1),
            (qualify("energy_pj"), self._read_energy)])
        self._flush_store = registry.flusher([
            (qualify("accesses"), 1),
            (qualify("energy_pj"), self._write_energy)])
        #: Whole-phase ledger (steady-state fast path) and whole-window
        #: bulk ledgers (the vector rung).
        self._charge_phase = registry.phase_ledger(
            self._flush_load.pairs, self._flush_store.pairs)
        self._window_ledgers = {}

    def access(self, op, now):
        is_store = op.is_store
        # Write-first blocks need no DMA staging, just allocation; the
        # oracle window sizing guarantees the space exists (serve()
        # allocates in place and raises on non-resident loads).
        self.scratchpad.serve(op.block, is_store)
        if is_store:
            self._flush_store()
        else:
            self._flush_load()
        return self.latency

    def phase_quote(self, phase, now, horizon, interval):
        """Serve a whole steady-state phase in one step.

        The scratchpad guard mirrors ``serve``: every block must either
        be resident or be written first (write-first blocks allocate in
        place, capacity permitting).  A load-first absent block or an
        allocation overflow declines, so the per-op fallback raises the
        exact oracle-DMA error the per-op path would.  On success the
        phase's whole counter delta is one phase-ledger call and
        the dirty marks converge to the per-op result (a block is dirty
        iff the phase stores to it or it already was).
        """
        scratchpad = self.scratchpad
        blocks = scratchpad._blocks
        allocations = []
        stored = []
        for block, loads, stores, first_is_store, last_pos, \
                first_mem, first_comp in phase.block_info:
            if block in blocks:
                if stores:
                    stored.append(block)
            elif first_is_store:
                allocations.append(block)
            else:
                return None
        if allocations and len(blocks) + len(allocations) > \
                scratchpad.config.num_blocks:
            return None
        for block in allocations:
            blocks[block] = True
        for block in stored:
            blocks[block] = True
        self._charge_phase(phase)
        return self.latency, self.latency

    def phase_quote_batch(self, window, now, horizon, interval):
        """Serve the longest servable prefix of a phase *window* in one
        pass (the vector rung's batched quote API).

        The scratchpad guard is stateful — a phase's write-first
        allocations change residency for the next phase — so the batch
        evaluates phase guards *sequentially*, committing each accepted
        phase's allocations and dirty marks before guarding the next;
        the first phase that would decline (load-first absent block or
        allocation overflow) caps the accepted prefix.  This is the
        per-phase :meth:`phase_quote` applied phase by phase, so any
        prefix is bit-identical by construction; the batch win is one
        ladder dispatch for the whole window, the bulk counter ledger
        on a full accept, and the core's bulk timeline (the constant
        scratchpad latency fits the stall-free closed form).

        Returns ``(accepted_phases, latency, latency)`` or ``None``.
        """
        scratchpad = self.scratchpad
        blocks = scratchpad._blocks
        capacity = scratchpad.config.num_blocks
        phases = window.phases
        accepted = 0
        for phase in phases:
            allocations = []
            stored = []
            ok = True
            for block, loads, stores, first_is_store, last_pos, \
                    first_mem, first_comp in phase.block_info:
                if block in blocks:
                    if stores:
                        stored.append(block)
                elif first_is_store:
                    allocations.append(block)
                else:
                    ok = False
                    break
            if ok and allocations and \
                    len(blocks) + len(allocations) > capacity:
                ok = False
            if not ok:
                break
            for block in allocations:
                blocks[block] = True
            for block in stored:
                blocks[block] = True
            accepted += 1
        if accepted == 0:
            return None
        if accepted == window.span \
                and not self.stats.registry.pj_trace_active:
            self._window_ledger(window)()
        else:
            for j in range(accepted):
                self._charge_phase(phases[j])
        return accepted, self.latency, self.latency

    def _window_ledger(self, window):
        """The window's whole-span bulk ledger (cached per window).

        The ledger *program* is memoised on the window across model
        instances (:meth:`VectorWindow.cached`); binding it to this
        model's registry is O(1) and cached per instance.
        """
        ledger = self._window_ledgers.get(window)
        if ledger is None:
            load_pairs = self._flush_load.pairs
            store_pairs = self._flush_store.pairs
            program = window.cached(
                ("ledger", tuple(load_pairs), tuple(store_pairs)),
                lambda: vector_windows.compile_window_ledger(
                    load_pairs, store_pairs, window))
            ledger = self._window_ledgers[window] = \
                self.stats.registry.window_flusher(program)
        return ledger
