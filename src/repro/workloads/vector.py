"""Structure-of-arrays compilation of phase plans (the vector rung).

The steady-state phase engine (:mod:`repro.workloads.phases`) already
collapses per-op protocol traversal into one ``phase_quote`` call per
compiled phase, but long traces still pay one Python round trip — quote,
guard walk, ledger flush, timeline apply — *per phase*.  This module
compiles each :class:`~repro.workloads.phases.PhasePlan` one level
further: maximal runs of consecutive phase entries become
:class:`VectorWindow` objects holding the plan in structure-of-arrays
form — parallel numpy arrays of op kind, block, run length, fused
latency and phase id — plus the per-phase aggregates and flattened
guard rows a controller's ``phase_quote_batch`` needs to evaluate a
whole sequence of lease-stable phases in one pass:

* the guard becomes one gather over the window's distinct lines and a
  single vectorised lease compare against precomputed conservative
  horizon offsets (a longer bound is sound — it can only produce extra
  declines, never an unsound accept, and the fallback ladder makes any
  accept/decline pattern bit-identical);
* the counter ledger becomes one bulk apply: exact (non-``_pj``)
  amounts collapse to ``amount * occurrences`` over the whole window,
  and each energy counter folds its program-ordered per-op amounts
  array with ``numpy.add.accumulate`` — a *serial* left fold, so the
  float rounding sequence is bit-identical to the per-phase sequence
  flushers it replaces (``tests/test_vector.py`` pins this);
* the cycle timeline becomes one array reduction when every accepted
  phase is in the stall-free closed-form regime (see
  :meth:`repro.accel.core.AxcCore._run_window`).

numpy is an *optional* dependency: every consumer checks
:data:`HAVE_NUMPY` first, falling back to the per-phase rung
(``repro.accel.core`` warns once) on a numpy-less install.  numpy is
imported at the first window compile or fold (:func:`numpy`), never at
``import repro.cli``: a run served from the result cache never loads it.

Each trace memoises its one vector plan on itself (``_vector_plan``,
beside its phase plan), so the plan lives as long as the prepared
workload that holds the trace, and is evicted by
:func:`repro.workloads.lowering.invalidate_lowered`.
"""

import importlib.util

from .phases import phase_plan

#: True when numpy is installed; every entry point below requires it.
HAVE_NUMPY = importlib.util.find_spec("numpy") is not None

_NOT_IMPORTED = object()

#: The numpy module once :func:`numpy` has imported it; ``None`` on a
#: numpy-less install.
np = _NOT_IMPORTED if HAVE_NUMPY else None


def numpy():
    """The numpy module, imported on first use."""
    global np
    if np is _NOT_IMPORTED:
        import numpy as np
    return np

#: Attribute used to memoise the compiled vector plan on a trace object.
_VECTOR_ATTR = "_vector_plan"

#: ``step_kind`` codes of the SoA step stream.
KIND_LOAD = 0
KIND_STORE = 1
KIND_COMPUTE = 2

#: A window needs at least this many consecutive phase entries — a
#: single phase gains nothing over the per-phase quote it replaces.
MIN_WINDOW_PHASES = 2


def accumulate(start, amounts):
    """Serially fold ``amounts`` onto ``start``; returns a Python float.

    ``numpy.add.accumulate`` computes ``out[i] = out[i-1] + in[i]`` —
    a strict left fold, *not* the pairwise tree ``numpy.sum`` uses — so
    the result is bit-identical to ``for a in amounts: start += a``.
    This is what lets the window ledger replace the per-phase energy
    replay loops without perturbing ``*_pj`` float rounding.
    """
    np = numpy()
    buf = np.empty(len(amounts) + 1, dtype=np.float64)
    buf[0] = start
    buf[1:] = amounts
    return float(np.add.accumulate(buf)[-1])


class VectorWindow:
    """One maximal run of consecutive plan phases, in SoA form."""

    __slots__ = (
        "phases", "start", "span",
        # The ISSUE-level SoA step stream: parallel arrays over every
        # lowered step the window covers (mem runs and fused compute).
        "step_kind", "step_block", "step_count", "step_latency",
        "step_phase",
        # Per-phase aggregates (Python tuples: values flow into the
        # core's clock arithmetic, which must stay native int/float).
        "mem_ops", "compute", "num_loads", "num_stores",
        # Prefix sums, length span + 1 (index by accepted-phase count).
        "cum_mem_ops", "cum_compute", "cum_loads", "cum_stores",
        "total_loads", "total_stores",
        # Flattened guard rows: one per (phase, distinct line), in
        # phase order then first-touch order — ``rows[i] = (block,
        # needs_store)`` with parallel numpy ``row_phase`` /
        # ``row_last_pos`` arrays and ``row_start[j]`` slicing phase
        # ``j``'s rows.
        "rows", "row_blocks", "row_last_pos_list", "row_start",
        "row_phase_ids", "row_phase", "row_last_pos",
        # Cross-run memo for registry-independent compiled artifacts
        # (guard bound arrays, ledger programs) — see :meth:`cached`.
        "_cache",
    )

    def __init__(self, start, segment):
        np = numpy()
        phases = tuple(phase for phase, _ in segment)
        self.phases = phases
        self.start = start
        self.span = len(phases)
        s_kind, s_block, s_count, s_lat, s_phase = [], [], [], [], []
        for pid, (phase, _steps) in enumerate(segment):
            for op, arg, count in phase.steps:
                if op is None:
                    s_kind.append(KIND_COMPUTE)
                    s_block.append(-1)
                    s_count.append(count)
                    s_lat.append(arg)
                else:
                    s_kind.append(KIND_STORE if op.is_store
                                  else KIND_LOAD)
                    s_block.append(arg)
                    s_count.append(count)
                    s_lat.append(0)
                s_phase.append(pid)
        self.step_kind = np.array(s_kind, dtype=np.int8)
        self.step_block = np.array(s_block, dtype=np.int64)
        self.step_count = np.array(s_count, dtype=np.int64)
        self.step_latency = np.array(s_lat, dtype=np.int64)
        self.step_phase = np.array(s_phase, dtype=np.int32)
        self.mem_ops = tuple(p.mem_ops for p in phases)
        self.compute = tuple(p.compute_cycles for p in phases)
        self.num_loads = tuple(p.num_loads for p in phases)
        self.num_stores = tuple(p.num_stores for p in phases)
        self.cum_mem_ops = _prefix(self.mem_ops)
        self.cum_compute = _prefix(self.compute)
        self.cum_loads = _prefix(self.num_loads)
        self.cum_stores = _prefix(self.num_stores)
        self.total_loads = self.cum_loads[-1]
        self.total_stores = self.cum_stores[-1]
        rows = []
        row_phase, row_last_pos, row_start = [], [], [0]
        for pid, phase in enumerate(phases):
            for block, loads, stores, first_is_store, last_pos, \
                    first_mem, first_comp in phase.block_info:
                rows.append((block, stores > 0))
                row_phase.append(pid)
                row_last_pos.append(last_pos)
            row_start.append(len(rows))
        self.rows = tuple(rows)
        self.row_blocks = tuple(block for block, _ in rows)
        self.row_last_pos_list = tuple(row_last_pos)
        self.row_start = tuple(row_start)
        self.row_phase_ids = tuple(row_phase)
        self.row_phase = np.array(row_phase, dtype=np.int32)
        self.row_last_pos = np.array(row_last_pos, dtype=np.int64)
        self._cache = {}

    def cached(self, key, builder):
        """Memoise a registry-independent compiled artifact here.

        Controllers bind their registry handles (flushers, scratch
        buffers) per instance, but the *expensive* pure compilation —
        guard bound arrays, whole-window ledger programs — depends only
        on config-derived scalars, so it lives on the window, shared
        across every controller instance and simulation run touching
        this trace (as long-lived as the compiled plan itself).
        Without this, each system construction
        recompiled every window it quoted, which cost more than the
        batched evaluation saved on real Figure-6 workloads.
        """
        value = self._cache.get(key)
        if value is None:
            value = self._cache[key] = builder()
        return value

    def op_kinds(self):
        """Per-mem-op kind codes in program order (an ``np.repeat``
        expansion of the SoA step stream; used by the window ledger)."""
        np = numpy()
        mem = self.step_kind != KIND_COMPUTE
        return np.repeat(self.step_kind[mem],
                         self.step_count[mem]).astype(np.uint8)

    def prefix_cycles(self, accepted, interval):
        """Stall-free closed-form cycles of the accepted prefix."""
        return self.cum_mem_ops[accepted] * interval \
            + self.cum_compute[accepted]

    def __repr__(self):
        return "VectorWindow(entry {}, {} phases, {} mem ops)".format(
            self.start, self.span, self.cum_mem_ops[-1])


def _prefix(values):
    out = [0]
    total = 0
    for value in values:
        total += value
        out.append(total)
    return tuple(out)


class VectorPlan:
    """A phase plan's windows, indexed by plan-entry position."""

    __slots__ = ("windows", "window_at", "num_phases")

    def __init__(self, windows):
        self.windows = windows
        #: plan-entry index of a window's first phase -> window.
        self.window_at = {window.start: window for window in windows}
        self.num_phases = sum(window.span for window in windows)

    def __repr__(self):
        return "VectorPlan({} windows, {} phases)".format(
            len(self.windows), self.num_phases)


def build_window(segment, start=0):
    """Compile one window from ``(phase, steps)`` rows (checker entry
    point; the plan compiler uses it for every maximal phase run)."""
    return VectorWindow(start, tuple(segment))


def compile_vector_plan(plan):
    """Windows over a :class:`~repro.workloads.phases.PhasePlan`:
    every maximal run of >= :data:`MIN_WINDOW_PHASES` consecutive
    phase entries."""
    windows = []
    segment = []
    seg_start = 0
    for index, entry in enumerate(plan.entries):
        if entry[0] is not None:
            if not segment:
                seg_start = index
            segment.append(entry)
            continue
        if len(segment) >= MIN_WINDOW_PHASES:
            windows.append(VectorWindow(seg_start, tuple(segment)))
        del segment[:]
    if len(segment) >= MIN_WINDOW_PHASES:
        windows.append(VectorWindow(seg_start, tuple(segment)))
    return VectorPlan(tuple(windows))


def vector_plan(trace):
    """Return the memoised :class:`VectorPlan` of ``trace``.

    Mirrors :func:`repro.workloads.phases.phase_plan`: one plan per
    trace, compiled from its phase plan and cached in the trace's
    ``__dict__`` so compiled windows live as long as the prepared
    workload.  Returns ``None`` on a numpy-less install.
    """
    if np is None:
        return None
    plan = trace.__dict__.get(_VECTOR_ATTR)
    if plan is None:
        plan = trace.__dict__[_VECTOR_ATTR] = compile_vector_plan(
            phase_plan(trace))
    return plan


def compile_window_ledger(load_pairs, store_pairs, window):
    """Compile a window's whole-span bulk ledger program.

    The window analogue of
    :meth:`repro.common.stats.StatsRegistry.phase_ledger`: exact
    (non-``_pj``) amounts collapse to ``amount * occurrences`` over the
    *whole* window, and each energy name gets a fold closure over its
    program-ordered per-op amounts array (:func:`accumulate` keeps the
    serial rounding order).  The result binds to a registry via
    :meth:`repro.common.stats.StatsRegistry.window_flusher` and is
    bit-identical to charging every phase's ledger in order —
    callers may only use it for a *full-window* accept with no active
    ``PjTrace`` (partial prefixes and recordings fall back to the
    per-phase ledgers).
    """
    collapsed = {}
    pj = {}
    order = []
    sides = []
    if window.total_loads:
        sides.append((load_pairs, 0, window.total_loads))
    if window.total_stores:
        sides.append((store_pairs, 1, window.total_stores))
    for pairs, side, occurrences in sides:
        for name, amount in pairs:
            if name.endswith("_pj"):
                record = pj.get(name)
                if record is None:
                    pj[name] = record = [[], []]
                    order.append(name)
                record[side].append(amount)
            else:
                collapsed[name] = collapsed.get(name,
                                                0) + amount * occurrences
    pj_folds = []
    if order:
        kinds = window.op_kinds()
        for name in order:
            load_amounts, store_amounts = pj[name]
            arr = _amounts_array(kinds, load_amounts, store_amounts)
            pj_folds.append((name, _make_fold(arr)))
    return tuple(collapsed.items()), tuple(pj_folds)


def _amounts_array(kinds, load_amounts, store_amounts):
    """The program-ordered per-op amounts of one energy counter."""
    np = numpy()
    n_load, n_store = len(load_amounts), len(store_amounts)
    if n_load <= 1 and n_store <= 1:
        if n_load and n_store:
            return np.where(kinds == KIND_STORE, store_amounts[0],
                            load_amounts[0]).astype(np.float64)
        if n_load:
            count = int(np.count_nonzero(kinds != KIND_STORE))
            return np.full(count, load_amounts[0], dtype=np.float64)
        count = int(np.count_nonzero(kinds == KIND_STORE))
        return np.full(count, store_amounts[0], dtype=np.float64)
    out = []
    for kind in kinds:
        out.extend(store_amounts if kind == KIND_STORE else load_amounts)
    return np.array(out, dtype=np.float64)


def _make_fold(arr):
    def fold(start, _arr=arr):
        return accumulate(start, _arr)
    return fold
