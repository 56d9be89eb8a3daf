"""Hierarchical statistics registry.

Every component of the simulator records counts into a shared
:class:`StatsRegistry` under dotted names (``"l1x.hits"``,
``"link.l0x_l1x.msg_bytes"``).  The registry supports scoped views,
snapshots, diffs and merging — the experiment layer uses diffs to separate
per-function from whole-run statistics.

Hot-path contract: :meth:`StatsRegistry.counter` (and
:meth:`StatsScope.counter`) return a *bound handle* — a callable closed
over the fully-qualified counter name and the live counter map — so
per-access code paths (ACC/MESI controllers, :class:`repro.accel.core.
AxcCore`, the links) resolve dotted names once at construction instead
of re-formatting ``"{prefix}.{name}"`` on every increment.  A handle
created before :meth:`clear` stays valid afterwards (the counter map is
cleared in place, never replaced).

:meth:`StatsRegistry.flusher` extends the contract to whole *events*:
a flusher binds the full list of ``(name, amount)`` increments one
logical event performs and applies all of them in a single call.
Flushed results are bit-identical to the per-increment calls: amounts
that are exact in binary floating point (integers, and the half-cycle
latencies the simulator uses) to one counter are pre-summed, while
energy accumulations (``*_pj`` counters, whose per-event amounts are
not dyadic) are added term by term so the rounding sequence matches the
per-increment path exactly.
"""

from collections import defaultdict


class PjTrace:
    """A delta recording of every ``*_pj`` increment on a registry.

    The invocation replay cache (``repro.accel.replay``) needs to re-run
    an invocation's energy accumulation *term by term* from a different
    starting value, because ``*_pj`` amounts are not dyadic and float
    rounding depends on the running value.  While a trace is active
    (:meth:`StatsRegistry.begin_pj_trace`), every energy mutation — bound
    handles, :meth:`~StatsRegistry.add`, per-event flushers and phase
    ledgers — appends to the trace in program order, compressed at flush
    granularity into per-name ``(amounts, repeat)`` blocks, so replaying
    costs one inner loop per *flush call* rather than per op.

    Non-additive mutations (:meth:`~StatsRegistry.set`,
    :meth:`~StatsRegistry.merge`, :meth:`~StatsRegistry.clear`) poison
    the trace: a poisoned trace cannot be replayed and the recording is
    discarded.
    """

    __slots__ = ("blocks", "poisoned")

    def __init__(self):
        self.blocks = {}        # name -> [[amounts tuple, repeat], ...]
        self.poisoned = False

    def record(self, name, amounts, repeat):
        blocks = self.blocks.get(name)
        if blocks is None:
            self.blocks[name] = [[amounts, repeat]]
            return
        last = blocks[-1]
        if last[0] == amounts:
            last[1] += repeat
        else:
            blocks.append([amounts, repeat])

    def program(self):
        """Freeze the trace into an immutable replay program."""
        return tuple((name, tuple((amounts, repeat)
                                  for amounts, repeat in blocks))
                     for name, blocks in self.blocks.items())


class StatsRegistry:
    """A flat map of dotted counter names to numeric values."""

    def __init__(self):
        self._counters = defaultdict(float)
        # One-element cell holding the active PjTrace (or None).  The
        # cell object is closed over by bound handles and flushers, so
        # begin/end never invalidates existing handles; the common
        # (no-trace) case costs one list index + None test, and only on
        # ``*_pj`` paths.
        self._pj_trace_cell = [None]

    def begin_pj_trace(self):
        """Start recording ``*_pj`` increments; returns the live trace.

        Only one trace can be active at a time; beginning a new one
        replaces (and implicitly abandons) the old.
        """
        trace = PjTrace()
        self._pj_trace_cell[0] = trace
        return trace

    def end_pj_trace(self):
        """Stop recording and return the finished trace (or ``None``)."""
        trace = self._pj_trace_cell[0]
        self._pj_trace_cell[0] = None
        return trace

    def add(self, name, amount=1):
        """Increment counter ``name`` by ``amount``."""
        self._counters[name] += amount
        if name.endswith("_pj"):
            trace = self._pj_trace_cell[0]
            if trace is not None:
                trace.record(name, (amount,), 1)

    def counter(self, name):
        """Return a bound increment handle for counter ``name``.

        The handle is ``handle(amount=1)``; calling it is equivalent to
        :meth:`add` with the name pre-resolved.  Creating a handle does
        *not* materialise the counter — it first appears (as with
        :meth:`add`) on the first increment.
        """
        counters = self._counters

        if name.endswith("_pj"):
            trace_cell = self._pj_trace_cell

            def handle(amount=1):
                counters[name] += amount
                trace = trace_cell[0]
                if trace is not None:
                    trace.record(name, (amount,), 1)
        else:
            def handle(amount=1):
                counters[name] += amount

        handle.counter_name = name
        return handle

    def flusher(self, pairs):
        """Return a handle applying ``pairs`` of ``(name, amount)``.

        The handle is ``flush()``; calling it is bit-identical to one
        :meth:`add` per pair in order.  Repeated names are honoured:
        non-energy amounts to the same counter are pre-summed (exact —
        the simulator only feeds dyadic amounts to non-``_pj``
        counters), while amounts to ``*_pj`` energy counters are added
        in the original order so float rounding matches the sequential
        path exactly.
        """
        counters = self._counters
        collapsed = {}
        replayed = {}           # name -> [amounts in per-event order]
        for name, amount in pairs:
            if name.endswith("_pj"):
                replayed.setdefault(name, []).append(amount)
            else:
                collapsed[name] = collapsed.get(name, 0) + amount
        items = list(collapsed.items()) + [
            (name, amount) for name, amounts in replayed.items()
            for amount in amounts]
        traced = [(name, tuple(amounts))
                  for name, amounts in replayed.items()]
        trace_cell = self._pj_trace_cell

        def flush():
            if traced:
                trace = trace_cell[0]
                if trace is not None:
                    for name, amounts in traced:
                        trace.record(name, amounts, 1)
            for name, amount in items:
                counters[name] += amount

        flush.pairs = list(pairs)
        return flush

    def phase_ledger(self, load_pairs, store_pairs):
        """Return ``charge(phase)``, the steady-state phase engine's ledger.

        ``load_pairs`` and ``store_pairs`` are the ``(name, amount)``
        increments of one load hit and one store hit (a controller's
        per-op :meth:`flusher` lists).  A phase's counter delta is fully
        determined by them, its op counts and its program-ordered
        ``(is_store, count)`` runs (``phase.event_seq``), so calling
        ``charge(phase)`` is bit-identical to calling the per-op
        flushers once per op in that order: exact (non-``_pj``) amounts
        collapse to ``amount * occurrences``, while each ``*_pj``
        counter replays its per-event amounts run by run, so
        same-counter float rounding — and an active :class:`PjTrace`'s
        recording — follows program order exactly.

        The binder memoises what it builds: one compiled program per
        ``(num_loads, num_stores)`` (ten thousand phases share a few
        hundred) and one bound flush per phase object.
        """
        counters = self._counters
        trace_cell = self._pj_trace_cell
        programs = {}
        flushes = {}

        def compile_program(num_loads, num_stores):
            collapsed = {}
            pj = {}
            sides = []
            if num_loads:
                sides.append((load_pairs, 0, num_loads))
            if num_stores:
                sides.append((store_pairs, 1, num_stores))
            for pairs, side, occurrences in sides:
                for name, amount in pairs:
                    if name.endswith("_pj"):
                        record = pj.get(name)
                        if record is None:
                            pj[name] = record = ([], [])
                        record[side].append(amount)
                    else:
                        collapsed[name] = collapsed.get(
                            name, 0) + amount * occurrences
            return (tuple(collapsed.items()),
                    tuple((name, tuple(loads), tuple(stores))
                          for name, (loads, stores) in pj.items()))

        def bind(phase):
            key = (phase.num_loads, phase.num_stores)
            program = programs.get(key)
            if program is None:
                program = programs[key] = compile_program(*key)
            collapsed_items, pj_items = program
            event_seq = phase.event_seq

            def flush():
                if pj_items:
                    trace = trace_cell[0]
                    if trace is not None:
                        for name, load_amounts, store_amounts in pj_items:
                            for is_store, count in event_seq:
                                amounts = (store_amounts if is_store
                                           else load_amounts)
                                if amounts:
                                    trace.record(name, amounts, count)
                for name, amount in collapsed_items:
                    counters[name] += amount
                for name, load_amounts, store_amounts in pj_items:
                    value = counters[name]
                    for is_store, count in event_seq:
                        amounts = store_amounts if is_store else load_amounts
                        if not amounts:
                            continue
                        if len(amounts) == 1:
                            amount = amounts[0]
                            for _ in range(count):
                                value += amount
                        else:
                            for _ in range(count):
                                for amount in amounts:
                                    value += amount
                    counters[name] = value

            return flush

        def charge(phase):
            flush = flushes.get(phase)
            if flush is None:
                flush = flushes[phase] = bind(phase)
            flush()

        return charge

    def window_flusher(self, program):
        """Bind a whole-window bulk ledger (the vector rung's apply).

        ``program`` is ``(collapsed_items, pj_folds)`` from
        :func:`repro.workloads.vector.compile_window_ledger`: exact
        amounts pre-summed over every phase of the window, and one
        serial fold closure per energy counter over its program-ordered
        per-op amounts (``numpy.add.accumulate`` — bit-identical to the
        per-phase replay loops).  Callers must only flush this while no
        :class:`PjTrace` is active (check :attr:`pj_trace_active`):
        the bulk fold cannot reproduce the per-event-run recording
        granularity, so recordings fall back to per-phase ledgers.
        """
        counters = self._counters
        collapsed_items, pj_folds = program

        def flush():
            for name, amount in collapsed_items:
                counters[name] += amount
            for name, fold in pj_folds:
                counters[name] = fold(counters[name])

        flush.program = program
        return flush

    @property
    def pj_trace_active(self):
        """True while a :class:`PjTrace` is recording ``*_pj`` adds."""
        return self._pj_trace_cell[0] is not None

    @property
    def registry(self):
        """The backing registry (self; mirrors :attr:`StatsScope.registry`
        so code holding either a registry or a scope can reach the root)."""
        return self

    def qualified(self, name):
        """Return the fully-qualified counter name (identity here)."""
        return name

    def get(self, name, default=0):
        """Return the value of counter ``name`` (``default`` if absent)."""
        return self._counters.get(name, default)

    def set(self, name, value):
        """Set counter ``name`` to ``value`` (used for gauges)."""
        self._counters[name] = value
        trace = self._pj_trace_cell[0]
        if trace is not None:
            trace.poisoned = True

    def scope(self, prefix):
        """Return a :class:`StatsScope` that prefixes all counter names."""
        return StatsScope(self, prefix)

    def names(self):
        """Return all counter names, sorted."""
        return sorted(self._counters)

    def snapshot(self):
        """Return a plain-dict copy of all counters."""
        return dict(self._counters)

    def diff(self, earlier_snapshot):
        """Return counters minus an earlier :meth:`snapshot`.

        Counters absent from the earlier snapshot are treated as zero.
        """
        result = {}
        for name, value in self._counters.items():
            delta = value - earlier_snapshot.get(name, 0)
            if delta:
                result[name] = delta
        return result

    def merge(self, other):
        """Add every counter of ``other`` (registry or dict) into this one."""
        trace = self._pj_trace_cell[0]
        if trace is not None:
            trace.poisoned = True
        items = other.snapshot().items() if isinstance(
            other, StatsRegistry) else other.items()
        for name, value in items:
            self._counters[name] += value

    def bulk_add(self, items):
        """Add ``(name, amount)`` deltas in order (replay fast path).

        Exact for the dyadic amounts the simulator feeds non-``_pj``
        counters; callers must not route energy deltas through this —
        use :meth:`replay_pj` so float rounding follows the recorded
        term order.
        """
        counters = self._counters
        for name, amount in items:
            counters[name] += amount

    def replay_pj(self, program):
        """Replay a frozen :meth:`PjTrace.program` term by term.

        Per name, the running value accumulates every recorded amount in
        the original program order starting from the counter's *current*
        value — bit-identical to re-running the recorded invocation's
        energy adds against this registry.
        """
        counters = self._counters
        for name, blocks in program:
            value = counters[name]
            for amounts, repeat in blocks:
                if len(amounts) == 1:
                    amount = amounts[0]
                    for _ in range(repeat):
                        value += amount
                else:
                    for _ in range(repeat):
                        for amount in amounts:
                            value += amount
            counters[name] = value

    def total(self, prefix):
        """Sum of the ``prefix`` counter itself plus every counter under
        ``prefix.``.

        The exact-name counter is counted exactly once, and sibling
        prefixes never match: ``total("l1x")`` sums ``"l1x"`` and
        ``"l1x.hits"`` but not ``"l1x_other.x"`` (the dot boundary is
        required) — see the regression tests in ``tests/test_stats.py``.
        """
        exact = prefix.rstrip(".")
        prefix_dot = exact + "."
        total = 0
        for name, value in self._counters.items():
            if name == exact or name.startswith(prefix_dot):
                total += value
        return total

    def subtree(self, prefix):
        """Return a dict of counters under ``prefix`` with it stripped."""
        prefix_dot = prefix if prefix.endswith(".") else prefix + "."
        return {name[len(prefix_dot):]: value
                for name, value in self._counters.items()
                if name.startswith(prefix_dot)}

    def clear(self):
        # In-place clear: bound counter handles keep referencing the
        # live map and stay valid.
        trace = self._pj_trace_cell[0]
        if trace is not None:
            trace.poisoned = True
        self._counters.clear()

    def __contains__(self, name):
        return name in self._counters

    def __repr__(self):
        return "StatsRegistry({} counters)".format(len(self._counters))


class StatsScope:
    """A view of a :class:`StatsRegistry` under a fixed name prefix.

    Qualified names are cached per scope, so repeat :meth:`add` calls on
    the same counter skip the string formatting entirely.
    """

    def __init__(self, registry, prefix):
        self._registry = registry
        self._prefix = prefix.rstrip(".")
        self._qualified = {}

    def _qualify(self, name):
        qualified = self._qualified.get(name)
        if qualified is None:
            qualified = self._prefix + "." + name
            self._qualified[name] = qualified
        return qualified

    def counter(self, name):
        """Return a bound increment handle for the scoped counter."""
        return self._registry.counter(self._qualify(name))

    def add(self, name, amount=1):
        qualified = self._qualified.get(name)
        if qualified is None:
            qualified = self._prefix + "." + name
            self._qualified[name] = qualified
        self._registry.add(qualified, amount)

    def get(self, name, default=0):
        return self._registry.get(self._qualify(name), default)

    def set(self, name, value):
        self._registry.set(self._qualify(name), value)

    def scope(self, prefix):
        return StatsScope(self._registry, self._qualify(prefix))

    def flusher(self, pairs):
        """Bulk handle over scope-relative ``(name, amount)`` pairs."""
        return self._registry.flusher(
            [(self._qualify(name), amount) for name, amount in pairs])

    @property
    def registry(self):
        """The root :class:`StatsRegistry` this scope writes into."""
        return self._registry

    def qualified(self, name):
        """Return the fully-qualified (prefixed) counter name."""
        return self._qualify(name)

    @property
    def prefix(self):
        return self._prefix
