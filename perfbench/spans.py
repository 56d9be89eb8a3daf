"""Span tracing from outside the program.

:func:`install_layers` rebinds the public entry points of each layer
(``repro.workloads``, ``repro.systems``, ``repro.sim.engine``,
``repro.sim.experiments``/``sweep``/``export``) to wrappers that record
a span per call.  A span is ``[name, start, end, parent]``; spans stay
in memory and are written out once, when the traced process ends.  A
layer's self time is its spans' durations minus the time their child
spans cover, so layer self times plus the time no span covers add up
to the traced wall exactly.  Full (generation 2) garbage collections
become ``python.gc`` spans of their own, via ``gc.callbacks``.
"""

import functools
import gc
import importlib
import json
import os
import sys
import time

#: Span name -> per-layer metric name (seconds of self time).
LAYER_METRICS = {
    "python.startup": "python.startup_s",
    "python.import": "python.import_s",
    "python.exit": "python.exit_s",
    "python.gc": "python.gc.gen2_s",
    "cli": "cli.self_s",
    "experiments": "experiments.self_s",
    "workloads.build": "workloads.build_s",
    "workloads.lower": "workloads.lower_s",
    "workloads.mlp": "workloads.mlp_s",
    "workloads.phase_compile": "workloads.phase_compile_s",
    "workloads.vector_compile": "workloads.vector_compile_s",
    "engine.result_store": "engine.result_store_s",
    "engine.trace_store": "engine.trace_store_s",
    "engine.result_load": "engine.result_load_s",
    "engine.trace_load": "engine.trace_load_s",
    "engine.code_fingerprint": "engine.code_fingerprint_s",
    "engine.batch": "engine.batch_s",
    "engine.worker_point": "engine.worker_s",
    "experiments.render": "experiments.render_s",
    "systems.build": "systems.build_s",
}
SYSTEM_NAMES = ("SCRATCH", "SHARED", "FUSION", "FUSION-Dx", "POLICY")
for _name in SYSTEM_NAMES:
    LAYER_METRICS["systems.{}.run".format(_name)] = \
        "systems.{}.run_s".format(_name)

#: Span of one pool-worker point (``engine._execute_timed``).
WORKER_POINT = "engine.worker_point"


class Tracer:
    """In-memory span recorder for one process (reset in forked
    children, which flush their own spans beside the parent's file)."""

    def __init__(self, out_path=None, started=None):
        self.out_path = out_path
        self.started = started
        self.owner_pid = self.pid = os.getpid()
        self.spans = []
        self.stack = []
        self.gc_pause_s = 0.0
        self._gc_start = 0.0
        self._patches = []

    # -- recording ---------------------------------------------------------

    def open(self, name):
        # Allocate first: a collection triggered here runs its own span
        # to completion before this one is appended.
        record = [name, 0.0, None, self.stack[-1] if self.stack else -1]
        self.spans.append(record)
        index = len(self.spans) - 1
        self.stack.append(index)
        record[1] = time.perf_counter()
        return index

    def close(self, index):
        self.spans[index][2] = time.perf_counter()
        popped = self.stack.pop()
        if popped != index:
            raise RuntimeError("span {} closed out of order".format(
                self.spans[index][0]))

    def wrap(self, fn, name, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(index)
                if after is not None:
                    after()
        # Keep memoised functions clearable (``functools.lru_cache``).
        for attr in ("cache_clear", "cache_info"):
            if hasattr(fn, attr):
                setattr(traced, attr, getattr(fn, attr))
        return traced

    def _on_gc(self, phase, info):
        if phase == "start":
            if info["generation"] == 2:
                self.open("python.gc")
            self._gc_start = time.perf_counter()
        else:
            self.gc_pause_s += time.perf_counter() - self._gc_start
            if info["generation"] == 2 and self.stack \
                    and self.spans[self.stack[-1]][0] == "python.gc":
                self.close(self.stack[-1])

    def start_gc(self):
        gc.callbacks.append(self._on_gc)

    def stop_gc(self):
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    # -- patching ----------------------------------------------------------

    def replace(self, target, attr, value):
        """Set ``target.attr`` (or ``target[attr]`` for a dict) to
        ``value``, remembering what :meth:`unpatch` must restore."""
        if isinstance(target, dict):
            self._patches.append((target, attr, target[attr]))
            target[attr] = value
        else:
            self._patches.append((target, attr, target.__dict__.get(attr)))
            setattr(target, attr, value)

    def patch(self, owner, attr, name, after=None):
        """Rebind ``owner.attr`` (and every ``repro`` module alias of a
        module-level function) to a span-recording wrapper."""
        original = getattr(owner, attr)
        wrapped = self.wrap(original, name, after)
        targets = [owner]
        if isinstance(owner, type(sys)):
            targets += [module for mod_name, module in
                        list(sys.modules.items())
                        if mod_name.startswith("repro.")
                        and module is not owner
                        and getattr(module, attr, None) is original]
        for target in targets:
            self.replace(target, attr, wrapped)
        return wrapped

    def patch_builder(self, cls, attr, name):
        """Wrap the ``builder`` argument of a memoising ``cached(key,
        builder)`` method, so only real compiles record a span."""
        original = cls.__dict__[attr]
        tracer = self

        @functools.wraps(original)
        def cached(this, key, builder):
            def build():
                index = tracer.open(name)
                try:
                    return builder()
                finally:
                    tracer.close(index)
            return original(this, key, build)
        self.replace(cls, attr, cached)

    def unpatch(self):
        while self._patches:
            target, attr, original = self._patches.pop()
            if isinstance(target, dict):
                target[attr] = original
            elif original is None:
                delattr(target, attr)
            else:
                setattr(target, attr, original)

    # -- output ------------------------------------------------------------

    def reset_in_child(self):
        self.pid = os.getpid()
        self.spans = []
        self.stack = []
        self.gc_pause_s = 0.0

    def snapshot(self):
        return {"pid": self.pid, "spans": self.spans,
                "gc_pause_s": self.gc_pause_s, "started": self.started,
                "ended": time.perf_counter()}

    def dump(self, path=None):
        path = path or self.out_path
        if os.getpid() != self.pid:
            return
        tmp = "{}.tmp".format(path)
        with open(tmp, "w") as handle:
            json.dump(self.snapshot(), handle)
        os.replace(tmp, path)

    def flush_worker(self):
        """In a pool worker, rewrite this worker's span file."""
        if self.out_path and self.pid != self.owner_pid and not self.stack:
            self.dump("{}.worker-{}".format(self.out_path, self.pid))


def install_layers(tracer):
    """Wrap every layer boundary the benchmark attributes time to."""
    from repro.sim import engine, experiments, export, sweep
    from repro.sim.reporting import ExperimentTable
    from repro.systems import SYSTEMS
    from repro.workloads import lowering, phases, registry, vector
    from repro.workloads.kernels import fft
    # The package re-exports a function under the submodule's name.
    characterize = importlib.import_module("repro.workloads.characterize")

    tracer.patch(registry, "build_workload_with_outputs", "workloads.build")
    tracer.patch(fft, "build_workload", "workloads.build")
    tracer.patch(lowering, "lower_workload", "workloads.lower")
    tracer.patch(characterize, "function_mlp", "workloads.mlp")
    tracer.patch(phases, "phase_plan", "workloads.phase_compile")
    tracer.patch(vector, "vector_plan", "workloads.vector_compile")
    tracer.patch_builder(vector.VectorWindow, "cached",
                         "workloads.vector_compile")

    # Read every original before wrapping any: subclasses inherit.
    originals = {name: (cls.__init__, cls.run)
                 for name, cls in SYSTEMS.items()}
    for name, cls in SYSTEMS.items():
        init, run = originals[name]
        tracer.replace(cls, "__init__", tracer.wrap(init, "systems.build"))
        tracer.replace(cls, "run",
                       tracer.wrap(run, "systems.{}.run".format(name)))

    for attr, name in (("load", "engine.result_load"),
                       ("store", "engine.result_store"),
                       ("load_trace", "engine.trace_load"),
                       ("store_trace", "engine.trace_store")):
        tracer.patch(engine.DiskCache, attr, name)
    tracer.patch(engine, "code_fingerprint", "engine.code_fingerprint")
    tracer.patch(engine.ExecutionEngine, "run_batch", "engine.batch")
    tracer.patch(engine, "_execute_timed", WORKER_POINT,
                 after=tracer.flush_worker)

    tracer.replace(experiments.ALL_EXPERIMENTS, "fig6b", tracer.patch(
        experiments, "figure6_performance", "experiments"))
    tracer.patch(sweep, "sweep", "experiments")
    tracer.patch(export, "table_to_json", "experiments.render")
    tracer.patch(export, "table_to_csv", "experiments.render")
    tracer.patch(ExperimentTable, "render", "experiments.render")


def self_times(spans):
    """``({span name: self seconds}, covered seconds)`` for one
    process's spans; ``covered`` is the length of its root spans."""
    children = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent] += end - start
    totals = {}
    covered = 0.0
    for index, (name, start, end, parent) in enumerate(spans):
        totals[name] = totals.get(name, 0.0) + (end - start) \
            - children[index]
        if parent < 0:
            covered += end - start
    return totals, covered


def budget(spans, wall_start, wall_end):
    """Stage budget of one traced process: layer self times and the time
    no span covers, which add up to the wall whenever the spans nest.

    Returns ``(totals, unattributed_s, ok)``.  ``ok`` fails when a span
    is left open, root spans overlap, a child runs outside its parent, a
    root span runs outside the measured wall, or a self time is negative.
    """
    ok = all(end is not None for _, _, end, _ in spans)
    if not ok:
        return {}, 0.0, False
    roots = sorted((start, end) for _, start, end, parent in spans
                   if parent < 0)
    ok &= all(later[0] >= earlier[1]
              for earlier, later in zip(roots, roots[1:]))
    for name, start, end, parent in spans:
        if parent >= 0:
            p_start, p_end = spans[parent][1], spans[parent][2]
            ok &= p_start <= start <= end <= p_end
        else:
            ok &= wall_start <= start <= end <= wall_end
    totals, covered = self_times(spans)
    ok &= all(value >= -1e-9 for value in totals.values())
    return totals, wall_end - wall_start - covered, bool(ok)
