"""Pausing CPython's cyclic garbage collector (docs/simulator.md §6.4).

Preparing a workload, building and running a system, and running a
simulation batch all allocate many long-lived objects and no garbage
cycles, so automatic collection would only traverse them again and
free nothing.  All of them run inside :func:`collector_paused`.  The pause lives here, below the workloads
layer that prepares traces and the engine that runs batches, so each
can take it without importing the other.
"""

import contextlib
import gc
import threading

_pause_lock = threading.Lock()
_pause_depth = 0
_pause_resume = False
_pause_freezes = False


@contextlib.contextmanager
def collector_paused():
    """Pause automatic garbage collection for the enclosed block.

    Pauses nest and may overlap across threads (the sweep service runs
    batches on executor threads): the first to enter records whether
    collection was on and switches it off, the last to leave restores
    that state.  Sound only because system builds and runs and trace
    preparation are cycle-free (``tests/test_heap.py``); never wrap code
    that builds reference cycles in bulk, such as the model checker.
    """
    global _pause_depth, _pause_resume
    with _pause_lock:
        if _pause_depth == 0:
            _pause_resume = gc.isenabled()
            gc.disable()
        _pause_depth += 1
    try:
        yield
    finally:
        with _pause_lock:
            _pause_depth -= 1
            if _pause_depth == 0:
                if _pause_freezes:
                    gc.freeze()
                if _pause_resume:
                    gc.enable()


def freeze_batch_survivors():
    """From now on, move what a pause leaves alive into the collector's
    permanent generation (``gc.freeze()``) as the pause ends.

    Only for a process that ends soon after its batches, the one-shot
    CLI (:func:`repro.cli.entry`): a batch's survivors (traces, plans,
    results) live until exit, and collecting them after the pause only
    walks them once more.  Never in a daemon: refcounting still frees
    frozen objects, but a frozen cycle would live as long as the
    process.
    """
    global _pause_freezes
    _pause_freezes = True
