"""Pipelined FUSION: overlap data-independent invocations across AXCs.

The evaluated FUSION runs the sequential program's invocations back to
back (execution migrates between accelerators).  The tile, however, has
several accelerators sitting idle — and many invocations are mutually
data-independent (see :mod:`repro.workloads.dependence`).  FUSION-PIPE
is the natural next step the paper's Figure 5 timeline gestures at:
invocations whose traces touch disjoint data run *concurrently*, each
on its own AXC, interleaved over the shared L1X.

Scheduling is conservative and therefore correct under ACC's
sequential-consistency semantics: an invocation starts only after every
invocation it depends on (block-granularity RAW/WAW/WAR, plus same-AXC
program order) has completed and flushed, so no concurrent pair ever
races on a block — the shared L1X sees their interleaved, independent
epochs, which is exactly what ACC was built for.  Only act 2's schedule
differs from :class:`System`; the host acts and results are shared.
"""

import heapq

from ..workloads.dependence import invocation_dependences
from .system import System


class _Job:
    """One in-flight invocation being stepped by the scheduler."""

    __slots__ = ("index", "trace", "axc", "generator", "now", "end",
                 "start", "snapshot")

    def __init__(self, index, trace, axc, generator, start, snapshot):
        self.index = index
        self.trace = trace
        self.axc = axc
        self.generator = generator
        self.now = start
        self.start = start
        self.snapshot = snapshot
        self.end = None

    def step(self):
        """Advance one memory op; returns False once complete."""
        try:
            self.now = next(self.generator)
            return True
        except StopIteration as stop:
            self.end = stop.value
            return False

    def __lt__(self, other):
        return (self.now, self.index) < (other.now, other.index)


class PipelinedSystem(System):
    """Dependence-aware invocation overlap for a one-tenant run whose
    strategies bind a generator-steppable ``iter_run`` (the fusion
    family)."""

    def _accelerate(self, now):
        """Run every invocation as early as its dependences allow;
        returns the end of the region."""
        (tenant,) = self.tenants
        invocations = tenant.workload.invocations
        deps = invocation_dependences(tenant.workload)
        end_of = {}
        started = set()
        active = []  # heap of _Job ordered by local time
        busy_axcs = set()

        def try_start(current_time):
            for index, trace in enumerate(invocations):
                if index in started or not deps[index] <= end_of.keys():
                    continue
                axc = tenant.axc_of(trace)
                if axc in busy_axcs:
                    continue
                ready_at = max([current_time]
                               + [end_of[i] for i in deps[index]])
                strategy = tenant.selector.select(index, trace)
                bound = tenant.binder.bind(strategy)
                snapshot = self.stats.snapshot()
                generator = bound.iter_run(strategy, index, trace,
                                           ready_at, axc, tenant.mlp(trace))
                heapq.heappush(active, _Job(index, trace, axc, generator,
                                            ready_at, snapshot))
                started.add(index)
                busy_axcs.add(axc)

        try_start(now)
        while active:
            # Step the job with the smallest local clock so shared-L1X
            # state mutations stay (approximately) time ordered.
            job = heapq.heappop(active)
            if job.step():
                heapq.heappush(active, job)
                continue
            self._record_invocation(job.trace, job.end - job.start,
                                    job.snapshot)
            end_of[job.index] = job.end
            busy_axcs.discard(job.axc)
            try_start(job.end)
        return max(end_of.values(), default=now)
