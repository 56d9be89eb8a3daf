"""One system model: tenants on a tile topology, driven by selectors.

Every simulated design executes the same three-act script the paper's
Figure 1 motivates:

1. the host produces the input arrays (filling the LLC/host L1);
2. the sequential program migrates across the accelerators — one
   invocation at a time, in program order;
3. the host consumes the output arrays (``step3()`` running in
   software), incrementally pulling data back through MESI.

Designs differ only in act 2: the coherence strategy each invocation
runs under (:mod:`repro.coherence.strategy`), which a selector
(:mod:`repro.policy.selectors`) picks per invocation.  A run is a list
of tenants — one process each: a workload, its selector, page table and
host core — plus a topology.  With one tenant the tenant binds its own
machinery; that is every registry system.  Several tenants either
time-share one PID-tagged tile (Section 3.2, FUSION-MT) or get a tile
each (Section 3.1, FUSION-2T); see :func:`coresident`.
"""

import itertools

from ..accel import replay as replay_mod
from ..accel.tile import AcceleratorTile
from ..coherence.directory import TILE
from ..coherence.lease_policy import CountingLeasePolicy
from ..coherence.mesi import HostMemorySystem
from ..coherence.strategy import BindContext, StrategyBinder
from ..common.stats import StatsRegistry
from ..host.core import HostCore
from ..mem.tlb import PageTable
from ..sim.results import RunResult
from ..workloads.characterize import function_mlp, invocation_features


class Tenant:
    """One process: its workload, selector and host core, and the binder
    its strategies bind through."""

    def __init__(self, workload, selector, host_core, binder):
        self.workload = workload
        self.selector = selector
        self.host_core = host_core
        self.binder = binder
        self.mlp_of = function_mlp(workload)
        #: Per-invocation (reuse distance, footprint) when the selector
        #: learns from telemetry; ``None`` otherwise.
        self.features = (invocation_features(workload)
                         if selector.records_telemetry else None)

    def axc_of(self, trace):
        return self.workload.axc_of(trace.name)

    def mlp(self, trace):
        return self.mlp_of.get(trace.name, 2.0)


class System:
    """One simulated system: tenants, a topology, and the run loop."""

    #: Name reported as ``RunResult.system``.
    name = None

    def __init__(self, config, tenants, per_tile=False):
        """``tenants`` lists ``(workload, selector)`` pairs; ``per_tile``
        gives each its own tile instead of one shared PID-tagged tile."""
        if not tenants:
            raise ValueError("at least one workload required")
        self.config = config
        self.stats = StatsRegistry()
        self.host_mem = HostMemorySystem(config, self.stats)
        self.benchmark = ("|" if per_tile else "+").join(
            workload.benchmark for workload, _ in tenants)
        page_tables = [PageTable(pid=pid) for pid in range(len(tenants))]
        # A lone tenant shares nothing: it binds its own machinery.
        shared_tile = None
        if len(tenants) > 1 and not per_tile:
            shared_tile = AcceleratorTile(
                config, self.host_mem, page_tables[0],
                sum(workload.num_axcs for workload, _ in tenants),
                self.stats)
            for page_table in page_tables[1:]:
                shared_tile.l1x.register_process(page_table)
        self.tenants = []
        axc_base = 0
        for pid, (workload, selector) in enumerate(tenants):
            stats, agent = self.stats, TILE
            if per_tile:
                agent = "tile{}".format(pid)
                stats = self.stats.scope(agent)
            elif shared_tile is not None:
                # Each process owns a contiguous slice of the tile's AXCs.
                agent = "tenant{}".format(pid)
                for l0x in shared_tile.l0xs[
                        axc_base:axc_base + workload.num_axcs]:
                    l0x.pid = pid
            ctx = BindContext(
                config=config, host_mem=self.host_mem,
                page_table=page_tables[pid], stats=stats,
                num_axcs=workload.num_axcs, workload=workload,
                agent_name=agent, tile=shared_tile, axc_base=axc_base)
            tenant = Tenant(workload, selector,
                            HostCore(config, self.host_mem,
                                     page_tables[pid], self.stats),
                            StrategyBinder(ctx))
            if selector.strategy is not None:
                tenant.binder.bind(selector.strategy)
            self.tenants.append(tenant)
            if shared_tile is not None:
                axc_base += workload.num_axcs
        #: InvocationTelemetry records, in run order (learning runs).
        self.telemetry = []
        #: Lease-event counts fed by CountingLeasePolicy wraps.
        self._lease_counts = {"renewal_misses": 0, "wasted_leases": 0}
        self._counted_tiles = set()
        self.replay_engine = None

    def run(self):
        """Execute every tenant's workload; returns a :class:`RunResult`."""
        now = 0
        # Act 1: the host allocates (calloc) every buffer and fills the
        # inputs, staging the working set in its LLC — identically for
        # every design, and excluded from the accelerator-region energy.
        for tenant in self.tenants:
            for base, size in tenant.workload.array_ranges.values():
                now = tenant.host_core.produce(base, size, now)
        produce_snapshot = self.stats.snapshot()
        accel_start = now
        now = self._accelerate(now)
        accel_cycles = now - accel_start
        for tenant in self.tenants:
            for base, size in tenant.workload.host_output_arrays:
                now = tenant.host_core.consume(base, size, now)
        return RunResult.from_system(self, accel_cycles=accel_cycles,
                                     total_cycles=now,
                                     energy_baseline=produce_snapshot)

    # -- act 2 ----------------------------------------------------------

    def _accelerate(self, now):
        """Run every invocation back to back, the tenants' streams
        interleaved round-robin; returns the end of the region."""
        step = self._step
        self.replay_engine = self._make_replay_engine()
        if self.replay_engine is not None:
            # Top rung of the fallback ladder: serve whole invocations
            # from the guarded replay cache (docs/simulator.md §11).
            step = self.replay_engine.run_invocation
        streams = [[(tenant, index, trace) for index, trace in
                    enumerate(tenant.workload.invocations)]
                   for tenant in self.tenants]
        for turn in itertools.zip_longest(*streams):
            for tenant, index, trace in filter(None, turn):
                now = step(tenant, index, trace, now)
        return now

    def _make_replay_engine(self):
        """The replay rung is offered to a run with one tenant whose
        selector is static and records no telemetry."""
        if not replay_mod.REPLAY_INVOCATIONS or len(self.tenants) != 1:
            return None
        tenant = self.tenants[0]
        strategy = tenant.selector.strategy
        if strategy is None or tenant.features is not None:
            return None
        adapter = tenant.binder.bind(strategy).replay_adapter(tenant,
                                                              strategy)
        if adapter is None:
            return None
        return replay_mod.InvocationReplayEngine(self, tenant, adapter)

    def _step(self, tenant, index, trace, now):
        """Select, bind, run and record one invocation; returns its end."""
        snapshot = self.stats.snapshot()
        end = self._execute(tenant, index, trace, now)
        self._record_invocation(trace, end - now, snapshot)
        return end

    def _execute(self, tenant, index, trace, now):
        strategy = tenant.selector.select(index, trace)
        bound = tenant.binder.bind(strategy)
        axc, mlp = tenant.axc_of(trace), tenant.mlp(trace)
        if tenant.features is None:
            end = bound.run(strategy, index, trace, now, axc=axc, mlp=mlp)
            tenant.selector.observe(index, trace, strategy, end - now,
                                    None)
            return end
        # A learning selector: measure the invocation and publish its
        # InvocationTelemetry (the stat keys deliberately avoid the
        # energy_pj / stall_cycles suffixes the extractors sum over).
        from ..policy.telemetry import telemetry_from_delta
        counts = self._lease_counts
        if strategy.family == "fusion" and \
                id(bound.tile) not in self._counted_tiles:
            # Lease expiries become visible without controller counters.
            self._counted_tiles.add(id(bound.tile))
            for l0x in bound.tile.l0xs:
                l0x.lease_policy = CountingLeasePolicy(l0x.lease_policy,
                                                       counts)
        before = self.stats.snapshot()
        expiries, wasted = counts["renewal_misses"], counts["wasted_leases"]
        end = bound.run(strategy, index, trace, now, axc=axc, mlp=mlp)
        cycles = end - now
        reuse, footprint = tenant.features[index]
        record = telemetry_from_delta(
            index, trace, strategy.key, cycles, self.stats.diff(before),
            reuse_distance=reuse, footprint_blocks=footprint,
            lease_expiries=counts["renewal_misses"] - expiries,
            wasted_leases=counts["wasted_leases"] - wasted)
        self.telemetry.append(record)
        self.stats.add("policy.inv.{}.cycles".format(index), cycles)
        self.stats.add(
            "policy.strategy.{}.invocations".format(strategy.key))
        tenant.selector.observe(index, trace, strategy, cycles, record)
        return end

    def _record_invocation(self, trace, cycles, start_snapshot):
        """Attribute cycles and energy to the function (Table 3 rows)."""
        delta = self.stats.diff(start_snapshot)
        energy = sum(value for key, value in delta.items()
                     if key.endswith("energy_pj"))
        self.stats.add("invocation.{}.cycles".format(trace.name), cycles)
        self.stats.add("invocation.{}.energy_pj".format(trace.name), energy)
        self.stats.add("invocation.{}.count".format(trace.name))


def preset(name, strategy, base=System):
    """A registry entry: a ``base`` subclass built as ``cls(config,
    workload, selector=None)`` that runs one tenant under the static
    ``strategy`` or, when ``strategy`` is None, under the selector
    ``config.policy`` describes.  A passed-in ``selector`` wins (bandit
    training hands one learning selector to several runs).  Each entry
    is its own class, so its ``__init__`` and ``run`` can be wrapped
    alone."""
    def __init__(self, config, workload, selector=None):
        if selector is None:
            from ..policy.selectors import StaticSelector, make_selector
            selector = (StaticSelector(strategy) if strategy is not None
                        else make_selector(config.policy, workload))
        base.__init__(self, config, [(workload, selector)])
    return type(name, (base,), {"name": name, "__init__": __init__})


def coresident(config, workloads, strategies=None, per_tile=False):
    """Several processes on one host, each running a static strategy
    (``strategies``, default ``fusion`` for all): FUSION-MT time-shares
    one PID-tagged tile, FUSION-2T (``per_tile``) gives each its own.

    On the shared tile, fusion-family tenants run on their slice of the
    tile's AXCs; other tenants bind their own machinery under the
    directory agent ``tenant<pid>``, and the DMA recall paths and
    named-agent forwards keep the mix coherent.  A tile per tenant is
    agent ``tile<pid>`` with its stats scoped under ``tile<pid>.``.
    """
    from ..policy.selectors import StaticSelector
    workloads = list(workloads)
    if strategies is None:
        strategies = ["fusion"] * len(workloads)
    elif len(strategies) != len(workloads):
        raise ValueError("{} strategies for {} workloads".format(
            len(strategies), len(workloads)))
    system = System(config, [(workload, StaticSelector(key))
                             for workload, key in zip(workloads,
                                                      strategies)],
                    per_tile=per_tile)
    system.name = "FUSION-2T" if per_tile else "FUSION-MT"
    return system
