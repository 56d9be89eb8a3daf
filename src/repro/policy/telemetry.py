"""Per-invocation telemetry the policy selectors learn from.

One :class:`InvocationTelemetry` record summarises what one invocation
cost under the strategy that ran it, combining *trace-derived* features
(reuse distance, footprint — known before the invocation runs, hence
usable as bandit context) with *observed* outcomes (cycles, energy,
lease expiries, contention stalls — known only afterwards, hence the
reward signal).

Observed fields are extracted from a stats-registry delta so the
production controllers need no new counters (the golden grids pin their
complete stats dicts); lease events come from the
:class:`repro.coherence.lease_policy.CountingLeasePolicy` decorator the
policy system installs on its fusion tile.
"""

from dataclasses import dataclass


@dataclass
class InvocationTelemetry:
    """What one invocation cost under one coherence strategy."""

    #: Invocation index in program order.
    index: int
    #: Accelerated function name.
    function: str
    #: Strategy key that ran it (see ``make_strategy``).
    strategy: str
    #: Invocation latency, cycles (flushes included).
    cycles: float
    #: Energy attributed to the invocation, pJ.
    energy_pj: float
    #: Invocations back to the nearest earlier toucher of this
    #: footprint (-1 = first touch).
    reuse_distance: int
    #: Touched cache blocks.
    footprint_blocks: int
    #: ACC leases that expired and were re-requested (renewal misses).
    lease_expiries: int
    #: Live-leased lines evicted for capacity.
    wasted_leases: int
    #: Cycles lost to contention (write-epoch, GTIME and MLP stalls).
    contention_stalls: float


def telemetry_from_delta(index, trace, strategy_key, cycles, delta,
                         reuse_distance, footprint_blocks,
                         lease_expiries=0, wasted_leases=0):
    """Build a record from a per-invocation stats delta.

    ``delta`` is ``stats.diff(snapshot_before)``; energy and contention
    are recovered from counter-name suffixes (every energy counter ends
    in ``energy_pj``, every stall-time counter in ``stall_cycles``),
    mirroring how ``System._record_invocation`` attributes energy.
    """
    energy = 0.0
    stalls = 0.0
    for key, value in delta.items():
        if key.endswith("energy_pj"):
            energy += value
        elif key.endswith("stall_cycles"):
            stalls += value
    return InvocationTelemetry(
        index=index, function=trace.name, strategy=strategy_key,
        cycles=cycles, energy_pj=energy, reuse_distance=reuse_distance,
        footprint_blocks=footprint_blocks, lease_expiries=lease_expiries,
        wasted_leases=wasted_leases, contention_stalls=stalls)
