"""Lease policies (repro.coherence.lease_policy)."""

import pytest

from repro.coherence.lease_policy import (
    AdaptiveLeasePolicy,
    FixedLeasePolicy,
    make_policy,
)


def test_fixed_policy_is_identity():
    policy = FixedLeasePolicy()
    assert policy.lease_for(3, 500) == 500
    policy.on_renewal_miss(3)
    policy.on_wasted_lease(3)
    assert policy.lease_for(3, 500) == 500


def test_adaptive_doubles_on_renewal_miss():
    policy = AdaptiveLeasePolicy(num_sets=16)
    assert policy.lease_for(0, 400) == 400
    policy.on_renewal_miss(0)
    assert policy.lease_for(0, 400) == 800
    policy.on_renewal_miss(0)
    assert policy.lease_for(0, 400) == 1600


def test_adaptive_halves_on_wasted_lease():
    policy = AdaptiveLeasePolicy(num_sets=16)
    policy.on_wasted_lease(5)
    assert policy.lease_for(5, 400) == 200


def test_adaptive_bounds():
    policy = AdaptiveLeasePolicy(num_sets=4)
    for _ in range(10):
        policy.on_renewal_miss(1)
    assert policy.lease_for(1, 100) == 100 << policy.MAX_SHIFT
    for _ in range(20):
        policy.on_wasted_lease(1)
    assert policy.lease_for(1, 100) == 100 >> -policy.MIN_SHIFT


def test_adaptive_sets_are_independent():
    policy = AdaptiveLeasePolicy(num_sets=8)
    policy.on_renewal_miss(2)
    assert policy.lease_for(2, 100) == 200
    assert policy.lease_for(3, 100) == 100


def test_adaptive_counts_events():
    policy = AdaptiveLeasePolicy(num_sets=8)
    policy.on_renewal_miss(0)
    policy.on_wasted_lease(1)
    policy.on_wasted_lease(2)
    assert policy.renewal_misses == 1
    assert policy.wasted_leases == 2


def test_factory():
    assert isinstance(make_policy("fixed", 16), FixedLeasePolicy)
    assert isinstance(make_policy("adaptive", 16), AdaptiveLeasePolicy)
    with pytest.raises(ValueError):
        make_policy("oracle", 16)


def test_adaptive_reduces_renewal_misses_end_to_end():
    """On a lease-thrashing workload, the adaptive policy must cut L0X
    renewal misses relative to fixed short leases."""
    from repro.common.config import small_config
    from repro.systems import SYSTEMS
    from repro.workloads.registry import build_workload
    workload = build_workload("filter", "small")
    short = small_config().with_lease(40)
    fixed = SYSTEMS["FUSION"](short, workload).run()
    adaptive = SYSTEMS["FUSION"](short.with_lease_policy("adaptive"),
                                 workload).run()

    def misses(result):
        return sum(v for k, v in result.stats.items()
                   if k.startswith("l0x.axc") and k.endswith(".misses"))

    assert misses(adaptive) < misses(fixed)


# -- CountingLeasePolicy (the policy subsystem's telemetry tap) --------------

def test_counting_policy_delegates_and_counts():
    from repro.coherence.lease_policy import CountingLeasePolicy
    counts = {"renewal_misses": 0, "wasted_leases": 0}
    policy = CountingLeasePolicy(AdaptiveLeasePolicy(num_sets=8),
                                 counts)
    assert policy.name == "adaptive"
    policy.on_renewal_miss(2)
    policy.on_renewal_miss(2)
    policy.on_wasted_lease(5)
    assert counts == {"renewal_misses": 2, "wasted_leases": 1}
    # Arithmetic still the inner policy's: two misses doubled twice.
    assert policy.lease_for(2, 100) == 400
    assert policy.lease_for(5, 100) == 50
    # The inner policy saw every event too.
    assert policy.inner.renewal_misses == 2


def test_counting_policy_owns_counts_when_not_shared():
    from repro.coherence.lease_policy import CountingLeasePolicy
    policy = CountingLeasePolicy(FixedLeasePolicy())
    policy.on_wasted_lease(0)
    assert policy.counts["wasted_leases"] == 1
    assert policy.counts["renewal_misses"] == 0


# -- lease-length edge cases (against a real L0X controller) -----------------

def _counting_tile():
    """A two-L0X tile whose first L0X counts lease events."""
    from tests.test_acc import make_tile
    from repro.coherence.lease_policy import CountingLeasePolicy
    tile = make_tile()
    counts = {"renewal_misses": 0, "wasted_leases": 0}
    tile.l0xa.lease_policy = CountingLeasePolicy(
        tile.l0xa.lease_policy, counts)
    return tile, counts


def test_zero_length_lease_expires_at_grant():
    """A zero lease expires the moment the fill completes (the epoch
    end is the *grant* time plus the lease): every later access is a
    renewal miss, degenerating ACC to per-access L1X traffic — legal,
    just slow."""
    from tests.test_acc import load
    tile, counts = _counting_tile()
    latency = tile.l0xa.access(load(0x40), now=0, lease=0)
    line = tile.l0xa.cache.lookup(0x40, touch=False)
    assert line.lease <= latency            # dead on arrival
    now = line.lease
    for _ in range(3):
        tile.l0xa.access(load(0x40), now=now, lease=0)
        now = tile.l0xa.cache.lookup(0x40, touch=False).lease
    assert tile.stats.get("l0x.axc0.hits") == 0
    assert tile.stats.get("l0x.axc0.misses") == 4
    assert counts["renewal_misses"] == 3   # every re-request, post-cold


def test_renewal_exactly_at_epoch_boundary_is_a_miss():
    """``line.lease > now`` is strict: an access in the very cycle the
    epoch ends must take the renewal path (self-downgrade + re-acquire),
    not ride the stale lease."""
    from tests.test_acc import load
    tile, counts = _counting_tile()
    tile.l0xa.access(load(0x40), now=0, lease=500)
    line = tile.l0xa.cache.lookup(0x40, touch=False)
    end = line.lease
    tile.l0xa.access(load(0x44), now=end - 1, lease=500)  # last cycle
    assert tile.stats.get("l0x.axc0.hits") == 1
    assert counts["renewal_misses"] == 0
    tile.l0xa.access(load(0x48), now=end, lease=500)      # boundary
    assert tile.stats.get("l0x.axc0.misses") == 2
    assert counts["renewal_misses"] == 1


def test_lease_longer_than_invocation_never_renews():
    """A lease outlasting the whole invocation yields zero renewal
    misses end-to-end (the other extreme of the lease tradeoff)."""
    from repro.common.config import small_config
    from repro.systems import SYSTEMS
    from repro.workloads.registry import build_workload
    config = small_config().with_policy(
        selector="schedule", schedule=("fusion:lease=1000000000",))
    system = SYSTEMS["POLICY"](config, build_workload("fft", "tiny"))
    system.run()
    assert sum(r.lease_expiries for r in system.telemetry) == 0
    # The short-lease extreme on the same workload renews constantly.
    short = SYSTEMS["POLICY"](
        small_config().with_policy(selector="schedule",
                                   schedule=("fusion:lease=1",)),
        build_workload("fft", "tiny"))
    short.run()
    assert sum(r.lease_expiries for r in short.telemetry) > 0


def test_adaptive_policy_with_zero_default_lease_stays_zero():
    """Doubling a zero lease is still zero — the adaptive policy cannot
    rescue a degenerate base lease (it scales, never adds)."""
    policy = AdaptiveLeasePolicy(num_sets=4)
    policy.on_renewal_miss(0)
    policy.on_renewal_miss(0)
    assert policy.lease_for(0, 0) == 0


# -- one lease rule for every system (repro.accel.tile.invocation_lease) -----

@pytest.mark.parametrize("override", (0, 50))
@pytest.mark.parametrize("per_tile", (False, True))
def test_one_tenant_coresident_run_honours_lease_override(override,
                                                          per_tile):
    """A one-tenant run of the co-resident machinery is FUSION: same
    cycles and energy, whether or not ``lease_override`` replaces the
    functions' leases."""
    import dataclasses
    from repro.common.config import small_config
    from repro.policy.selectors import StaticSelector
    from repro.systems import SYSTEMS, System
    from repro.workloads.registry import build_workload
    config = small_config()
    config = dataclasses.replace(config, tile=dataclasses.replace(
        config.tile, lease_override=override))
    workload = build_workload("histogram", "tiny")
    fusion = SYSTEMS["FUSION"](config, workload).run()
    alone = System(config, [(workload, StaticSelector("fusion"))],
                   per_tile=per_tile).run()
    assert alone.accel_cycles == fusion.accel_cycles
    assert alone.energy.total_pj == fusion.energy.total_pj


def _zero_lease_chain():
    """Four functions on four AXCs, each reading what the previous one
    wrote, every lease zero: one dependence chain, nothing overlaps."""
    from repro.common.types import AccessType, ComputeOp, FunctionTrace, \
        MemOp, WorkloadTrace
    base = 0x10000
    invocations = []
    for step in range(8):
        ops = [MemOp(AccessType.LOAD, base + 64 * ((step + i) % 12))
               for i in range(6)]
        ops += [ComputeOp(int_ops=3),
                MemOp(AccessType.STORE, base + 64 * ((step + 6) % 12))]
        invocations.append(FunctionTrace(
            name="fn{}".format(step % 4), benchmark="chain", ops=ops,
            lease_time=0))
    return WorkloadTrace(
        benchmark="chain", invocations=invocations,
        host_input_arrays=[(base, 12 * 64)],
        host_output_arrays=[(base, 12 * 64)],
        array_ranges={"pool": (base, 12 * 64)})


def test_pipelined_keeps_a_zero_lease_like_fusion():
    """With nothing to overlap, FUSION-PIPE is FUSION exactly — a zero
    function lease stays zero instead of becoming ``default_lease``."""
    import dataclasses
    from repro.common.config import small_config
    from repro.systems import SYSTEMS
    from repro.workloads.dependence import invocation_dependences
    workload = _zero_lease_chain()
    deps = invocation_dependences(workload)
    assert all(index - 1 in deps[index]
               for index in range(1, len(workload.invocations)))
    fusion = SYSTEMS["FUSION"](small_config(), workload).run()
    pipelined = SYSTEMS["FUSION-PIPE"](small_config(), workload).run()
    assert dataclasses.replace(pipelined, system="FUSION") == fusion
