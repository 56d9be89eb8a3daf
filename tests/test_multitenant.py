"""Multi-tenant FUSION tile: PID tagging (repro.systems.coresident)."""

import pytest

from repro.common.config import small_config
from repro.systems import SYSTEMS, coresident
from repro.workloads.registry import build_workload


def run_mt(names, size="tiny"):
    workloads = [build_workload(name, size) for name in names]
    return coresident(small_config(), workloads).run()


def test_two_processes_share_the_tile():
    result = run_mt(["adpcm", "filter"])
    assert result.benchmark == "adpcm+filter"
    assert result.accel_cycles > 0
    assert result.energy.total_pj > 0


def test_requires_a_workload():
    with pytest.raises(ValueError):
        coresident(small_config(), [])


def test_pid_conflicts_detected_on_shared_l1x():
    """Both processes allocate from the same virtual base, so their
    virtual lines collide in the virtually-indexed L1X; PID tags must
    turn those collisions into conflicts, never into aliased hits."""
    result = run_mt(["adpcm", "filter"])
    assert result.stat("l1x.pid_conflicts") > 0


def test_single_tenant_has_no_pid_conflicts():
    workload = build_workload("adpcm", "tiny")
    result = coresident(small_config(), [workload]).run()
    assert result.stat("l1x.pid_conflicts") == 0


def test_every_process_runs_all_its_functions():
    wl_a = build_workload("adpcm", "tiny")
    wl_b = build_workload("filter", "tiny")
    result = run_mt(["adpcm", "filter"])
    expected = set(wl_a.function_names()) | set(wl_b.function_names())
    assert set(result.function_names()) == expected


def test_processes_use_disjoint_physical_frames():
    wl = [build_workload("adpcm", "tiny"),
          build_workload("filter", "tiny")]
    system = coresident(small_config(), wl)
    paddr_a = system.tenants[0].host_core.page_table.translate(0x10000)
    paddr_b = system.tenants[1].host_core.page_table.translate(0x10000)
    assert paddr_a != paddr_b


def test_isolation_no_cross_process_data_reuse():
    """Process B re-reading the same virtual addresses as process A must
    fetch its own physical copies: the L1X miss count for the pair is at
    least the sum of each process alone (sharing would make it lower)."""
    wl = build_workload("adpcm", "tiny")
    solo = SYSTEMS["FUSION"](small_config(), wl).run()
    pair = coresident(small_config(), [wl, wl]).run()
    assert pair.stat("l1x.misses") >= 2 * solo.stat("l1x.misses")


def test_multitenant_costs_more_than_sum_of_parts():
    """Time-sharing one tile thrashes the shared L1X: the pair's cycles
    exceed either solo run."""
    solo = SYSTEMS["FUSION"](small_config(),
                             build_workload("adpcm", "tiny")).run()
    pair = run_mt(["adpcm", "filter"])
    assert pair.accel_cycles > solo.accel_cycles


# -- per-tenant coherence strategies (multitenant strategy handoff) ----------

def run_mt_strategies(names, strategies, size="tiny"):
    workloads = [build_workload(name, size) for name in names]
    return coresident(small_config(), workloads,
                      strategies=strategies).run()


def test_uniform_fusion_strategies_match_default_bit_for_bit():
    """Handing every tenant the plain fusion strategy must be the
    legacy multi-tenant path exactly — same cycles, same stats."""
    default = run_mt(["adpcm", "filter"])
    explicit = run_mt_strategies(["adpcm", "filter"],
                                 ("fusion", "fusion"))
    assert explicit == default


def test_strategies_length_must_match_workloads():
    workloads = [build_workload("adpcm", "tiny")]
    with pytest.raises(ValueError, match="1 workloads"):
        coresident(small_config(), workloads,
                   strategies=("fusion", "scratch"))


def test_per_tenant_lease_changes_behaviour():
    default = run_mt(["adpcm", "filter"])
    leased = run_mt_strategies(["adpcm", "filter"],
                               ("fusion", "fusion:lease=100"))
    assert leased.accel_cycles > 0
    assert leased.stats != default.stats


def test_scratch_tenant_beside_fusion_tenant():
    """One tenant on scratchpad DMA, one on the leased tile: the DMA
    tenant's traffic flows and the tile tenant still leases — on one
    host directory."""
    result = run_mt_strategies(["adpcm", "filter"],
                               ("fusion", "scratch"))
    assert result.accel_cycles > 0
    assert result.stat("dma.bytes_in") > 0        # scratch tenant ran
    assert result.stat("l1x.accesses") > 0        # fusion tenant ran
    expected = set(build_workload("adpcm", "tiny").function_names()) | \
        set(build_workload("filter", "tiny").function_names())
    assert set(result.function_names()) == expected


def test_shared_tenant_beside_fusion_dx_tenant():
    result = run_mt_strategies(["fft", "adpcm"],
                               ("fusion-dx", "shared"))
    assert result.accel_cycles > 0
    assert result.stat("l0x.axc0.lines_forwarded") > 0  # dx forwards
    assert result.stat("mesi.fwd_to_tile") > 0  # shared tenant recalls


def test_mixed_tenants_keep_pid_isolation():
    """The PID-conflict counter still fires for the tile-resident
    tenant when the other tenant lives off-tile."""
    result = run_mt_strategies(["adpcm", "filter"],
                               ("fusion", "fusion:lease=200"))
    assert result.stat("l1x.pid_conflicts") > 0
