"""Multi-tenant FUSION tile: PID tagging.

Processes that time-share one tile are one request: benchmarks joined
by ``+``, with one registry system for every tenant or one per tenant
(``repro.systems.resolve``).
"""

import pytest

from repro.common.config import small_config
from repro.common.errors import ConfigError
from repro.sim.engine import RunRequest
from repro.systems import SYSTEMS, System, build_system
from repro.workloads.registry import build_workload


def mt_system(names, systems="FUSION", size="tiny", config=None):
    request = RunRequest(systems, "+".join(names), size,
                         config or small_config())
    return build_system(request, lambda name: build_workload(name, size))


def run_mt(names, size="tiny"):
    return mt_system(names, size=size).run()


def test_two_processes_share_the_tile():
    result = run_mt(["adpcm", "filter"])
    assert result.benchmark == "adpcm+filter"
    assert result.accel_cycles > 0
    assert result.energy.total_pj > 0


def test_requires_a_workload():
    with pytest.raises(ValueError):
        System(small_config(), [])


def test_pid_conflicts_detected_on_shared_l1x():
    """Both processes allocate from the same virtual base, so their
    virtual lines collide in the virtually-indexed L1X; PID tags must
    turn those collisions into conflicts, never into aliased hits."""
    result = run_mt(["adpcm", "filter"])
    assert result.stat("l1x.pid_conflicts") > 0


def test_single_tenant_has_no_pid_conflicts():
    result = mt_system(["adpcm"]).run()
    assert result.stat("l1x.pid_conflicts") == 0


def test_every_process_runs_all_its_functions():
    wl_a = build_workload("adpcm", "tiny")
    wl_b = build_workload("filter", "tiny")
    result = run_mt(["adpcm", "filter"])
    expected = set(wl_a.function_names()) | set(wl_b.function_names())
    assert set(result.function_names()) == expected


def test_processes_use_disjoint_physical_frames():
    system = mt_system(["adpcm", "filter"])
    paddr_a = system.tenants[0].host_core.page_table.translate(0x10000)
    paddr_b = system.tenants[1].host_core.page_table.translate(0x10000)
    assert paddr_a != paddr_b


def test_isolation_no_cross_process_data_reuse():
    """Process B re-reading the same virtual addresses as process A must
    fetch its own physical copies: the L1X miss count for the pair is at
    least the sum of each process alone (sharing would make it lower)."""
    wl = build_workload("adpcm", "tiny")
    solo = SYSTEMS["FUSION"](small_config(), wl).run()
    pair = mt_system(["adpcm", "adpcm"]).run()
    assert pair.stat("l1x.misses") >= 2 * solo.stat("l1x.misses")


def test_multitenant_costs_more_than_sum_of_parts():
    """Time-sharing one tile thrashes the shared L1X: the pair's cycles
    exceed either solo run."""
    solo = SYSTEMS["FUSION"](small_config(),
                             build_workload("adpcm", "tiny")).run()
    pair = run_mt(["adpcm", "filter"])
    assert pair.accel_cycles > solo.accel_cycles


# -- per-tenant coherence strategies: one system per tenant ------------------

def run_mt_systems(systems, names=("adpcm", "filter"), lease=None):
    """``systems`` joined by ``+``; a POLICY tenant pins ``lease``."""
    config = small_config()
    if lease is not None:
        config = config.with_policy(
            static_strategy="fusion:lease={}".format(lease))
    return mt_system(names, systems, config=config).run()


def test_uniform_fusion_strategies_match_default_bit_for_bit():
    """Handing every tenant the plain fusion strategy must be the
    legacy multi-tenant path exactly — same cycles, same stats."""
    default = run_mt(["adpcm", "filter"])
    explicit = run_mt_systems("FUSION+FUSION")
    assert explicit == default


def test_strategies_length_must_match_workloads():
    with pytest.raises(ConfigError, match="2 systems for 1 benchmark"):
        mt_system(["adpcm"], "FUSION+SCRATCH")


def test_per_tenant_lease_changes_behaviour():
    default = run_mt(["adpcm", "filter"])
    leased = run_mt_systems("FUSION+POLICY", lease=100)
    assert leased.accel_cycles > 0
    assert leased.stats != default.stats


def test_scratch_tenant_beside_fusion_tenant():
    """One tenant on scratchpad DMA, one on the leased tile: the DMA
    tenant's traffic flows and the tile tenant still leases — on one
    host directory."""
    result = run_mt_systems("FUSION+SCRATCH")
    assert result.accel_cycles > 0
    assert result.stat("dma.bytes_in") > 0        # scratch tenant ran
    assert result.stat("l1x.accesses") > 0        # fusion tenant ran
    expected = set(build_workload("adpcm", "tiny").function_names()) | \
        set(build_workload("filter", "tiny").function_names())
    assert set(result.function_names()) == expected


def test_shared_tenant_beside_fusion_dx_tenant():
    result = run_mt_systems("FUSION-Dx+SHARED", ("fft", "adpcm"))
    assert result.accel_cycles > 0
    assert result.stat("l0x.axc0.lines_forwarded") > 0  # dx forwards
    assert result.stat("mesi.fwd_to_tile") > 0  # shared tenant recalls


def test_mixed_tenants_keep_pid_isolation():
    """The PID-conflict counter still fires for the tile-resident
    tenant when the other tenant lives off-tile."""
    result = run_mt_systems("FUSION+POLICY", lease=200)
    assert result.stat("l1x.pid_conflicts") > 0


def test_learning_tenant_beside_static_tenant():
    """Any tenant may carry any selector: a POLICY bandit tenant learns
    from its own invocations while a FUSION tenant shares the tile."""
    system = mt_system(["adpcm", "filter"], "FUSION+POLICY",
                       config=small_config().with_policy(selector="bandit"))
    result = system.run()
    assert result.system == "FUSION-MT"
    assert system.tenants[0].features is None
    assert len(system.telemetry) == len(
        build_workload("filter", "tiny").invocations)
