"""Multi-tile FUSION: benchmarks joined by ``|`` get a tile each."""

import pytest

from repro.common.config import small_config
from repro.sim.engine import RunRequest
from repro.systems import System, build_system
from repro.workloads.registry import build_workload

def fusion_system(benchmark):
    request = RunRequest("FUSION", benchmark, "tiny", small_config())
    return build_system(request, lambda name: build_workload(name, "tiny"))


def per_tile():
    return fusion_system("adpcm|filter")


def shared_tile():
    return fusion_system("adpcm+filter")


def tiles_of(system):
    return [tenant.binder.bound_families["fusion"].tile
            for tenant in system.tenants]


def test_each_workload_gets_its_own_tile():
    system = per_tile()
    tiles = tiles_of(system)
    assert len(tiles) == 2
    assert tiles[0].name == "tile0"
    assert tiles[1].name == "tile1"
    result = system.run()
    assert result.benchmark == "adpcm|filter"
    assert result.accel_cycles > 0


def test_requires_a_workload():
    with pytest.raises(ValueError):
        System(small_config(), [], per_tile=True)


def test_tile_stats_are_namespaced():
    result = per_tile().run()
    assert result.stat("tile0.l1x.accesses") > 0
    assert result.stat("tile1.l1x.accesses") > 0
    assert "l1x.accesses" not in result.stats  # no un-namespaced leak


def test_energy_accounting_folds_namespaces():
    result = per_tile().run()
    folded = result.energy["l1x"]
    raw = (result.stat("tile0.l1x.energy_pj")
           + result.stat("tile1.l1x.energy_pj"))
    assert folded == pytest.approx(raw)
    assert folded > 0


def test_dedicated_tiles_eliminate_pid_conflicts():
    shared = shared_tile().run()
    dedicated = per_tile().run()
    assert shared.stat("l1x.pid_conflicts") > 0
    total_conflicts = sum(
        dedicated.stat("tile{}.l1x.pid_conflicts".format(i), 0)
        for i in range(2))
    assert total_conflicts == 0


def test_dedicated_tiles_beat_time_sharing():
    shared = shared_tile().run()
    dedicated = per_tile().run()
    assert dedicated.accel_cycles <= shared.accel_cycles


def test_both_tiles_register_as_mesi_agents():
    system = per_tile()
    assert set(system.host_mem.tile_agents) == {"tile0", "tile1"}
    assert system.host_mem.tile_agents["tile0"] is tiles_of(system)[0].l1x


def test_host_consume_pulls_from_the_right_tile():
    result = per_tile().run()
    # Each process's outputs were forwarded out of its own tile.
    assert result.stat("tile0.l1x.fwd_evictions") > 0
    assert result.stat("tile1.l1x.fwd_evictions") > 0


def test_inter_tile_exclusivity_recall():
    """If two tiles ever fetch the same physical block, the directory
    recalls the first tile's copy before granting the second."""
    from repro.common.stats import StatsRegistry
    from repro.coherence.mesi import HostMemorySystem
    from conftest import RecordingTileAgent
    mem = HostMemorySystem(small_config(), StatsRegistry())
    agent_a = RecordingTileAgent()
    agent_b = RecordingTileAgent()
    mem.register_tile("tile0", agent_a)
    mem.register_tile("tile1", agent_b)
    mem.fetch_for_tile(0x40, tile="tile0")
    mem.fetch_for_tile(0x40, tile="tile1")
    assert len(agent_a.requests) == 1   # recalled
    assert mem.directory.entry(0x40).owner == "tile1"
