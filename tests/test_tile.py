"""The FUSION accelerator tile (repro.accel.tile)."""

from repro.accel.tile import AcceleratorTile
from repro.common.config import small_config
from repro.common.stats import StatsRegistry
from repro.common.types import AccessType, FunctionTrace, MemOp
from repro.coherence.mesi import HostMemorySystem
from repro.mem.tlb import PageTable


def make_tile(num_axcs=2):
    config = small_config()
    stats = StatsRegistry()
    mem = HostMemorySystem(config, stats)
    tile = AcceleratorTile(config, mem, PageTable(), num_axcs, stats)
    return tile, stats


def trace(ops, lease=500):
    return FunctionTrace(name="f", benchmark="b", ops=ops,
                         lease_time=lease)


def load(addr):
    return MemOp(AccessType.LOAD, addr)


def store(addr):
    return MemOp(AccessType.STORE, addr)


def test_tile_registers_as_mesi_agent():
    tile, _ = make_tile()
    assert tile.l1x.host.tile_agent is tile.l1x


def test_run_invocation_advances_time_and_flushes():
    tile, stats = make_tile()
    end = tile.run_invocation(0, trace([store(0x40), load(0x80)]), 0,
                              mlp=2)
    assert end > 0
    # The dirty store was flushed at the end.
    assert stats.get("l1x.l0x_writebacks") == 1
    assert not tile.l0xs[0].cache.dirty_lines()


def test_invocations_share_the_l1x():
    tile, stats = make_tile()
    end = tile.run_invocation(0, trace([store(0x40)]), 0, mlp=1)
    tile.run_invocation(1, trace([load(0x40)]), end, mlp=1)
    # AXC-1 found the data inside the tile: one host fetch total.
    assert stats.get("l1x.misses") == 1


def test_forward_plan_routes_dirty_lines():
    tile, stats = make_tile()
    plan = [(0x40, 1)]
    end = tile.run_invocation(0, trace([store(0x40), store(0x80)]), 0,
                              mlp=1, forward_plan=plan)
    assert stats.get("l0x.axc0.lines_forwarded") == 1
    assert stats.get("l0x.axc0.writebacks") == 1  # the unplanned block
    tile.run_invocation(1, trace([load(0x40)]), end, mlp=1)
    assert stats.get("l0x.axc1.forward_hits") == 1


def test_forward_plan_ignores_self_forwards():
    tile, stats = make_tile()
    tile.run_invocation(0, trace([store(0x40)]), 0, mlp=1,
                        forward_plan=[(0x40, 0)])
    assert stats.get("l0x.axc0.lines_forwarded") == 0
    assert stats.get("l0x.axc0.writebacks") == 1


def test_hook_removed_after_invocation():
    tile, _ = make_tile()
    tile.run_invocation(0, trace([store(0x40)]), 0, mlp=1,
                        forward_plan=[(0x40, 1)])
    assert tile.l0xs[0].forward_hook is None


def test_default_lease_fallback():
    """A function that assigns no lease gets ``default_lease``; a zero
    lease stays zero (``repro.accel.tile.invocation_lease``)."""
    expiry = {}
    for lease_time in (None, 0):
        tile, _ = make_tile()
        tile.run_invocation(0, trace([load(0x40)], lease=lease_time), 0,
                            mlp=1)
        expiry[lease_time] = tile.l0xs[0].cache.lookup(
            0x40, touch=False).lease
    assert expiry[None] - expiry[0] == small_config().tile.default_lease
