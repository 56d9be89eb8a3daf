"""The ACC lease protocol (repro.coherence.acc) — FUSION's core."""

from collections import namedtuple

import pytest

from repro.common.config import WritePolicy, small_config
from repro.common.stats import StatsRegistry
from repro.common.types import AccessType, MemOp
from repro.coherence.acc import AccL0XController, AccL1XController
from repro.coherence.mesi import HostMemorySystem
from repro.interconnect.link import Link
from repro.mem.tlb import PageTable

Tile = namedtuple("Tile", "l1x l0xa l0xb mem stats page_table")

#: Stride between addresses that share an L0X set (4 kB 4-way, 16 sets).
L0X_SET_STRIDE = 64 * 16
#: Stride between addresses that share an L1X set (64 kB 8-way, 128 sets).
L1X_SET_STRIDE = 64 * 128

LEASE = 500


def make_tile(config=None):
    config = config or small_config()
    stats = StatsRegistry()
    mem = HostMemorySystem(config, stats)
    page_table = PageTable()
    l1x = AccL1XController(config, mem, page_table, stats)
    mem.tile_agent = l1x
    axc_link = Link("axc_l1x", config.link.axc_l1x_pj_per_byte, stats)
    fwd_link = Link("fwd", config.link.l0x_l0x_pj_per_byte, stats)
    l0xa = AccL0XController(0, config, l1x, axc_link, fwd_link, stats)
    l0xb = AccL0XController(1, config, l1x, axc_link, fwd_link, stats)
    return Tile(l1x, l0xa, l0xb, mem, stats, page_table)


def load(addr):
    return MemOp(AccessType.LOAD, addr)


def store(addr):
    return MemOp(AccessType.STORE, addr)


# -- basic epochs ------------------------------------------------------------

def test_load_miss_fills_both_levels_then_hits():
    tile = make_tile()
    miss_latency = tile.l0xa.access(load(0x40), now=0, lease=LEASE)
    assert tile.stats.get("l0x.axc0.misses") == 1
    assert tile.l1x.cache.contains(0x40)
    assert tile.l0xa.cache.contains(0x40)
    hit_latency = tile.l0xa.access(load(0x44), now=10, lease=LEASE)
    assert tile.stats.get("l0x.axc0.hits") == 1
    assert hit_latency < miss_latency


def test_lease_expiry_is_the_invalidation():
    tile = make_tile()
    tile.l0xa.access(load(0x40), now=0, lease=LEASE)
    line = tile.l0xa.cache.lookup(0x40, touch=False)
    # Past the lease the line is invalid even though it is resident.
    tile.l0xa.access(load(0x40), now=line.lease + 1, lease=LEASE)
    assert tile.stats.get("l0x.axc0.misses") == 2


def test_read_epoch_sets_gtime():
    tile = make_tile()
    tile.l0xa.access(load(0x40), now=0, lease=LEASE)
    line = tile.l1x.cache.lookup(0x40, touch=False)
    assert line.gtime is not None and line.gtime >= LEASE


def test_gtime_is_max_over_epochs():
    tile = make_tile()
    tile.l0xa.access(load(0x40), now=0, lease=LEASE)
    first_gtime = tile.l1x.cache.lookup(0x40, touch=False).gtime
    # A later epoch extends GTIME; an earlier one must never shrink it.
    tile.l0xb.access(load(0x40), now=first_gtime, lease=LEASE)
    second_gtime = tile.l1x.cache.lookup(0x40, touch=False).gtime
    assert second_gtime >= first_gtime + LEASE


def test_concurrent_read_epochs_do_not_stall():
    tile = make_tile()
    tile.l0xa.access(load(0x40), now=0, lease=LEASE)
    tile.l0xb.access(load(0x40), now=1, lease=LEASE)
    assert tile.stats.get("l1x.write_epoch_stalls") == 0


# -- write epochs -------------------------------------------------------------

def test_store_miss_takes_write_epoch_and_locks():
    tile = make_tile()
    tile.l0xa.access(store(0x40), now=0, lease=LEASE)
    line = tile.l1x.cache.lookup(0x40, touch=False)
    assert line.write_epoch_end is not None
    assert tile.stats.get("l1x.write_epochs") == 1
    assert tile.l0xa.cache.lookup(0x40, touch=False).state == "W"
    assert tile.l0xa.cache.lookup(0x40, touch=False).dirty


def test_reader_stalls_on_foreign_write_epoch():
    tile = make_tile()
    tile.l0xa.access(store(0x40), now=0, lease=LEASE)
    latency = tile.l0xb.access(load(0x40), now=10, lease=LEASE)
    assert tile.stats.get("l1x.write_epoch_stalls") == 1
    assert latency > LEASE / 2  # stalled until the epoch expires


def test_writeback_releases_the_lock():
    tile = make_tile()
    tile.l0xa.access(store(0x40), now=0, lease=LEASE)
    tile.l0xa.flush_dirty(now=50)
    line = tile.l1x.cache.lookup(0x40, touch=False)
    assert line.write_epoch_end is None
    assert line.dirty
    tile.l0xb.access(load(0x40), now=60, lease=LEASE)
    assert tile.stats.get("l1x.write_epoch_stalls") == 0


def test_store_on_read_lease_upgrades():
    tile = make_tile()
    tile.l0xa.access(load(0x40), now=0, lease=LEASE)
    tile.l0xa.access(store(0x40), now=10, lease=LEASE)
    assert tile.stats.get("l0x.axc0.upgrades") == 1
    assert tile.stats.get("l1x.write_epochs") == 1
    assert tile.l0xa.cache.lookup(0x40, touch=False).state == "W"


def test_write_through_store_updates_l1x_directly():
    config = small_config().with_l0x_write_policy(WritePolicy.WRITE_THROUGH)
    tile = make_tile(config)
    tile.l0xa.access(store(0x40), now=0, lease=LEASE)
    assert tile.stats.get("l1x.write_through_updates") == 1
    assert tile.stats.get("link.axc_l1x.write_flits") == 1
    # The L0X line stays clean: nothing to write back later.
    assert not tile.l0xa.cache.lookup(0x40, touch=False).dirty
    assert tile.l1x.cache.lookup(0x40, touch=False).dirty


# -- self-downgrade ------------------------------------------------------------

def test_capacity_eviction_writes_back_dirty_line():
    tile = make_tile()
    ways = tile.l0xa.config.ways
    for i in range(ways + 1):
        tile.l0xa.access(store(0x40 + i * L0X_SET_STRIDE), now=i,
                         lease=LEASE)
    assert tile.stats.get("l0x.axc0.writebacks") == 1
    assert tile.stats.get("l1x.l0x_writebacks") == 1


def test_clean_lines_drop_silently():
    tile = make_tile()
    ways = tile.l0xa.config.ways
    before = tile.stats.get("link.axc_l1x.data_transfers")
    for i in range(ways + 1):
        tile.l0xa.access(load(0x40 + i * L0X_SET_STRIDE), now=i,
                         lease=LEASE)
    # Only fills crossed the link; the clean victim sent nothing.
    after = tile.stats.get("link.axc_l1x.data_transfers")
    assert after - before == ways + 1
    assert tile.stats.get("l0x.axc0.writebacks") == 0


def test_flush_dirty_cleans_but_keeps_lines():
    tile = make_tile()
    tile.l0xa.access(store(0x40), now=0, lease=LEASE)
    tile.l0xa.access(store(0x80), now=1, lease=LEASE)
    tile.l0xa.flush_dirty(now=10)
    assert tile.stats.get("l0x.axc0.writebacks") == 2
    assert tile.l0xa.cache.contains(0x40)
    assert not tile.l0xa.cache.lookup(0x40, touch=False).dirty
    # A re-read within the lease still hits.
    tile.l0xa.access(load(0x40), now=20, lease=LEASE)
    assert tile.stats.get("l0x.axc0.hits") == 1


def test_expired_dirty_line_self_downgrades_before_renewal():
    tile = make_tile()
    tile.l0xa.access(store(0x40), now=0, lease=LEASE)
    expiry = tile.l0xa.cache.lookup(0x40, touch=False).lease
    tile.l0xa.access(load(0x40), now=expiry + 1, lease=LEASE)
    assert tile.stats.get("l0x.axc0.writebacks") == 1
    assert tile.l1x.cache.lookup(0x40, touch=False).dirty


# -- MESI integration ------------------------------------------------------------

def test_forwarded_request_is_filtered_from_l0x():
    tile = make_tile()
    tile.l0xa.access(load(0x40), now=0, lease=LEASE)
    pblock = tile.l1x.cache.lookup(0x40, touch=False).paddr
    stall, dirty = tile.l1x.handle_forwarded_request(pblock, now=LEASE * 2,
                                                     is_store=False)
    assert not dirty
    assert stall == 0  # gtime already expired
    assert not tile.l1x.cache.contains(0x40)
    # The private L0X was never probed — its (stale, lease-bounded)
    # copy is untouched, exactly the paper's filtering property.
    assert tile.l0xa.cache.contains(0x40)
    assert tile.stats.get("l1x.fwd_evictions") == 1


def test_forwarded_request_stalls_until_gtime():
    tile = make_tile()
    tile.l0xa.access(load(0x40), now=0, lease=LEASE)
    line = tile.l1x.cache.lookup(0x40, touch=False)
    stall, _ = tile.l1x.handle_forwarded_request(line.paddr, now=10,
                                                 is_store=True)
    assert stall == line.gtime - 10
    assert tile.stats.get("l1x.fwd_gtime_stalls") == 1


def test_forwarded_request_reports_dirty_data():
    tile = make_tile()
    tile.l0xa.access(store(0x40), now=0, lease=LEASE)
    tile.l0xa.flush_dirty(now=10)
    line = tile.l1x.cache.lookup(0x40, touch=False)
    _, dirty = tile.l1x.handle_forwarded_request(line.paddr,
                                                 now=LEASE * 2,
                                                 is_store=False)
    assert dirty


def test_forwarded_request_for_uncached_block_tolerated():
    tile = make_tile()
    stall, dirty = tile.l1x.handle_forwarded_request(0x999000, now=0,
                                                     is_store=False)
    assert (stall, dirty) == (0, False)
    assert tile.stats.get("l1x.fwd_misses") == 1


def test_l1x_eviction_stalls_on_live_gtime():
    tile = make_tile()
    ways = tile.l1x.config.ways
    for i in range(ways + 1):
        tile.l0xa.access(load(0x40 + i * L1X_SET_STRIDE), now=i,
                         lease=10_000)
    assert tile.stats.get("l1x.gtime_eviction_stalls") >= 1
    assert tile.stats.get("l1x.evictions") == 1


def test_ax_tlb_touched_only_on_l1x_misses():
    tile = make_tile()
    tile.l0xa.access(load(0x40), now=0, lease=LEASE)
    assert tile.stats.get("ax_tlb.lookups") == 1
    tile.l0xb.access(load(0x40), now=1, lease=LEASE)  # L1X hit
    assert tile.stats.get("ax_tlb.lookups") == 1


def test_late_writeback_after_l1x_eviction():
    tile = make_tile()
    tile.l0xa.access(load(0x40), now=0, lease=LEASE)
    tile.l1x.cache.invalidate(0x40)  # simulate a crossed eviction
    latency = tile.l1x.writeback_from_l0x(0x40, now=0)
    assert latency > 0
    assert tile.stats.get("l1x.late_writebacks") == 1


# -- FUSION-Dx forwarding ------------------------------------------------------------

def forward(tile, vblock, now):
    """Forward producer A's resident line ``vblock`` to consumer B."""
    line = tile.l0xa.cache.lookup(vblock, touch=False)
    tile.l0xa.forward_line_obj(line, tile.l0xb, now)


def test_forward_line_delivers_pending_hit():
    tile = make_tile()
    tile.l0xa.access(store(0x40), now=0, lease=LEASE)
    forward(tile, 0x40, now=10)
    assert tile.stats.get("l0x.axc0.lines_forwarded") == 1
    assert tile.stats.get("link.fwd.data_transfers") == 1
    # Producer no longer holds the line; consumer's first touch hits.
    assert not tile.l0xa.cache.contains(0x40)
    tile.l0xb.access(load(0x40), now=20, lease=LEASE)
    assert tile.stats.get("l0x.axc1.forward_hits") == 1
    assert tile.stats.get("l0x.axc1.misses") == 0
    assert tile.l0xb.cache.lookup(0x40, touch=False).dirty


def test_forward_line_refuses_clean_or_absent():
    """The forward hook is offered dirty lines only: a clean line and
    an absent block leave the self-downgrade with nothing to forward."""
    tile = make_tile()
    offered = []
    tile.l0xa.forward_hook = lambda l0x, line, now: offered.append(line)
    tile.l0xa.flush_dirty(now=0)
    tile.l0xa.access(load(0x40), now=0, lease=LEASE)
    tile.l0xa.flush_dirty(now=10)
    assert not offered
    assert tile.stats.get("l0x.axc0.lines_forwarded") == 0


def test_forward_hook_fires_on_self_downgrade():
    tile = make_tile()

    def hook(l0x, line, now):
        l0x.forward_line_obj(line, tile.l0xb, now)
        return True

    tile.l0xa.forward_hook = hook
    tile.l0xa.access(store(0x40), now=0, lease=LEASE)
    tile.l0xa.flush_dirty(now=10)
    # Forwarded, not written back.
    assert tile.stats.get("l0x.axc0.writebacks") == 0
    assert tile.stats.get("l0x.axc0.lines_forwarded") == 1
    assert not tile.l1x.cache.lookup(0x40, touch=False).dirty


def test_unclaimed_forward_drains_at_consumer_flush():
    tile = make_tile()
    tile.l0xa.access(store(0x40), now=0, lease=LEASE)
    forward(tile, 0x40, now=10)
    tile.l0xb.flush_dirty(now=20)  # consumer never touched the block
    assert tile.stats.get("l0x.axc1.unclaimed_forwards") == 1
    assert tile.l1x.cache.lookup(0x40, touch=False).dirty


# -- synonyms ------------------------------------------------------------------

def test_synonym_evicted_from_tile():
    tile = make_tile()
    vaddr_a = 0x40
    # Map a second virtual page onto the first one's frame; the synonym
    # must share the page offset to alias at block granularity.
    paddr = tile.page_table.translate(vaddr_a)
    vaddr_b = 0x200040
    vpn_b = vaddr_b >> 12
    tile.page_table._map[vpn_b] = paddr >> 12
    tile.l0xa.access(load(vaddr_a), now=0, lease=LEASE)
    assert tile.l1x.cache.contains(vaddr_a)
    tile.l0xb.access(load(vaddr_b), now=1, lease=LEASE)
    # Only one synonym may live in the tile (Appendix rule).
    assert not tile.l1x.cache.contains(vaddr_a)
    assert tile.l1x.cache.contains(vaddr_b)
    assert tile.stats.get("ax_rmap.synonym_evictions") == 1
