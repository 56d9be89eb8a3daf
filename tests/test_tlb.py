"""Virtual memory: page table and AX-TLB (repro.mem.tlb)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import TranslationError
from repro.common.stats import StatsRegistry
from repro.mem.tlb import PAGE_SIZE, WALK_LATENCY, AxTlb, PageTable


def test_translate_preserves_offset():
    pt = PageTable()
    paddr = pt.translate(0x1234)
    assert paddr % PAGE_SIZE == 0x234


def test_translate_is_stable():
    pt = PageTable()
    assert pt.translate(0x5000) == pt.translate(0x5000)


def test_distinct_pages_map_distinct_frames():
    pt = PageTable()
    assert (pt.translate(0x1000) // PAGE_SIZE
            != pt.translate(0x2000) // PAGE_SIZE)


def test_reverse_roundtrip():
    pt = PageTable()
    paddr = pt.translate(0xABC123)
    assert pt.reverse(paddr) == 0xABC123


def test_reverse_unmapped_raises():
    pt = PageTable()
    with pytest.raises(TranslationError):
        pt.reverse(0xDEAD000)


def test_pids_do_not_alias():
    a = PageTable(pid=0)
    b = PageTable(pid=1)
    assert a.translate(0x1000) != b.translate(0x1000)


@given(st.integers(0, 3), st.lists(st.integers(0, (1 << 40) - 1),
                                    min_size=1, max_size=20))
@settings(max_examples=50)
def test_translation_is_affine(pid, vaddrs):
    """``translate(v) == v + offset`` on pages mapped for the first time
    and on pages mapped before, for every pid."""
    pt = PageTable(pid=pid)
    for vaddr in vaddrs + vaddrs:
        assert pt.translate(vaddr) == vaddr + pt.offset


def make_tlb(entries=2):
    stats = StatsRegistry()
    return AxTlb(PageTable(), entries, stats), stats


def test_tlb_miss_then_hit_latency():
    tlb, stats = make_tlb()
    _, miss_latency = tlb.translate(0x1000)
    _, hit_latency = tlb.translate(0x1004)
    assert miss_latency == 1 + WALK_LATENCY
    assert hit_latency == 1
    assert stats.get("ax_tlb.misses") == 1
    assert stats.get("ax_tlb.hits") == 1


def test_tlb_translation_matches_page_table():
    pt = PageTable()
    tlb = AxTlb(pt, 4, StatsRegistry())
    paddr, _ = tlb.translate(0x1238)
    assert paddr == pt.translate(0x1238)


def test_tlb_lru_capacity():
    tlb, stats = make_tlb(entries=2)
    tlb.translate(0x1000)   # miss
    tlb.translate(0x2000)   # miss
    tlb.translate(0x1000)   # hit, refreshes
    tlb.translate(0x3000)   # miss, evicts 0x2000
    _, latency = tlb.translate(0x2000)
    assert latency == 1 + WALK_LATENCY
    assert stats.get("ax_tlb.lookups") == 5


def test_tlb_counts_lookup_energy():
    tlb, stats = make_tlb()
    tlb.translate(0)
    assert stats.get("ax_tlb.energy_pj") > 0
