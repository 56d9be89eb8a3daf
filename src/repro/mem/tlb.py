"""Virtual memory: page table and the accelerator tile's AX-TLB.

FUSION runs the accelerator tile on virtual addresses and places a TLB
(AX-TLB) on the shared L1X's *miss path*, off the accelerators' critical
path (Section 3.2, Lesson 8).  Table 6 counts its lookups.
"""

from ..common.errors import TranslationError

PAGE_SIZE = 4096
PAGE_SHIFT = 12

#: Physical frames start at this offset so that virtual and physical
#: addresses are visibly distinct in traces and tests.
PHYSICAL_BASE_FRAME = 1 << 20

#: Latency of a page-table walk on an AX-TLB miss, cycles.
WALK_LATENCY = 40

#: Per-lookup energy anchors (pJ); small relative to cache accesses —
#: the paper reports < 1 % of energy in AX-TLB + AX-RMAP.
TLB_LOOKUP_PJ = 1.2


class PageTable:
    """A per-process linear page table.

    Mappings are created on demand (the host OS would have allocated the
    arrays before offloading); the mapping is a fixed frame offset plus a
    per-PID stride so distinct processes never alias.  Every page shifts
    by the same frame count, so translation is affine:
    ``translate(v) == v + offset`` for every ``v``.
    """

    def __init__(self, pid=0):
        self.pid = pid
        self._map = {}

    @property
    def offset(self):
        """Physical minus virtual address, the same for every page
        (page-aligned, hence line-aligned)."""
        return (PHYSICAL_BASE_FRAME + (self.pid << 28)) << PAGE_SHIFT

    def map_page(self, vpn):
        ppn = vpn + (self.offset >> PAGE_SHIFT)
        self._map[vpn] = ppn
        return ppn

    def translate(self, vaddr):
        """Return the physical address for ``vaddr``, mapping on demand."""
        vpn = vaddr >> PAGE_SHIFT
        ppn = self._map.get(vpn)
        if ppn is None:
            ppn = self.map_page(vpn)
        return (ppn << PAGE_SHIFT) | (vaddr & (PAGE_SIZE - 1))

    def reverse(self, paddr):
        """Return the virtual address for ``paddr``.

        Raises :class:`TranslationError` when no mapping exists — the host
        should never forward a request for an unmapped page.
        """
        ppn = paddr >> PAGE_SHIFT
        vpn = ppn - (self.offset >> PAGE_SHIFT)
        if self._map.get(vpn) != ppn:
            raise TranslationError(
                "no reverse mapping for paddr {:#x}".format(paddr))
        return (vpn << PAGE_SHIFT) | (paddr & (PAGE_SIZE - 1))


class AxTlb:
    """The accelerator tile's TLB, consulted on L1X misses only."""

    def __init__(self, page_table, num_entries, stats):
        self.page_table = page_table
        self.num_entries = num_entries
        self.stats = stats.scope("ax_tlb")
        self._entries = {}
        self._use_clock = 0

    def translate(self, vaddr):
        """Translate ``vaddr``; returns ``(paddr, latency_cycles)``."""
        vpn = vaddr >> PAGE_SHIFT
        self.stats.add("lookups")
        self.stats.add("energy_pj", TLB_LOOKUP_PJ)
        self._use_clock += 1
        if vpn in self._entries:
            self.stats.add("hits")
            ppn, _ = self._entries[vpn]
            self._entries[vpn] = (ppn, self._use_clock)
            latency = 1
        else:
            self.stats.add("misses")
            ppn = self.page_table.translate(vpn << PAGE_SHIFT) >> PAGE_SHIFT
            if len(self._entries) >= self.num_entries:
                lru_vpn = min(self._entries,
                              key=lambda v: self._entries[v][1])
                del self._entries[lru_vpn]
            self._entries[vpn] = (ppn, self._use_clock)
            latency = 1 + WALK_LATENCY
        return (ppn << PAGE_SHIFT) | (vaddr & (PAGE_SIZE - 1)), latency
