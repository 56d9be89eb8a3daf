"""Memory substrate: caches, scratchpads, DRAM and translation."""

from .cache import CacheLine, SetAssocCache
from .dram import DRAM_ACCESS_PJ, MainMemory
from .rmap import AxRmap
from .scratchpad import Scratchpad, window_capacity
from .tlb import PAGE_SIZE, AxTlb, PageTable

__all__ = [
    "CacheLine", "SetAssocCache", "DRAM_ACCESS_PJ", "MainMemory",
    "AxRmap", "Scratchpad", "window_capacity",
    "PAGE_SIZE", "AxTlb", "PageTable",
]
