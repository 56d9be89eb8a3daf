"""Energy accounting: turns raw simulator counters into the component
breakdown plotted in Figure 6a.

Components (stat prefixes -> display names):

* ``compute``        — accelerator datapath activity
* ``l0x`` / ``scratchpad`` — per-AXC local storage accesses
* ``l1x``            — shared L1X accesses (SHARED / FUSION)
* ``l2``             — host LLC accesses (incl. DMA-driven ones)
* ``dram``           — main memory
* ``link.axc_l1x``   — tile-internal link (split msg vs data)
* ``link.l1x_l2``    — tile-to-host link (DMA traffic included)
* ``link.fwd``       — L0X-to-L0X forwarding link (FUSION-Dx)
* ``xlat``           — AX-TLB + AX-RMAP
"""

from dataclasses import dataclass, field

#: Ordered component keys used by reports and plots.
COMPONENTS = (
    "compute", "local", "l1x", "l2", "dram",
    "link_axc_l1x_msg", "link_axc_l1x_data", "link_l1x_l2", "link_fwd",
    "xlat",
)

_COMPONENT_SOURCES = {
    "compute": ("axc.compute.energy_pj",),
    "local": ("l0x.energy_pj", "scratchpad.energy_pj"),
    "l1x": ("l1x.energy_pj",),
    "l2": ("l2.energy_pj",),
    "dram": ("dram.energy_pj",),
    "link_axc_l1x_msg": ("link.axc_l1x.msg_energy_pj",),
    "link_axc_l1x_data": ("link.axc_l1x.data_energy_pj",),
    "link_l1x_l2": ("link.l1x_l2.msg_energy_pj",
                    "link.l1x_l2.data_energy_pj"),
    "link_fwd": ("link.fwd.msg_energy_pj", "link.fwd.data_energy_pj"),
    "xlat": ("ax_tlb.energy_pj", "ax_rmap.energy_pj"),
}


@dataclass
class EnergyBreakdown:
    """Per-component dynamic energy of one run, in pJ."""

    components: dict = field(default_factory=dict)

    @property
    def total_pj(self):
        return sum(self.components.values())

    @property
    def cache_pj(self):
        """Energy in the storage hierarchy (everything but compute)."""
        return self.total_pj - self.components.get("compute", 0.0)

    @property
    def link_pj(self):
        return sum(value for key, value in self.components.items()
                   if key.startswith("link_"))

    def cache_to_compute_ratio(self):
        """The Table 3 "Cache/Compute Energy" ratio."""
        compute = self.components.get("compute", 0.0)
        if compute == 0:
            return float("inf")
        return self.cache_pj / compute

    def normalized_to(self, baseline):
        """Return components scaled so the *baseline total* is 1.0 —
        the Figure 6a normalization."""
        base = baseline.total_pj
        if base == 0:
            raise ZeroDivisionError("baseline run consumed no energy")
        return {key: value / base for key, value in self.components.items()}

    def __getitem__(self, key):
        return self.components.get(key, 0.0)


def breakdown_from_stats(stats):
    """Build an :class:`EnergyBreakdown` from a stats snapshot or registry."""
    snapshot = stats if isinstance(stats, dict) else stats.snapshot()
    components = {}
    for component, sources in _COMPONENT_SOURCES.items():
        total = 0.0
        for source in sources:
            total += _prefix_total(snapshot, source)
        components[component] = total
    return EnergyBreakdown(components=components)


def _prefix_total(snapshot, name):
    """Sum ``name`` wherever it appears as a dotted component path.

    Matches the exact counter, nested counters (``name.*``) and
    scope-prefixed counters (``tile0.name`` / ``tile0.name.*``) — the
    latter appear when a multi-tile system namespaces each tile's stats.

    The matched values fold serially in snapshot iteration order, so
    the float result never depends on anything but the snapshot.
    """
    total = snapshot.get(name, 0.0)
    prefix = name + "."
    suffix = "." + name
    infix = "." + name + "."
    for key, value in snapshot.items():
        if key.startswith(prefix) or key.endswith(suffix) or infix in key:
            total += value
    return total
