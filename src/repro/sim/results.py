"""Run results: everything the experiment layer needs from one simulation."""

from dataclasses import dataclass, field
from typing import ClassVar

from ..common.units import to_kb
from ..energy.accounting import EnergyBreakdown, breakdown_from_stats


def is_failure(result):
    """True when ``result`` is a failure hole, not a real simulation.

    The one guard every downstream consumer (tables, exporters, charts,
    the sweep service) should use before touching :class:`RunResult`
    attributes — a :class:`FailedResult` has no ``energy``, ``stats``
    or cycle counts, only ``error``/``attempts`` provenance.
    """
    return not getattr(result, "ok", True)


@dataclass
class FailedResult:
    """A simulation point the engine could not complete.

    Returned (in place of a :class:`RunResult`) by non-strict batches
    after every recovery path — pool respawn retries, serial fallback —
    was exhausted, or when the point timed out.  Experiment tables and
    sweeps render these as holes instead of dying; ``error`` carries the
    ``repr`` of the final exception and ``attempts`` how many executions
    were tried.
    """

    #: Discriminator mirrored on :class:`RunResult` (``ok = True``).
    ok: ClassVar[bool] = False

    system: str
    benchmark: str
    size: str = "full"
    error: str = ""
    attempts: int = 0
    #: Engine telemetry, same contract as ``RunResult.meta``.
    meta: dict = field(default_factory=dict, compare=False, repr=False)


@dataclass
class RunResult:
    """The outcome of running one system on one workload."""

    ok: ClassVar[bool] = True

    system: str
    benchmark: str
    config_name: str
    accel_cycles: int
    total_cycles: int
    stats: dict = field(default_factory=dict)
    energy: EnergyBreakdown = None
    #: Engine telemetry (wall time, cache source, queue depth, …) —
    #: bookkeeping about *how* the result was obtained, never part of
    #: the simulated outcome, hence excluded from equality.
    meta: dict = field(default_factory=dict, compare=False, repr=False)

    @classmethod
    def from_system(cls, system, accel_cycles, total_cycles,
                    energy_baseline=None):
        """Build a result; ``energy_baseline`` is a stats snapshot taken
        after the host produce phase so the energy breakdown covers only
        the accelerated region (the quantity Figure 6a plots)."""
        snapshot = system.stats.snapshot()
        if energy_baseline:
            accel_delta = system.stats.diff(energy_baseline)
        else:
            accel_delta = snapshot
        return cls(
            system=system.name,
            benchmark=system.benchmark,
            config_name=system.config.name,
            accel_cycles=accel_cycles,
            total_cycles=total_cycles,
            stats=snapshot,
            energy=breakdown_from_stats(accel_delta),
        )

    # -- convenience accessors used by the experiments -------------------------

    def stat(self, name, default=0):
        return self.stats.get(name, default)

    def _prefix_total(self, prefix):
        prefix_dot = prefix + "."
        total = self.stats.get(prefix, 0)
        for key, value in self.stats.items():
            if key.startswith(prefix_dot):
                total += value
        return total

    @property
    def dma_kb(self):
        """Total DMA traffic in kB (Figure 6d's DMA column)."""
        return to_kb(self.stat("dma.bytes_in") + self.stat("dma.bytes_out"))

    @property
    def dma_count(self):
        """Number of DMA transfers issued (Figure 6d's #DMA column)."""
        return int(self.stat("dma.transfers_in")
                   + self.stat("dma.transfers_out"))

    @property
    def total_energy_pj(self):
        return self.energy.total_pj

    @property
    def axc_link_msgs(self):
        """Request messages AXC -> L1X (Figure 6c's MSG series)."""
        return int(self.stat("link.axc_l1x.msgs"))

    @property
    def axc_link_data(self):
        """Data transfers on the AXC <-> L1X link (Figure 6c)."""
        return int(self.stat("link.axc_l1x.data_transfers"))

    @property
    def tile_l2_msgs(self):
        """Messages on the L1X <-> L2 link."""
        return int(self.stat("link.l1x_l2.msgs"))

    @property
    def tile_l2_data(self):
        return int(self.stat("link.l1x_l2.data_transfers"))

    @property
    def write_flits(self):
        """Store-traffic flits on the AXC link (Table 4's columns)."""
        return int(self.stat("link.axc_l1x.write_flits"))

    @property
    def ax_tlb_lookups(self):
        return int(self.stat("ax_tlb.lookups"))

    @property
    def ax_rmap_lookups(self):
        return int(self.stat("ax_rmap.lookups"))

    @property
    def forwarded_lines(self):
        total = 0
        for key, value in self.stats.items():
            if key.startswith("l0x.axc") and key.endswith("lines_forwarded"):
                total += value
        return int(total)

    @property
    def edp(self):
        """Energy-delay product (pJ x cycles) over the accelerated
        region — the figure of merit when neither axis alone decides."""
        return self.energy.total_pj * self.accel_cycles

    def link_utilization(self, link="axc_l1x", flit_bytes=8):
        """Average occupancy of a link over the accelerated region,
        in flits per cycle (1.0 = saturated single-flit link)."""
        total_bytes = (self.stat("link.{}.msg_bytes".format(link))
                       + self.stat("link.{}.data_bytes".format(link)))
        if not self.accel_cycles:
            return 0.0
        return total_bytes / flit_bytes / self.accel_cycles

    def invocation_cycles(self, function_name):
        return self.stat("invocation.{}.cycles".format(function_name))

    def invocation_energy_pj(self, function_name):
        return self.stat("invocation.{}.energy_pj".format(function_name))

    def function_names(self):
        names = []
        for key in self.stats:
            if key.startswith("invocation.") and key.endswith(".count"):
                names.append(key[len("invocation."):-len(".count")])
        return sorted(names)
