"""The FUSION accelerator tile: AXC cores, private L0Xs, shared L1X.

One tile collocates every accelerator extracted from an application (the
paper assumes exactly this).  The tile owns the intra-tile links, the
ACC protocol controllers and the AXC cycle models; the FUSION and
FUSION-Dx systems drive it.
"""

from ..coherence.acc import AccL0XController, AccL1XController
from ..coherence.lease_policy import make_policy
from ..interconnect.link import Link
from .core import AxcCore


def invocation_lease(tile_config, trace, pinned=None):
    """The ACC lease one invocation's epoch requests carry.

    A strategy-``pinned`` lease wins; otherwise the config's
    ``lease_override``, else the function's assigned lease time — a
    zero lease included.  ``default_lease`` applies only to a trace
    that assigns none.
    """
    if pinned is not None:
        return pinned
    lease = tile_config.lease_override or trace.lease_time
    return tile_config.default_lease if lease is None else lease


class AcceleratorTile:
    """AXC cores + L0Xs + shared L1X wired together under ACC."""

    def __init__(self, config, host_mem, page_table, num_axcs, stats,
                 name="tile"):
        self.config = config
        self.name = name
        self.stats = stats
        self.axc_link = Link("axc_l1x", config.link.axc_l1x_pj_per_byte,
                             stats)
        self.fwd_link = Link("fwd", config.link.l0x_l0x_pj_per_byte, stats)
        self.l1x = AccL1XController(config, host_mem, page_table, stats,
                                    agent_name=name)
        host_mem.register_tile(name, self.l1x)
        self.l0xs = [
            AccL0XController(
                axc_id, config, self.l1x, self.axc_link, self.fwd_link,
                stats,
                lease_policy=make_policy(config.tile.lease_policy,
                                         config.tile.l0x.num_sets))
            for axc_id in range(num_axcs)
        ]
        for l0x in self.l0xs:
            l0x.pid = page_table.pid
        self.cores = [AxcCore(axc_id, stats) for axc_id in range(num_axcs)]

    def run_invocation(self, axc_id, trace, start_time, mlp, lease=None,
                       forward_plan=None):
        """Run one function invocation on accelerator ``axc_id``.

        Returns the completion time.  When ``forward_plan`` is given
        (FUSION-Dx), every self-downgrade of a listed dirty block —
        capacity evictions during the run and the end-of-invocation
        drain alike — pushes the line straight into the consumer's L0X
        instead of writing it back to the L1X (the paper's Figure 5).
        """
        l0x = self.l0xs[axc_id]
        if lease is None:
            lease = invocation_lease(self.config.tile, trace)
        if forward_plan:
            l0x.forward_hook = self._make_forward_hook(
                axc_id, forward_plan, lease)

        l0x.invocation_lease = lease
        try:
            end = self.cores[axc_id].run(trace, start_time, l0x, mlp)
            end += l0x.flush_dirty(end)
        finally:
            l0x.forward_hook = None
        return end

    def iter_invocation(self, axc_id, trace, start_time, mlp, lease):
        """Generator form of :meth:`run_invocation` (no forwarding) for
        schedulers that interleave invocations: yields the local time
        after each memory op and returns the completion time, dirty
        lines flushed."""
        l0x = self.l0xs[axc_id]
        # One invocation per AXC at a time, so binding the lease on the
        # controller is race-free even with interleaved invocations.
        l0x.invocation_lease = lease
        end = yield from self.cores[axc_id].iter_run(
            trace, start_time, l0x, mlp)
        return end + l0x.flush_dirty(end)

    def _make_forward_hook(self, producer_id, forward_plan, lease):
        """Build the self-downgrade hook for one producer invocation."""
        consumer_of = {block: consumer for block, consumer in forward_plan
                       if consumer != producer_id}

        def hook(l0x, line, now):
            consumer_id = consumer_of.get(line.block)
            if consumer_id is None:
                return False
            l0x.forward_line_obj(line, self.l0xs[consumer_id], now)
            return True

        return hook
