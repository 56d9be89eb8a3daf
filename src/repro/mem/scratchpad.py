"""Per-accelerator scratchpad (explicitly managed local store).

The SCRATCH baseline gives each accelerator a small RAM into which the
oracle DMA engine pushes read data before a window executes, and from
which it drains dirty blocks afterwards.  The scratchpad itself is a
plain block-presence container — all management intelligence lives in
:mod:`repro.host.dma`.
"""

from ..common.errors import SimulationError
from ..common.types import block_address
from ..common.units import LINE_SIZE


class Scratchpad:
    """A software-managed local store holding whole cache lines."""

    def __init__(self, config, name="scratchpad"):
        self.config = config
        self.name = name
        self._blocks = {}

    @property
    def capacity_blocks(self):
        return self.config.num_blocks

    @property
    def occupancy(self):
        return len(self._blocks)

    @property
    def free_blocks(self):
        return self.capacity_blocks - self.occupancy

    def contains(self, addr):
        return block_address(addr) in self._blocks

    def fill(self, block):
        """Install ``block`` (DMA-in). Raises when capacity is exceeded —
        the DMA window generator is responsible for sizing windows."""
        block = block_address(block)
        if block in self._blocks:
            return
        if self.occupancy >= self.capacity_blocks:
            raise SimulationError(
                "{}: overflow installing {:#x}".format(self.name, block))
        self._blocks[block] = False

    def access(self, addr, is_store):
        """Record an accelerator access; the block must be resident."""
        block = block_address(addr)
        if block not in self._blocks:
            raise SimulationError(
                "{}: access to non-resident block {:#x} "
                "(oracle DMA failed to stage it)".format(self.name, block))
        if is_store:
            self._blocks[block] = True

    def serve(self, block, is_store):
        """Hot-path access with a pre-aligned ``block``.

        Semantically ``fill`` (stores to absent blocks — write-first
        blocks need no DMA staging) followed by ``access``, in one dict
        probe.  Loads to non-resident blocks raise exactly like
        :meth:`access`.
        """
        blocks = self._blocks
        if block in blocks:
            if is_store:
                blocks[block] = True
            return
        if is_store:
            if len(blocks) >= self.config.num_blocks:
                raise SimulationError(
                    "{}: overflow installing {:#x}".format(self.name,
                                                           block))
            blocks[block] = True
            return
        raise SimulationError(
            "{}: access to non-resident block {:#x} "
            "(oracle DMA failed to stage it)".format(self.name, block))

    def dirty_blocks(self):
        """Return the addresses of blocks written since their fill."""
        return [block for block, dirty in self._blocks.items() if dirty]

    def drain(self):
        """Empty the scratchpad (end of a DMA window), returning the list
        of dirty block addresses that must be DMA-ed back out."""
        dirty = self.dirty_blocks()
        self._blocks.clear()
        return dirty

    # -- invocation replay surface (repro.accel.replay) ----------------------

    def state_signature(self):
        """Replay-guard signature: the resident block/dirty map.

        SCRATCH invocations start and end at drained (empty) scratchpads,
        so the guard only accepts a falsy signature.
        """
        return tuple(self._blocks.items())

    def apply_transform(self, transform, t0):
        """No-op: a guardable invocation leaves the scratchpad empty."""

    def __repr__(self):
        return "Scratchpad({}, {}/{} blocks)".format(
            self.name, self.occupancy, self.capacity_blocks)


def window_capacity(config, line_size=LINE_SIZE):
    """Number of distinct blocks one DMA window may stage."""
    return config.size_bytes // line_size
