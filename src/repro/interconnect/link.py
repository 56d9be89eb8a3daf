"""Point-to-point interconnect links with per-byte energy accounting.

The paper's energy story hinges on three links (Table 2):

* accelerator <-> shared L1X: 0.4 pJ/byte (short tile-internal wires)
* shared L1X <-> host L2:     6 pJ/byte   (long cross-chip wires)
* L0X <-> L0X forwarding:     0.1 pJ/byte (adjacent accelerators)

Each link separately tracks control *messages* (requests, acks, eviction
notices — Figure 6c's MSG series) and *data* transfers (Figure 6c's DATA
series), because Lesson 4 is precisely that pull-based request messages
can squander the energy a cache hierarchy saves.

Every coherence transition crosses a link, so the four counters each
transfer touches use bound handles (names resolved once at link
construction) rather than per-call dotted-name formatting.
"""

from ..common.units import CONTROL_MSG_SIZE, FLIT_SIZE


class Link:
    """One direction-agnostic link; counts messages, bytes, flits, energy."""

    def __init__(self, name, pj_per_byte, stats):
        self.name = name
        self.pj_per_byte = pj_per_byte
        self.stats = stats.scope("link." + name)
        scope = self.stats
        self._add_msgs = scope.counter("msgs")
        self._add_msg_bytes = scope.counter("msg_bytes")
        self._add_msg_energy = scope.counter("msg_energy_pj")
        self._add_data_transfers = scope.counter("data_transfers")
        self._add_data_bytes = scope.counter("data_bytes")
        self._add_data_energy = scope.counter("data_energy_pj")
        self._add_flits = scope.counter("flits")

    def send_msg(self, num_bytes=CONTROL_MSG_SIZE):
        """Transfer one control message (request/ack/eviction notice)."""
        self._add_msgs()
        self._add_msg_bytes(num_bytes)
        self._add_flits((num_bytes + FLIT_SIZE - 1) // FLIT_SIZE)
        self._add_msg_energy(num_bytes * self.pj_per_byte)

    def send_data(self, num_bytes):
        """Transfer a data payload (word response, line fill, writeback)."""
        self._add_data_transfers()
        self._add_data_bytes(num_bytes)
        self._add_flits((num_bytes + FLIT_SIZE - 1) // FLIT_SIZE)
        self._add_data_energy(num_bytes * self.pj_per_byte)

    def counter_pairs(self, num_bytes, is_data):
        """The ``(qualified_name, amount)`` increments one transfer makes.

        Used to prebuild flushers (:meth:`StatsRegistry.flusher`)
        for fixed-size messages on hot protocol paths; the energy amount
        is the same ``num_bytes * pj_per_byte`` float the per-call path
        computes, so flushed accounting stays bit-identical.
        """
        scope = self.stats
        flits = (num_bytes + FLIT_SIZE - 1) // FLIT_SIZE
        energy = num_bytes * self.pj_per_byte
        if is_data:
            return [(scope.qualified("data_transfers"), 1),
                    (scope.qualified("data_bytes"), num_bytes),
                    (scope.qualified("flits"), flits),
                    (scope.qualified("data_energy_pj"), energy)]
        return [(scope.qualified("msgs"), 1),
                (scope.qualified("msg_bytes"), num_bytes),
                (scope.qualified("flits"), flits),
                (scope.qualified("msg_energy_pj"), energy)]

    @property
    def registry(self):
        """The root stats registry this link's counters live in."""
        return self.stats.registry

    @property
    def total_energy_pj(self):
        return (self.stats.get("msg_energy_pj")
                + self.stats.get("data_energy_pj"))


def tile_links(link_config, stats):
    """Construct the three standard links of an accelerator tile.

    Returns ``(axc_l1x, l1x_l2, fwd)``.
    """
    return (Link("axc_l1x", link_config.axc_l1x_pj_per_byte, stats),
            Link("l1x_l2", link_config.l1x_l2_pj_per_byte, stats),
            Link("fwd", link_config.l0x_l0x_pj_per_byte, stats))
