"""Coherence message vocabulary shared by the MESI and ACC engines.

Messages are not materialised as objects in the hot path — the simulator
only needs their *counts* and *sizes* — but every protocol transition
names the message it sends so that traffic statistics (Figure 6c,
Table 4) use one consistent vocabulary.
"""

import zlib
from enum import Enum, auto

from ..common.units import CONTROL_MSG_SIZE, LINE_SIZE


class Msg(Enum):
    """Every message type exchanged in the system.

    Message identity is *stable*: ``repr``, equality and ``hash`` depend
    only on the message name, never on ``auto()`` ordering or the
    process's hash seed.  The model checker (:mod:`repro.check`) folds
    messages into state hashes that must be reproducible across runs and
    processes, and counterexample traces print messages — both need
    identity that survives reordering this enum or restarting Python.
    """

    def __repr__(self):
        return "Msg.{}".format(self.name)

    def __hash__(self):
        return self._stable_hash

    # Requests (control, one flit)
    GETS = auto()          # read request
    GETX = auto()          # write/exclusive request
    EPOCH_READ = auto()    # ACC read-epoch request (L0X -> L1X)
    EPOCH_WRITE = auto()   # ACC write-epoch request (L0X -> L1X)
    # Responses
    DATA_LINE = auto()     # whole-line data response
    DATA_WORD = auto()     # word-granularity response (SHARED loads)
    ACK = auto()
    # Writebacks / evictions
    PUTX = auto()          # eviction notice with data (dirty)
    PUTS = auto()          # eviction notice, clean
    WB_DATA = auto()       # writeback data payload
    WT_DATA = auto()       # write-through word payload
    # Directory-forwarded requests
    FWD_GETS = auto()
    FWD_GETX = auto()
    INV = auto()
    RECALL = auto()        # inclusion-victim recall (L2 -> L1X)
    # FUSION-Dx
    FWD_LINE = auto()      # direct L0X -> L0X forwarded line


# Assigned after the class body: inside it, auto() needs the default
# Enum machinery, and a name-derived hash must not depend on definition
# order anyway.  crc32 (unlike str.__hash__) ignores PYTHONHASHSEED.
for _msg in Msg:
    _msg._stable_hash = zlib.crc32(_msg.name.encode("ascii"))
del _msg


#: Payload size of each message in bytes.
MSG_SIZE = {
    Msg.GETS: CONTROL_MSG_SIZE,
    Msg.GETX: CONTROL_MSG_SIZE,
    Msg.EPOCH_READ: CONTROL_MSG_SIZE,
    Msg.EPOCH_WRITE: CONTROL_MSG_SIZE,
    Msg.DATA_LINE: LINE_SIZE,
    Msg.DATA_WORD: 8,
    Msg.ACK: CONTROL_MSG_SIZE,
    Msg.PUTX: CONTROL_MSG_SIZE + LINE_SIZE,
    Msg.PUTS: CONTROL_MSG_SIZE,
    Msg.WB_DATA: LINE_SIZE,
    Msg.WT_DATA: 8,
    Msg.INV: CONTROL_MSG_SIZE,
    Msg.FWD_GETS: CONTROL_MSG_SIZE,
    Msg.FWD_GETX: CONTROL_MSG_SIZE,
    Msg.RECALL: CONTROL_MSG_SIZE,
    Msg.FWD_LINE: LINE_SIZE,
}

#: Message types that carry data payloads (the rest are control traffic).
DATA_MESSAGES = frozenset({
    Msg.DATA_LINE, Msg.DATA_WORD, Msg.PUTX, Msg.WB_DATA, Msg.WT_DATA,
    Msg.FWD_LINE,
})


#: Per-message lowercase counter suffix, precomputed once — ``send`` is
#: called for every coherence transition in the system.
_COUNTER_SUFFIX = {msg: msg.name.lower() for msg in Msg}


def size_of(msg):
    """Return the size in bytes of one message of type ``msg``."""
    return MSG_SIZE[msg]


def is_data(msg):
    """Return whether ``msg`` carries a data payload."""
    return msg in DATA_MESSAGES


def send(link, msg, stats=None, counter_prefix=None):
    """Send one message over ``link`` with correct msg/data accounting."""
    if msg in DATA_MESSAGES:
        link.send_data(MSG_SIZE[msg])
    else:
        link.send_msg(MSG_SIZE[msg])
    if stats is not None and counter_prefix is not None:
        stats.add(counter_prefix + "." + _COUNTER_SUFFIX[msg])


def counter_pairs(link, msg, stats=None, counter_prefix=None):
    """The ``(qualified_name, amount)`` increments one :func:`send` makes.

    Building blocks for prebuilt senders and run flushers — every pair
    carries the same amount the per-call path would add, so bulk
    application is bit-identical.
    """
    pairs = link.counter_pairs(MSG_SIZE[msg], msg in DATA_MESSAGES)
    if stats is not None and counter_prefix is not None:
        pairs.append((stats.qualified(
            counter_prefix + "." + _COUNTER_SUFFIX[msg]), 1))
    return pairs


def sender(link, msg, stats=None, counter_prefix=None):
    """Return a bound ``send_one()`` equivalent to one call of
    ``send(link, msg, stats, counter_prefix)``.

    Hot protocol transitions (epoch requests, data responses, DMA
    traffic) send the *same* message on the *same* link every time; a
    prebuilt sender skips the enum hashing, size lookup and per-counter
    handle dispatch of the generic path.
    """
    return link.registry.flusher(
        counter_pairs(link, msg, stats, counter_prefix))
