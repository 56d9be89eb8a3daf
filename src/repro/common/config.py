"""System configuration (the paper's Table 2) as validated dataclasses.

Two presets are provided:

* :func:`small_config` — the default evaluated configuration
  (4 KB scratchpad / L0X, 64 KB 16-bank shared L1X).
* :func:`large_config` — the Figure 7 "AXC-Large" configuration
  (8 KB L0X, 256 KB L1X).
"""

import hashlib
import json
from dataclasses import dataclass, field, fields, is_dataclass, replace
from enum import Enum, auto

from .errors import ConfigError
from .units import KB, MB, LINE_SIZE


class WritePolicy(Enum):
    """Write policy of a cache level (Section 5.3 studies this at the L0X)."""

    WRITE_BACK = auto()
    WRITE_THROUGH = auto()


def _require(condition, message):
    if not condition:
        raise ConfigError(message)


def _is_power_of_two(value):
    return value > 0 and (value & (value - 1)) == 0


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and timing of one cache level.

    Attributes:
        size_bytes: total data capacity.
        ways: set associativity.
        line_size: line size in bytes (64 everywhere, Table 2).
        banks: number of banks (affects access energy, not correctness).
        hit_latency: load-to-use latency of a hit, in cycles.
        write_policy: write-back (default) or write-through.
        timestamp_bits: width of the ACC timestamp field added to each
            line (0 for non-ACC caches).  The paper charges a 15 % tag
            energy overhead for the 32-bit check.
    """

    size_bytes: int
    ways: int
    line_size: int = LINE_SIZE
    banks: int = 1
    hit_latency: int = 1
    write_policy: WritePolicy = WritePolicy.WRITE_BACK
    timestamp_bits: int = 0

    def __post_init__(self):
        _require(self.size_bytes >= self.line_size,
                 "cache smaller than one line")
        _require(_is_power_of_two(self.line_size), "line size not power of 2")
        _require(self.size_bytes % (self.ways * self.line_size) == 0,
                 "capacity not divisible by ways * line_size")
        _require(_is_power_of_two(self.num_sets),
                 "number of sets must be a power of two")
        _require(self.banks >= 1, "banks must be >= 1")
        _require(self.hit_latency >= 1, "hit latency must be >= 1")

    @property
    def num_sets(self):
        return self.size_bytes // (self.ways * self.line_size)

    @property
    def num_lines(self):
        return self.size_bytes // self.line_size

    def set_index(self, addr):
        """Return the set index for byte address ``addr``."""
        return (addr // self.line_size) % self.num_sets


@dataclass(frozen=True)
class ScratchpadConfig:
    """Per-accelerator scratchpad (SCRATCH system)."""

    size_bytes: int = 4 * KB
    access_latency: int = 1

    def __post_init__(self):
        _require(self.size_bytes >= LINE_SIZE, "scratchpad too small")
        _require(self.size_bytes % LINE_SIZE == 0,
                 "scratchpad size must be line-aligned")

    @property
    def num_blocks(self):
        return self.size_bytes // LINE_SIZE


@dataclass(frozen=True)
class DmaConfig:
    """Oracle coherent DMA controller (resides at the host LLC, Table 2).

    ``setup_latency`` models the controller's per-transfer state-machine
    and L2 initiation cost; ``bytes_per_cycle`` the raw link bandwidth
    into/out of the scratchpad; ``per_block_cycles`` the effective L2
    bank/ring occupancy per line — the 32-entry command queue does not
    fully pipeline NUCA reads, so block fetches dominate the stream time.
    """

    setup_latency: int = 120
    bytes_per_cycle: int = 8
    per_block_cycles: int = 24
    #: Push DMA double-buffers the scratchpad (half holds the live
    #: window, half receives the next transfer).  Disabling it is an
    #: ablation: windows grow, transfers shrink, but the prefetch
    #: overlap a real engine gets from double buffering is lost.
    double_buffered: bool = True


@dataclass(frozen=True)
class DramConfig:
    """Main memory (Table 2: 4-channel open-page, 200-cycle latency)."""

    channels: int = 4
    latency: int = 200
    open_page_latency: int = 120
    page_size: int = 4 * KB
    cmd_queue_entries: int = 32


@dataclass(frozen=True)
class HostConfig:
    """Host OOO core and its caches (Table 2)."""

    rob_entries: int = 96
    issue_width: int = 4
    load_queue: int = 32
    store_queue: int = 32
    l1: CacheConfig = field(
        default_factory=lambda: CacheConfig(64 * KB, 4, hit_latency=3))
    l2_size_bytes: int = 4 * MB
    l2_ways: int = 16
    l2_banks: int = 8
    l2_avg_latency: int = 20


@dataclass(frozen=True)
class LinkEnergyConfig:
    """Interconnect energy parameters (Table 2, pJ/byte)."""

    axc_l1x_pj_per_byte: float = 0.4
    l1x_l2_pj_per_byte: float = 6.0
    l0x_l0x_pj_per_byte: float = 0.1   # FUSION-Dx direct forwarding link


@dataclass(frozen=True)
class AcceleratorTileConfig:
    """The accelerator tile: L0Xs, shared L1X and translation hardware."""

    l0x: CacheConfig = field(default_factory=lambda: CacheConfig(
        4 * KB, 4, hit_latency=1, timestamp_bits=32))
    l1x: CacheConfig = field(default_factory=lambda: CacheConfig(
        64 * KB, 8, banks=16, hit_latency=4, timestamp_bits=32))
    scratchpad: ScratchpadConfig = field(default_factory=ScratchpadConfig)
    tlb_entries: int = 64
    rmap_entries: int = 1024
    default_lease: int = 500
    #: When non-zero, overrides every function's per-trace lease time
    #: (the lease-length ablation).
    lease_override: int = 0
    #: ACC lease policy: "fixed" (the paper) or "adaptive" (per-set
    #: multiplicative adjustment — see repro.coherence.lease_policy).
    lease_policy: str = "fixed"
    #: Model L1X bank-conflict serialisation (repro.mem.banking).  Off
    #: by default: with one AXC active at a time conflicts are
    #: negligible; enable for FUSION-PIPE / contention studies.
    model_bank_conflicts: bool = False


@dataclass(frozen=True)
class PolicyConfig:
    """The per-invocation coherence policy engine (POLICY system).

    ``selector`` names how the strategy is chosen each invocation:

    * ``"static"`` — always ``static_strategy`` (bit-identical to the
      corresponding legacy system; gated by the golden grids);
    * ``"schedule"`` — invocation ``i`` runs ``schedule[i]`` (clamped to
      the last entry); this is the oracle evaluator's vehicle;
    * ``"bandit"`` — epsilon-greedy contextual bandit over
      ``strategies`` fed by invocation telemetry;
    * ``"ucb"`` — the same bandit with a UCB exploration bonus
      (``ucb_c``) instead of epsilon randomness.
    """

    selector: str = "static"
    #: Strategy key used by the static selector.
    static_strategy: str = "fusion"
    #: Per-invocation strategy keys for the schedule selector.
    schedule: tuple = ()
    #: Candidate arms for the learning selectors.
    strategies: tuple = ("scratch", "shared", "fusion", "fusion-dx")
    #: Epsilon-greedy exploration rate (bandit selector).
    epsilon: float = 0.1
    #: UCB exploration weight (ucb selector).
    ucb_c: float = 1.0
    #: Seed for the bandit's explicit RNG — policy runs must stay
    #: deterministic under --jobs.
    seed: int = 20150613
    #: Training passes for in-process bandit training; with untried-
    #: first exploration each arm needs one pass before greedy pays.
    episodes: int = 5

    def __post_init__(self):
        # JSON overrides hand sequences in as lists; keep the frozen
        # config hashable and its fingerprint canonical.
        object.__setattr__(self, "schedule", tuple(self.schedule))
        object.__setattr__(self, "strategies", tuple(self.strategies))
        if self.selector not in ("static", "schedule", "bandit", "ucb"):
            raise ConfigError(
                "unknown policy selector {!r}".format(self.selector))
        if self.selector == "schedule" and not self.schedule:
            raise ConfigError("schedule selector needs a schedule")
        if not self.strategies:
            raise ConfigError("policy needs at least one strategy")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ConfigError(
                "epsilon {!r} outside [0, 1]".format(self.epsilon))
        if self.ucb_c < 0:
            raise ConfigError("negative ucb_c {!r}".format(self.ucb_c))
        if self.episodes < 1:
            raise ConfigError(
                "episodes {!r} must be >= 1".format(self.episodes))


@dataclass(frozen=True)
class SystemConfig:
    """Complete configuration of one simulated system (Table 2)."""

    name: str = "small"
    host: HostConfig = field(default_factory=HostConfig)
    tile: AcceleratorTileConfig = field(default_factory=AcceleratorTileConfig)
    dram: DramConfig = field(default_factory=DramConfig)
    dma: DmaConfig = field(default_factory=DmaConfig)
    link: LinkEnergyConfig = field(default_factory=LinkEnergyConfig)
    policy: PolicyConfig = field(default_factory=PolicyConfig)

    def with_l0x_write_policy(self, policy):
        """Return a copy with the L0X write policy replaced (Table 4)."""
        tile = replace(self.tile, l0x=replace(self.tile.l0x,
                                              write_policy=policy))
        return replace(self, tile=tile)

    def with_lease(self, lease):
        """Return a copy forcing every function's ACC lease to ``lease``
        (the lease-length ablation)."""
        return replace(self, tile=replace(self.tile, default_lease=lease,
                                          lease_override=lease))

    def with_lease_policy(self, policy_name):
        """Return a copy using the named ACC lease policy
        ("fixed" or "adaptive")."""
        return replace(self, tile=replace(self.tile,
                                          lease_policy=policy_name))

    def with_policy(self, **kwargs):
        """Return a copy with :class:`PolicyConfig` fields replaced,
        e.g. ``config.with_policy(selector="bandit", epsilon=0.2)``."""
        return replace(self, policy=replace(self.policy, **kwargs))


def stable_config_dict(obj):
    """Canonical JSON-able representation of a config value.

    Recurses through dataclasses, enums, mappings and sequences so two
    structurally-equal configs always serialise identically — the basis
    of the persistent result cache's content-hash keys
    (:func:`config_fingerprint`).  Raises :class:`ConfigError` for
    values with no stable representation (callables, open handles, …),
    which the engine treats as "uncacheable: run serially".
    """
    if is_dataclass(obj) and not isinstance(obj, type):
        return {
            "__dataclass__": type(obj).__name__,
            "fields": {f.name: stable_config_dict(getattr(obj, f.name))
                       for f in fields(obj)},
        }
    if isinstance(obj, Enum):
        return {"__enum__": type(obj).__name__, "name": obj.name}
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, float):
        # repr round-trips exactly; json's default float formatting does
        # too on CPython, but be explicit about the contract.
        return {"__float__": repr(obj)}
    if isinstance(obj, (list, tuple)):
        return [stable_config_dict(item) for item in obj]
    if isinstance(obj, (set, frozenset)):
        return {"__set__": sorted(
            json.dumps(stable_config_dict(item), sort_keys=True)
            for item in obj)}
    if isinstance(obj, dict):
        return {"__dict__": sorted(
            (str(key), stable_config_dict(value))
            for key, value in obj.items())}
    raise ConfigError(
        "cannot fingerprint config value of type {!r}".format(
            type(obj).__name__))


def config_fingerprint(config):
    """Return a stable content hash (sha256 hex) of a config dataclass.

    Equal configs — including copies built independently via
    :func:`dataclasses.replace` chains — hash identically; any field
    change, however deep, changes the hash.
    """
    payload = json.dumps(stable_config_dict(config), sort_keys=True,
                         separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def small_config():
    """Default configuration: 4 KB L0X/scratchpad, 64 KB 16-bank L1X."""
    return SystemConfig(name="small")


def large_config():
    """Figure 7 "AXC-Large": 8 KB L0X, 256 KB L1X (+2 cycles latency)."""
    tile = AcceleratorTileConfig(
        l0x=CacheConfig(8 * KB, 4, hit_latency=1, timestamp_bits=32),
        l1x=CacheConfig(256 * KB, 8, banks=16, hit_latency=6,
                        timestamp_bits=32),
        scratchpad=ScratchpadConfig(size_bytes=8 * KB),
    )
    return SystemConfig(name="large", tile=tile)
