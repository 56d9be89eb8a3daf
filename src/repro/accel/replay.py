"""Guarded invocation replay cache: the top rung of the fallback ladder.

After warm-up, the Fig-6/7 workloads invoke the same accelerator
function dozens of times, and in steady state every iteration performs a
bit-identical sequence of protocol steps — the same insight the
steady-state phase engine exploits one level down, lifted to whole
invocations.  This module records the *complete effect* of one
invocation — counter deltas, the term-ordered energy trace
(:class:`repro.common.stats.PjTrace`), the cycle count, and the
end-state transform of the touched cache footprint — and replays it in
O(footprint) when a guard proves the starting state matches the
recording:

``invocation replay -> vector window -> steady-state phase -> per-op``

Soundness rests on three pillars:

* **Translation invariance.**  All simulated times are dyadic rationals
  and the interpreter never branches on absolute time, so a recording made
  at ``t0`` replays exactly at ``t0'`` once every *relative* time in
  the starting state matches.  Time fields in signatures are therefore
  stored relative to the invocation start.
* **Version pinning.**  Host-side MESI state is not signed per block:
  every mutating entry point bumps ``HostMemorySystem.struct_version``
  (and DRAM bumps ``MainMemory.version``), so an *equal* version value
  proves the host hierarchy is bit-identical to the recording's
  pre-state.  Recordings that bump either version are discarded — a
  steady-state invocation never leaves the tile.
* **Clamped lease cover.**  Live lease/GTIME values decay across
  iterations, so exact relative matching would never hit for functions
  shorter than their lease.  The guard instead classes a timestamp as
  ``PAST`` (expired before the invocation starts) or ``COVERS`` (past
  every compare the invocation can perform: beyond ``8*duration + 64``
  plus the largest write-epoch the recording could compare against) and
  proves the recorded outcome is identical for every value in the
  class.  Values between the classes must match exactly, relative to
  ``t0``; anything else declines to the phase rung, so every op is
  still served by exactly one rung.

Gate with the ``REPLAY_INVOCATIONS`` module flag, like
``STEADY_PHASES``.  See ``docs/simulator.md`` §11.
"""

from ..common.types import trace_fingerprint
from ..mem.cache import CacheLine

#: Master toggle for the invocation replay rung; the differential
#: oracle (``tests/test_oracle.py``) flips the module attribute.
REPLAY_INVOCATIONS = True

#: At most this many state variants are recorded per invocation key
#: before the engine stops recording and only probes/falls back.
MAX_RECORDINGS_PER_KEY = 4

#: After this many consecutive failed probes on one key the key is
#: disabled outright (the invocation never reaches a steady state worth
#: guarding, e.g. it misses to DRAM every iteration).
DISABLE_AFTER_MISSES = 8

#: Process-wide replay telemetry (surfaced by ``fusion-sim cache stats``
#: and the benchmark harnesses).  Engine-local counters are mirrored
#: here; none of this ever touches a simulation's StatsRegistry, so the
#: on/off bit-identity discipline is preserved.
TELEMETRY = {
    "engines": 0,
    "keys": 0,
    "recordings": 0,
    "hits": 0,
    "misses": 0,
    "ineligible": 0,
    "disabled_keys": 0,
}


def reset_telemetry():
    for key in TELEMETRY:
        TELEMETRY[key] = 0


def telemetry_snapshot():
    return dict(TELEMETRY)


class Ineligible(Exception):
    """Raised during recording construction when the invocation touched
    state the guard cannot sign; the recording is discarded."""


# ---------------------------------------------------------------------------
# content-addressed invocation keys
# ---------------------------------------------------------------------------

#: Content fingerprint -> small interned id.  Kernels record a *fresh*
#: FunctionTrace object per iteration, so identity keying would never
#: hit; the fingerprint hashes the op stream once per distinct content
#: (equal invocations of a prepared workload are one object) and
#: interning keeps the per-invocation key a cheap tuple of ints.
_FINGERPRINT_IDS = {}


def trace_replay_token(trace):
    """Interned content id for ``trace`` (memoised on the trace)."""
    token = trace.__dict__.get("_replay_token")
    if token is None:
        token = _FINGERPRINT_IDS.setdefault(trace_fingerprint(trace),
                                            len(_FINGERPRINT_IDS))
        trace.__dict__["_replay_token"] = token
    return token


# ---------------------------------------------------------------------------
# cache signatures and end-state transforms
# ---------------------------------------------------------------------------

# Raw capture entry layout (see SetAssocCache.capture_sets):
# (line, block, pid, state, dirty, lease, gtime, write_epoch_end,
#  paddr, last_use)

#: Time-field signature modes.  ``L`` literal (None), ``R`` exact
#: relative to t0, ``P`` any value <= t0 (expired before the invocation
#: and provably never consumed beyond expiry checks), ``C`` any value
#: > t0 + cover (beyond every compare the invocation performs).
_LIT_NONE = ("L", None)
_PAST = ("P",)


def _time_sig(value, t0, clamp, cover):
    if value is None:
        return _LIT_NONE
    if clamp:
        if value <= t0:
            return _PAST
        if value > t0 + cover:
            return ("C", cover)
    return ("R", value - t0)


def _time_exact(value, t0):
    if value is None:
        return _LIT_NONE
    return ("R", value - t0)


def _time_matches(value, sig, t0):
    mode = sig[0]
    if mode == "R":
        return value is not None and value == t0 + sig[1]
    if mode == "L":
        return value is None
    if mode == "P":
        return value is not None and value <= t0
    return value is not None and value > t0 + sig[1]      # "C"


def _ranks_of(entries):
    """Per-set LRU ranks (ascending last_use) in entry order."""
    if len(entries) < 2:
        return (0,) * len(entries)
    order = sorted(range(len(entries)), key=lambda i: entries[i][9])
    ranks = [0] * len(entries)
    for rank, position in enumerate(order):
        ranks[position] = rank
    return ranks


def _line_ranks(lines):
    if len(lines) < 2:
        return (0,) * len(lines)
    order = sorted(range(len(lines)), key=lambda i: lines[i].last_use)
    ranks = [0] * len(lines)
    for rank, position in enumerate(order):
        ranks[position] = rank
    return ranks


def _entries_unchanged(pre_entries, post_entries):
    if len(pre_entries) != len(post_entries):
        return False
    for pre, post in zip(pre_entries, post_entries):
        if pre[0] is not post[0] or pre[1:] != post[1:]:
            return False
    return True


def build_cache_recording(pre, post, t0, clamp_lease=False,
                          clamp_gtime=False, cover=0.0,
                          demote_blocks=frozenset(), extra_sets=(),
                          require_clean=False):
    """Diff two full cache captures into a ``(signature, transform)``.

    The signature covers every set the invocation changed plus
    ``extra_sets`` (sets holding lines the invocation may *read* without
    leaving a diff — e.g. L1X write-epoch checks from L0X flushes); per
    set it pins blocks, protocol fields, clamped time classes and the
    LRU rank order in per-set dict order.  The transform rebuilds each
    changed set to the recorded post-state, with time fields re-anchored
    to the replay's ``t0`` and LRU clocks to the replay's use clock.

    Raises :class:`Ineligible` when the diff shows state the guard
    cannot sign (dirty lines at entry under ``require_clean``).
    """
    pre_clock, pre_sets = pre
    post_clock, post_sets = post
    pre_map = dict(pre_sets)
    post_map = dict(post_sets)
    transform_sets = []
    touched = set()
    occupancy_delta = 0
    for index in set(pre_map) | set(post_map):
        pre_entries = pre_map.get(index, ())
        post_entries = post_map.get(index, ())
        if _entries_unchanged(pre_entries, post_entries):
            continue
        touched.add(index)
        occupancy_delta += len(post_entries) - len(pre_entries)
        pre_by_block = {entry[1]: entry for entry in pre_entries}
        post_blocks = set()
        spec = []
        for entry in post_entries:
            block = entry[1]
            post_blocks.add(block)
            pre_entry = pre_by_block.get(block)
            if pre_entry is not None and pre_entry[0] is entry[0]:
                updates = []
                if pre_entry[2] != entry[2]:
                    updates.append(("pid", "L", entry[2]))
                if pre_entry[3] != entry[3]:
                    updates.append(("state", "L", entry[3]))
                if pre_entry[4] != entry[4]:
                    updates.append(("dirty", "L", entry[4]))
                if pre_entry[5] != entry[5]:
                    updates.append(_field_update("lease", entry[5], t0))
                if pre_entry[6] != entry[6]:
                    updates.append(_field_update("gtime", entry[6], t0))
                if pre_entry[7] != entry[7]:
                    updates.append(_field_update("write_epoch_end",
                                                 entry[7], t0))
                if pre_entry[8] != entry[8]:
                    updates.append(("paddr", "L", entry[8]))
                if pre_entry[9] != entry[9]:
                    updates.append(("last_use", "K",
                                    entry[9] - pre_clock))
                spec.append(("U", block, tuple(updates)) if updates
                            else ("B", block))
            else:
                spec.append(("N", block, entry[2], entry[3], entry[4],
                             _time_exact(entry[5], t0),
                             _time_exact(entry[6], t0),
                             _time_exact(entry[7], t0),
                             entry[8], entry[9] - pre_clock))
        removed = tuple(block for block in pre_by_block
                        if block not in post_blocks)
        transform_sets.append((index, tuple(spec), removed))

    signature = []
    for index in sorted(touched | set(extra_sets)):
        pre_entries = pre_map.get(index, ())
        post_entries = {entry[1]: entry for entry
                        in post_map.get(index, ())}
        ranks = _ranks_of(pre_entries)
        entry_sigs = []
        for entry, rank in zip(pre_entries, ranks):
            if require_clean and entry[4]:
                raise Ineligible("dirty line at invocation entry")
            lease_sig = _time_sig(entry[5], t0, clamp_lease, cover)
            if lease_sig[0] == "C":
                post_entry = post_entries.get(entry[1])
                if (entry[1] in demote_blocks or post_entry is None
                        or post_entry[0] is not entry[0]):
                    # Forwarded or evicted: the exact value was consumed
                    # beyond dominated compares — demand it exactly.
                    lease_sig = ("R", entry[5] - t0)
            gtime_sig = _time_sig(entry[6], t0, clamp_gtime, cover)
            if gtime_sig[0] == "C":
                post_entry = post_entries.get(entry[1])
                if (post_entry is None or post_entry[0] is not entry[0]
                        or post_entry[6] != entry[6]):
                    gtime_sig = ("R", entry[6] - t0)
            entry_sigs.append((entry[1], entry[2], entry[3], entry[4],
                               entry[8], lease_sig, gtime_sig,
                               _time_exact(entry[7], t0), rank))
        signature.append((index, tuple(entry_sigs)))
    transform = (tuple(transform_sets), post_clock - pre_clock,
                 occupancy_delta)
    return tuple(signature), transform


def _field_update(attr, value, t0):
    if value is None:
        return (attr, "L", None)
    return (attr, "R", value - t0)


def match_cache_signature(cache, signature, t0):
    """Does ``cache``'s live state match a recorded signature at ``t0``?

    O(footprint): walks exactly the recording's signed sets, comparing
    per-set dict order, protocol fields, clamped time classes and LRU
    ranks against the live lines.
    """
    sets = cache._sets
    for index, entry_sigs in signature:
        cache_set = sets[index]
        if len(cache_set) != len(entry_sigs):
            return False
        if not entry_sigs:
            continue
        lines = list(cache_set.values())
        ranks = _line_ranks(lines)
        for line, rank, sig in zip(lines, ranks, entry_sigs):
            if (line.block != sig[0] or line.pid != sig[1]
                    or line.state != sig[2] or line.dirty != sig[3]
                    or line.paddr != sig[4] or rank != sig[8]):
                return False
            if not _time_matches(line.lease, sig[5], t0):
                return False
            if not _time_matches(line.gtime, sig[6], t0):
                return False
            if not _time_matches(line.write_epoch_end, sig[7], t0):
                return False
    return True


def apply_cache_transform(cache, transform, t0):
    """Apply a recorded end-state transform to ``cache`` at ``t0``.

    Rebuilds each touched set dict in the recorded post order (per-set
    dict order determines flush/writeback walks), mutating surviving
    line objects in place and re-anchoring time fields to ``t0`` and
    LRU stamps to the live use clock.
    """
    transform_sets, clock_delta, occupancy_delta = transform
    clock0 = cache._use_clock
    sets = cache._sets
    lines_index = cache._lines
    for index, spec, removed in transform_sets:
        live_set = sets[index]
        new_set = {}
        for entry in spec:
            tag = entry[0]
            block = entry[1]
            if tag == "B":
                line = live_set[block]
            elif tag == "U":
                line = live_set[block]
                for attr, mode, value in entry[2]:
                    if mode == "L":
                        setattr(line, attr, value)
                    elif mode == "R":
                        setattr(line, attr, t0 + value)
                    else:                          # "K": use-clock rel
                        setattr(line, attr, clock0 + value)
            else:                                  # "N": fresh install
                line = CacheLine(
                    block=block, pid=entry[2], state=entry[3],
                    dirty=entry[4], lease=_resolve_time(entry[5], t0),
                    gtime=_resolve_time(entry[6], t0),
                    write_epoch_end=_resolve_time(entry[7], t0),
                    paddr=entry[8], last_use=clock0 + entry[9])
                lines_index[block] = line
            new_set[block] = line
        for block in removed:
            del lines_index[block]
        sets[index] = new_set
    cache._use_clock = clock0 + clock_delta
    cache._occupancy += occupancy_delta


def _resolve_time(spec, t0):
    if spec[0] == "L":
        return spec[1]
    return t0 + spec[1]


def max_write_epoch_rel(capture, t0):
    """Largest relative write-epoch end in a raw L1X capture (>= 0)."""
    worst = 0.0
    for _, entries in capture[1]:
        for entry in entries:
            epoch_end = entry[7]
            if epoch_end is not None and epoch_end - t0 > worst:
                worst = epoch_end - t0
    return worst


def capture_blocks(capture):
    """All block addresses present in a raw capture."""
    return [entry[1] for _, entries in capture[1] for entry in entries]


# ---------------------------------------------------------------------------
# recordings and the engine
# ---------------------------------------------------------------------------

class Recording:
    """One recorded invocation effect plus the guard that proves it."""

    __slots__ = ("duration", "pj_program", "delta_items", "energy_names",
                 "name", "payload")

    def __init__(self, name, payload):
        self.name = name
        self.payload = payload
        self.duration = 0
        self.pj_program = ()
        self.delta_items = ()
        self.energy_names = ()


class _KeyState:
    __slots__ = ("recordings", "miss_streak", "disabled")

    def __init__(self):
        self.recordings = []
        self.miss_streak = 0
        self.disabled = False


class InvocationReplayEngine:
    """Per-run replay store driving one tenant's invocation loop.

    ``run_invocation`` either replays a matching recording (bulk counter
    flush + cache transform + timeline rebase) or runs the invocation
    for real — recording its effect when the key still has budget — and
    always performs the same per-invocation attribution the system's
    loop does, so results are bit-identical either way.

    The engine keeps no reference to its system: the system hands
    itself to every :meth:`run_invocation`, so a finished run's machine
    graph stays acyclic and refcounting frees it (docs/simulator.md
    §6.4).
    """

    def __init__(self, system, tenant, adapter):
        self.registry = system.stats.registry
        self.adapter = adapter
        self._keys = {}
        # The workload is fully known up front, so invocations whose
        # function cannot recur often enough for a recording to ever be
        # probed are served by the plain fallback path with zero capture
        # overhead.  A first occurrence always records against a state a
        # later probe can never see again (cold caches), so a key needs
        # at least `min_occurrences` occurrences to break even.
        self._min_occurrences = getattr(adapter, "min_occurrences", 2)
        counts = {}
        for trace in tenant.workload.invocations:
            counts[trace.name] = counts.get(trace.name, 0) + 1
        self._name_counts = counts
        self.hits = 0
        self.misses = 0
        self.recordings = 0
        self.ineligible = 0
        TELEMETRY["engines"] += 1

    def run_invocation(self, system, tenant, index, trace, now):
        if self._name_counts[trace.name] < self._min_occurrences:
            return system._step(tenant, index, trace, now)
        key = self.adapter.key_of(index, trace)
        state = self._keys.get(key)
        if state is None:
            state = self._keys[key] = _KeyState()
            TELEMETRY["keys"] += 1
        if state.recordings and not state.disabled:
            adapter = self.adapter
            for recording in state.recordings:
                if adapter.matches(recording, now):
                    state.miss_streak = 0
                    self.hits += 1
                    TELEMETRY["hits"] += 1
                    self._apply(recording, now)
                    return now + recording.duration
            state.miss_streak += 1
            self.misses += 1
            TELEMETRY["misses"] += 1
            if state.miss_streak >= DISABLE_AFTER_MISSES:
                state.disabled = True
                TELEMETRY["disabled_keys"] += 1
        if state.disabled or len(state.recordings) >= \
                MAX_RECORDINGS_PER_KEY:
            return system._step(tenant, index, trace, now)
        return self._record(system, tenant, index, trace, now, state)

    # -- the recording path ---------------------------------------------

    def _record(self, system, tenant, index, trace, now, state):
        registry = self.registry
        pre = self.adapter.capture(index, trace)
        snapshot = system.stats.snapshot()
        pj_trace = registry.begin_pj_trace()
        try:
            end = system._execute(tenant, index, trace, now)
        finally:
            registry.end_pj_trace()
        body_delta = registry.diff(snapshot)
        system._record_invocation(trace, end - now, snapshot)
        if pre is None or pj_trace.poisoned:
            self.ineligible += 1
            TELEMETRY["ineligible"] += 1
            return end
        post = self.adapter.capture(index, trace)
        recording = self.adapter.build(pre, post, now, end, index, trace)
        if recording is None:
            self.ineligible += 1
            TELEMETRY["ineligible"] += 1
            return end
        recording.duration = end - now
        recording.pj_program = pj_trace.program()
        recording.delta_items = tuple(
            (name, value) for name, value in body_delta.items()
            if not name.endswith("_pj"))
        recording.energy_names = tuple(
            name for name in body_delta if name.endswith("energy_pj"))
        state.recordings.append(recording)
        self.recordings += 1
        TELEMETRY["recordings"] += 1
        return end

    # -- the O(footprint) replay ----------------------------------------

    def _apply(self, recording, now):
        registry = self.registry
        energy_names = recording.energy_names
        before = [registry.get(name) for name in energy_names]
        registry.replay_pj(recording.pj_program)
        registry.bulk_add(recording.delta_items)
        self.adapter.apply(recording, now)
        # Mirror System._record_invocation: the energy delta summed
        # over the diff's energy counters, in recorded diff order —
        # bit-identical to what a real run at this state would report.
        energy = 0
        for name, start in zip(energy_names, before):
            energy += registry.get(name) - start
        registry.add(
            "invocation.{}.cycles".format(recording.name),
            recording.duration)
        registry.add(
            "invocation.{}.energy_pj".format(recording.name), energy)
        registry.add("invocation.{}.count".format(recording.name))


# ---------------------------------------------------------------------------
# per-family adapters: each guards one tenant's bound machinery
# ---------------------------------------------------------------------------

def _base_key(tenant, trace):
    return (trace_replay_token(trace), tenant.axc_of(trace),
            tenant.mlp(trace))


class AccTileReplayAdapter:
    """FUSION / FUSION-Dx: full L0X + L1X footprint + forward queues."""

    #: The first occurrence records cold-cache state and the second's
    #: lease relatives differ from steady state, so the earliest
    #: possible hit is the third occurrence.
    min_occurrences = 3

    def __init__(self, tenant, bound, strategy):
        self.tenant = tenant
        self.bound = bound
        self.strategy = strategy
        self.tile = bound.tile
        self.host = bound.host_mem

    def key_of(self, index, trace):
        plan = self.bound.forward_plan_for(self.strategy, index)
        plan_token = tuple(map(tuple, plan)) if plan else None
        return _base_key(self.tenant, trace) + (
            self.bound.effective_lease(self.strategy, trace), plan_token)

    def capture(self, index, trace):
        axc = self.tenant.axc_of(trace)
        tile = self.tile
        return {
            "axc": axc,
            "l0x": tile.l0xs[axc].state_signature(),
            "l1x": tile.l1x.state_signature(),
            "fwd": [dict(l0x._incoming_forwards) for l0x in tile.l0xs],
            "host": self.host.struct_version,
            "dram": self.host.dram.version,
        }

    def build(self, pre, post, t0, end, index, trace):
        if pre["host"] != post["host"] or pre["dram"] != post["dram"]:
            return None
        axc = pre["axc"]
        duration = end - t0
        # The cover threshold dominates every time compare the
        # invocation can perform (run/phase guard horizons stay under
        # ~6x duration; write-epoch equality checks are bounded by the
        # largest epoch visible at entry, which the signature pins).
        cover = 8 * duration + 64 + max_write_epoch_rel(pre["l1x"], t0)
        plan = self.bound.forward_plan_for(self.strategy, index)
        demote = (frozenset(block for block, _consumer in plan)
                  if plan else frozenset())
        l1x_cache = self.tile.l1x.cache
        extra_sets = {
            l1x_cache.set_index_of(block)
            for block in (capture_blocks(pre["l0x"])
                          + capture_blocks(post["l0x"])
                          + list(pre["fwd"][axc]))
        }
        try:
            l0x_sig, l0x_tf = build_cache_recording(
                pre["l0x"], post["l0x"], t0, clamp_lease=True,
                cover=cover, demote_blocks=demote, require_clean=True)
            l1x_sig, l1x_tf = build_cache_recording(
                pre["l1x"], post["l1x"], t0, clamp_gtime=True,
                cover=cover, extra_sets=extra_sets)
        except Ineligible:
            return None
        own_pre = pre["fwd"][axc]
        fwd_sig = tuple((block, value - t0)
                        for block, value in own_pre.items())
        own_post = post["fwd"][axc]
        fwd_post = tuple((block, value - t0)
                         for block, value in own_post.items())
        fwd_sets = []
        for consumer, (pre_fwd, post_fwd) in enumerate(
                zip(pre["fwd"], post["fwd"])):
            if consumer == axc:
                continue
            for block in pre_fwd:
                if block not in post_fwd:
                    return None     # unexpected: forwards never drain
            for block, value in post_fwd.items():
                if pre_fwd.get(block) != value:
                    fwd_sets.append((consumer, block, value - t0))
        recording = Recording(trace.name, {
            "axc": axc,
            "host": pre["host"],
            "dram": pre["dram"],
            "l0x_sig": l0x_sig, "l0x_tf": l0x_tf,
            "l1x_sig": l1x_sig, "l1x_tf": l1x_tf,
            "fwd_sig": fwd_sig, "fwd_post": fwd_post,
            "fwd_sets": tuple(fwd_sets),
        })
        return recording

    def matches(self, recording, t0):
        payload = recording.payload
        host = self.host
        if (host.struct_version != payload["host"]
                or host.dram.version != payload["dram"]):
            return False
        l0x = self.tile.l0xs[payload["axc"]]
        own = l0x._incoming_forwards
        fwd_sig = payload["fwd_sig"]
        if len(own) != len(fwd_sig):
            return False
        for block, rel in fwd_sig:
            if own.get(block) != t0 + rel:
                return False
        return (match_cache_signature(l0x.cache, payload["l0x_sig"], t0)
                and match_cache_signature(self.tile.l1x.cache,
                                          payload["l1x_sig"], t0))

    def apply(self, recording, t0):
        payload = recording.payload
        l0x = self.tile.l0xs[payload["axc"]]
        l0x.apply_transform(payload["l0x_tf"], t0)
        self.tile.l1x.apply_transform(payload["l1x_tf"], t0)
        own = l0x._incoming_forwards
        own.clear()
        for block, rel in payload["fwd_post"]:
            own[block] = t0 + rel
        l0xs = self.tile.l0xs
        for consumer, block, rel in payload["fwd_sets"]:
            l0xs[consumer]._incoming_forwards[block] = t0 + rel


class SharedL1XReplayAdapter:
    """SHARED: the one shared cache plus host/DRAM version pins.

    The shared L1X has no lease machinery — its lines carry no time
    fields at all — so signatures need no clamping and recordings hit
    from the second steady iteration onward.
    """

    #: Capturing the whole shared array twice per recording is the
    #: costliest guard in the family; only engage once a key can be
    #: probed against a warm recording at least twice.
    min_occurrences = 3

    def __init__(self, tenant, bound):
        self.tenant = tenant
        self.l1x = bound.l1x
        self.host = bound.host_mem

    def key_of(self, index, trace):
        return _base_key(self.tenant, trace)

    def capture(self, index, trace):
        return {
            "l1x": self.l1x.state_signature(),
            "host": self.host.struct_version,
            "dram": self.host.dram.version,
        }

    def build(self, pre, post, t0, end, index, trace):
        if pre["host"] != post["host"] or pre["dram"] != post["dram"]:
            return None
        try:
            sig, transform = build_cache_recording(
                pre["l1x"], post["l1x"], t0)
        except Ineligible:
            return None
        return Recording(trace.name, {
            "host": pre["host"], "dram": pre["dram"],
            "sig": sig, "tf": transform,
        })

    def matches(self, recording, t0):
        payload = recording.payload
        host = self.host
        if (host.struct_version != payload["host"]
                or host.dram.version != payload["dram"]):
            return False
        return match_cache_signature(self.l1x.cache, payload["sig"], t0)

    def apply(self, recording, t0):
        self.l1x.apply_transform(recording.payload["tf"], t0)


class ScratchReplayAdapter:
    """SCRATCH: empty-scratchpad guard + per-block L2 dirty pins.

    Scratchpads drain at every window boundary, so invocations start and
    end with an empty scratchpad; the only host-side state a steady
    (all-L2-hit) DMA sequence moves without bumping ``struct_version``
    is L2 dirty bits on the windows' blocks, which the recording pins
    per physical block and the transform re-marks.
    """

    def __init__(self, tenant, bound):
        self.tenant = tenant
        self.bound = bound
        self.host = bound.host_mem
        self._pblock_cache = {}

    def key_of(self, index, trace):
        return _base_key(self.tenant, trace)

    def _pblocks_of(self, trace):
        token = trace_replay_token(trace)
        pblocks = self._pblock_cache.get(token)
        if pblocks is None:
            from ..host.dma import windows_for
            windows = windows_for(trace, self.bound.capacity)
            vblocks = set()
            for window in windows:
                vblocks.update(window.in_blocks)
                vblocks.update(window.out_blocks)
            translate = self.bound.page_table.translate
            pblocks = tuple(sorted({translate(block)
                                    for block in vblocks}))
            self._pblock_cache[token] = pblocks
        return pblocks

    def _l2_state(self, pblocks):
        lookup = self.host.l2.lookup
        state = []
        for pblock in pblocks:
            line = lookup(pblock, touch=False)
            state.append(None if line is None else line.dirty)
        return tuple(state)

    def capture(self, index, trace):
        axc = self.tenant.axc_of(trace)
        if self.bound.scratchpads[axc].state_signature():
            return None         # non-empty scratchpad: cannot guard
        pblocks = self._pblocks_of(trace)
        return {
            "axc": axc,
            "pblocks": pblocks,
            "l2": self._l2_state(pblocks),
            "host": self.host.struct_version,
            "dram": self.host.dram.version,
        }

    def build(self, pre, post, t0, end, index, trace):
        if (post is None or pre["host"] != post["host"]
                or pre["dram"] != post["dram"]):
            return None
        dirty_marks = []
        for pblock, before, after in zip(pre["pblocks"], pre["l2"],
                                         post["l2"]):
            if (before is None) != (after is None):
                return None     # presence changed without a bump?
            if before != after:
                dirty_marks.append(pblock)
        return Recording(trace.name, {
            "axc": pre["axc"],
            "pblocks": pre["pblocks"],
            "l2": pre["l2"],
            "dirty_marks": tuple(dirty_marks),
            "host": pre["host"], "dram": pre["dram"],
        })

    def matches(self, recording, t0):
        payload = recording.payload
        host = self.host
        if (host.struct_version != payload["host"]
                or host.dram.version != payload["dram"]):
            return False
        if self.bound.scratchpads[payload["axc"]].state_signature():
            return False
        return self._l2_state(payload["pblocks"]) == payload["l2"]

    def apply(self, recording, t0):
        lookup = self.host.l2.lookup
        for pblock in recording.payload["dirty_marks"]:
            lookup(pblock, touch=False).dirty = True


class IdealReplayAdapter:
    """IDEAL: no hierarchy state at all — pure timeline + stats replay."""

    def __init__(self, tenant):
        self.tenant = tenant

    def key_of(self, index, trace):
        return _base_key(self.tenant, trace)

    def capture(self, index, trace):
        return {}

    def build(self, pre, post, t0, end, index, trace):
        return Recording(trace.name, {})

    def matches(self, recording, t0):
        return True

    def apply(self, recording, t0):
        pass
