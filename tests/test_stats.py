"""Statistics registry (repro.common.stats)."""

import random

from repro.common.stats import StatsRegistry
from repro.common.types import AccessType, MemOp
from repro.workloads.phases import build_phase


def test_add_and_get():
    stats = StatsRegistry()
    stats.add("a.b", 2)
    stats.add("a.b")
    assert stats.get("a.b") == 3
    assert stats.get("missing") == 0
    assert stats.get("missing", 7) == 7


def test_set_overwrites():
    stats = StatsRegistry()
    stats.add("gauge", 5)
    stats.set("gauge", 1)
    assert stats.get("gauge") == 1


def test_scope_prefixes_names():
    stats = StatsRegistry()
    scope = stats.scope("l1x")
    scope.add("hits")
    assert stats.get("l1x.hits") == 1
    nested = scope.scope("bank0")
    nested.add("conflicts", 4)
    assert stats.get("l1x.bank0.conflicts") == 4
    assert nested.get("conflicts") == 4


def test_snapshot_is_independent_copy():
    stats = StatsRegistry()
    stats.add("x", 1)
    snap = stats.snapshot()
    stats.add("x", 1)
    assert snap["x"] == 1
    assert stats.get("x") == 2


def test_diff_reports_only_changes():
    stats = StatsRegistry()
    stats.add("a", 1)
    stats.add("b", 1)
    snap = stats.snapshot()
    stats.add("a", 4)
    stats.add("c", 2)
    delta = stats.diff(snap)
    assert delta == {"a": 4, "c": 2}


def test_merge_accumulates():
    a = StatsRegistry()
    b = StatsRegistry()
    a.add("x", 1)
    b.add("x", 2)
    b.add("y", 3)
    a.merge(b)
    assert a.get("x") == 3
    assert a.get("y") == 3
    a.merge({"x": 1})
    assert a.get("x") == 4


def test_total_sums_prefix():
    stats = StatsRegistry()
    stats.add("link.a.bytes", 10)
    stats.add("link.b.bytes", 5)
    stats.add("linkother", 99)
    assert stats.total("link") == 15


def test_total_counts_exact_name_once_and_ignores_lookalikes():
    """Regression: ``total("l1x")`` must count a counter named exactly
    ``l1x`` exactly once, and must never match ``l1x_other.x`` (a name
    that shares the prefix string but not the dotted hierarchy)."""
    stats = StatsRegistry()
    stats.add("l1x", 7)              # exact name, no dot
    stats.add("l1x.hits", 3)         # true child
    stats.add("l1x_other.x", 100)    # lookalike prefix — must not count
    stats.add("l1xtra", 50)          # lookalike leaf — must not count
    assert stats.total("l1x") == 10
    # A trailing dot means the same subtree.
    assert stats.total("l1x.") == 10


def test_counter_handle_binds_name_and_accumulates():
    stats = StatsRegistry()
    add_hits = stats.counter("l0x.hits")
    assert add_hits.counter_name == "l0x.hits"
    # Creating a handle must NOT materialise the counter (key sets feed
    # the golden digests).
    assert "l0x.hits" not in stats
    add_hits()
    add_hits(2)
    assert stats.get("l0x.hits") == 3


def test_scope_counter_qualifies_and_survives_clear():
    stats = StatsRegistry()
    scope = stats.scope("tile").scope("axc0")
    add = scope.counter("mem_ops")
    add(5)
    assert stats.get("tile.axc0.mem_ops") == 5
    # clear() empties in place, so live handles keep working.
    stats.clear()
    assert stats.get("tile.axc0.mem_ops") == 0
    add(2)
    assert stats.get("tile.axc0.mem_ops") == 2


def test_subtree_strips_prefix():
    stats = StatsRegistry()
    stats.add("l0x.hits", 1)
    stats.add("l0x.misses", 2)
    stats.add("l1x.hits", 9)
    assert stats.subtree("l0x") == {"hits": 1, "misses": 2}


def test_names_sorted_and_contains():
    stats = StatsRegistry()
    stats.add("b")
    stats.add("a")
    assert stats.names() == ["a", "b"]
    assert "a" in stats
    assert "z" not in stats


def test_clear():
    stats = StatsRegistry()
    stats.add("a")
    stats.clear()
    assert stats.names() == []


# -- phase ledger ---------------------------------------------------------

#: One load hit's and one store hit's increments: exact counters, energy
#: counters with non-dyadic amounts, a name charged twice per event and
#: a name only stores charge.
LOAD_PAIRS = [("l0x.accesses", 1), ("l0x.energy_pj", 0.7),
              ("l0x.hits", 1), ("link.energy_pj", 0.3),
              ("l0x.energy_pj", 0.05)]
STORE_PAIRS = [("l0x.accesses", 1), ("l0x.energy_pj", 0.001),
               ("l0x.hits", 1), ("link.energy_pj", 0.3),
               ("l1x.wt_energy_pj", 0.13), ("link.flits", 1.5)]


def _phase(runs):
    """A phase of ``(is_store, count)`` runs over a few lines, with
    compute between some of them."""
    steps = []
    for index, (is_store, count) in enumerate(runs):
        kind = AccessType.STORE if is_store else AccessType.LOAD
        op = MemOp(kind, 0x1000 + (index % 3) * 64)
        steps.append((op, op.block, count))
        if index % 2:
            steps.append((None, 3, 0))
    return build_phase(steps)


def _phases():
    rng = random.Random(7)
    phases = [_phase([(False, 5)]), _phase([(True, 4)]),
              # Equal op counts, opposite order: one program, two
              # rounding sequences.
              _phase([(False, 3), (True, 2)]),
              _phase([(True, 2), (False, 3)])]
    for _ in range(40):
        phases.append(_phase([(rng.random() < 0.4, rng.randint(1, 9))
                              for _ in range(rng.randint(1, 8))]))
    return phases


def _charge_both_ways(traced):
    ledger_stats, per_op_stats = StatsRegistry(), StatsRegistry()
    for registry in (ledger_stats, per_op_stats):
        # Small running values: rounding then depends on add order.
        registry.add("l0x.energy_pj", 0.1)
        registry.add("link.energy_pj", 0.1)
    traces = [registry.begin_pj_trace() if traced else None
              for registry in (ledger_stats, per_op_stats)]
    charge = ledger_stats.phase_ledger(LOAD_PAIRS, STORE_PAIRS)
    flush_load = per_op_stats.flusher(LOAD_PAIRS)
    flush_store = per_op_stats.flusher(STORE_PAIRS)
    phases = _phases()
    # Charging a phase twice reuses its memoised flush.
    for phase in phases + phases[:3]:
        charge(phase)
        for is_store, count in phase.event_seq:
            flush = flush_store if is_store else flush_load
            for _ in range(count):
                flush()
    return ledger_stats, per_op_stats, traces


def _assert_bit_identical(left, right):
    left, right = left.snapshot(), right.snapshot()
    assert sorted(left) == sorted(right)
    for name in right:
        assert repr(left[name]) == repr(right[name]), name


def test_phase_ledger_bit_identical_to_per_op_flushers():
    ledger_stats, per_op_stats, _ = _charge_both_ways(traced=False)
    _assert_bit_identical(ledger_stats, per_op_stats)


def test_phase_ledger_bit_identical_while_a_pj_trace_records():
    ledger_stats, per_op_stats, traces = _charge_both_ways(traced=True)
    _assert_bit_identical(ledger_stats, per_op_stats)
    programs = [registry.end_pj_trace().program()
                for registry in (ledger_stats, per_op_stats)]
    assert traces[0].blocks and not traces[0].poisoned
    assert dict(programs[0]) == dict(programs[1])
    # Either recording replays to the same bits from any start.
    replays = []
    for program in programs:
        registry = StatsRegistry()
        registry.add("l0x.energy_pj", 0.1)
        registry.replay_pj(program)
        replays.append(registry)
    _assert_bit_identical(*replays)
