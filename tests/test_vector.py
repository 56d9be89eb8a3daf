"""Unit tests for the SoA vector compiler (repro.workloads.vector)."""

import pytest

np = pytest.importorskip("numpy")

from repro.common.stats import StatsRegistry
from repro.common.types import AccessType, ComputeOp, FunctionTrace, MemOp
from repro.workloads import vector
from repro.workloads.phases import build_phase, phase_plan, \
    single_run_phase
from repro.workloads.vector import KIND_COMPUTE, KIND_LOAD, KIND_STORE, \
    VectorWindow, accumulate, build_window, compile_vector_plan, \
    compile_window_ledger, vector_plan

BASE = 0x10000


def _load(block):
    return MemOp(AccessType.LOAD, BASE + block * 64)


def _store(block):
    return MemOp(AccessType.STORE, BASE + block * 64)


def _trace(ops):
    return FunctionTrace(name="fn", benchmark="unit", ops=ops)


def _run_ops(block, is_store, count):
    op = _store(block) if is_store else _load(block)
    return [MemOp(op.kind, op.addr) for _ in range(count)]


# ---------------------------------------------------------------------------
# accumulate: the serial-fold primitive everything else leans on.

def test_accumulate_bit_identical_to_python_fold():
    import random
    rng = random.Random(42)
    for trial in range(50):
        start = rng.uniform(-1e6, 1e6)
        amounts = [rng.uniform(-1e3, 1e3)
                   for _ in range(rng.randrange(1, 64))]
        expected = start
        for amount in amounts:
            expected += amount
        assert repr(accumulate(start, amounts)) == repr(expected)


def test_accumulate_returns_python_float():
    value = accumulate(1.5, [2.5, 3.0])
    assert type(value) is float
    assert value == 7.0


# ---------------------------------------------------------------------------
# VectorWindow: the SoA layout itself.

def _two_phase_window():
    head = build_phase([(_load(0), 0, 3), (None, 4, 1),
                        (_store(1), 1, 2)])
    tail = build_phase([(_load(2), 2, 5)])
    return build_window(((head, None), (tail, None)), start=7)


def test_window_soa_arrays_match_steps():
    window = _two_phase_window()
    assert window.start == 7
    assert window.span == 2
    assert list(window.step_kind) == [KIND_LOAD, KIND_COMPUTE,
                                      KIND_STORE, KIND_LOAD]
    assert list(window.step_block) == [0, -1, 1, 2]
    assert list(window.step_count) == [3, 1, 2, 5]
    assert list(window.step_latency) == [0, 4, 0, 0]
    assert list(window.step_phase) == [0, 0, 0, 1]


def test_window_per_phase_aggregates_are_python_scalars():
    window = _two_phase_window()
    assert window.mem_ops == (5, 5)
    assert window.compute == (4, 0)
    assert window.num_loads == (3, 5)
    assert window.num_stores == (2, 0)
    # Prefix sums index by accepted-phase count; native ints so the
    # core's clock never becomes a numpy scalar.
    assert window.cum_mem_ops == (0, 5, 10)
    assert window.cum_compute == (0, 4, 4)
    assert window.total_loads == 8
    assert window.total_stores == 2
    for value in window.cum_mem_ops + window.cum_compute:
        assert type(value) is int


def test_window_guard_rows_flatten_block_info():
    window = _two_phase_window()
    assert window.rows == ((0, False), (1, True), (2, False))
    assert window.row_blocks == (0, 1, 2)
    assert window.row_phase_ids == (0, 0, 1)
    # row_start[j] slices phase j's rows.
    assert window.row_start == (0, 2, 3)
    assert list(window.row_last_pos) == [3, 5, 5]


def test_window_op_kinds_expand_in_program_order():
    window = _two_phase_window()
    kinds = window.op_kinds()
    assert list(kinds) == [KIND_LOAD] * 3 + [KIND_STORE] * 2 \
        + [KIND_LOAD] * 5
    assert len(kinds) == sum(window.mem_ops)


def test_window_prefix_cycles_closed_form():
    window = _two_phase_window()
    assert window.prefix_cycles(0, 2) == 0
    assert window.prefix_cycles(1, 2) == 5 * 2 + 4
    assert window.prefix_cycles(2, 2) == 10 * 2 + 4


# ---------------------------------------------------------------------------
# compile_vector_plan: windowing over plan entries.

def test_plan_windows_are_maximal_phase_runs():
    ops = (_run_ops(0, False, 6) + _run_ops(1, False, 6)
           + [ComputeOp(int_ops=200)]          # phase-breaking step
           + _run_ops(2, True, 6))
    plan = phase_plan(_trace(ops))
    vplan = compile_vector_plan(plan)
    # Only runs of >= MIN_WINDOW_PHASES consecutive phases compile.
    for window in vplan.windows:
        assert window.span >= vector.MIN_WINDOW_PHASES
        assert vplan.window_at[window.start] is window
    assert vplan.num_phases == sum(w.span for w in vplan.windows)


def test_single_phase_runs_get_no_window():
    plan = phase_plan(_trace(_run_ops(0, False, 8)))
    phase_entries = [e for e in plan.entries if e[0] is not None]
    if len(phase_entries) < vector.MIN_WINDOW_PHASES:
        assert compile_vector_plan(plan).windows == ()


def test_vector_plan_memoised():
    trace = _trace(_run_ops(0, False, 8) + _run_ops(1, True, 8))
    assert vector._VECTOR_ATTR not in trace.__dict__
    plan = vector_plan(trace)
    assert vector_plan(trace) is plan
    assert trace.__dict__[vector._VECTOR_ATTR] is plan


# ---------------------------------------------------------------------------
# compile_window_ledger: the whole-window bulk counter apply.

LOAD_PAIRS = (("l0x.read_hits", 1), ("l0x.energy_pj", 0.7),
              ("link.msg_energy_pj", 0.3))
STORE_PAIRS = (("l0x.write_hits", 1), ("l0x.energy_pj", 1.1),
               ("link.msg_energy_pj", 0.3))


def _per_phase_reference(window):
    """Charge every phase's ledger in order (the per-phase rung's
    exact behaviour) and return the snapshot."""
    registry = StatsRegistry()
    charge = registry.phase_ledger(LOAD_PAIRS, STORE_PAIRS)
    for phase in window.phases:
        charge(phase)
    return registry.snapshot()


def test_window_ledger_bit_identical_to_per_phase_ledgers():
    window = _two_phase_window()
    program = compile_window_ledger(LOAD_PAIRS, STORE_PAIRS, window)
    registry = StatsRegistry()
    registry.window_flusher(program)()
    bulk = registry.snapshot()
    reference = _per_phase_reference(window)
    assert sorted(bulk) == sorted(reference)
    for name in reference:
        assert repr(bulk[name]) == repr(reference[name]), name


def test_window_ledger_loads_only():
    window = build_window(((single_run_phase(_load(0), 4), None),
                           (single_run_phase(_load(1), 3), None)))
    program = compile_window_ledger(LOAD_PAIRS, STORE_PAIRS, window)
    registry = StatsRegistry()
    registry.window_flusher(program)()
    snapshot = registry.snapshot()
    assert snapshot["l0x.read_hits"] == 7
    assert "l0x.write_hits" not in snapshot
    reference = _per_phase_reference(window)
    for name in reference:
        assert repr(snapshot[name]) == repr(reference[name]), name


def test_window_ledger_multi_amount_energy_counters():
    # Two increments of the same _pj counter per op: the fold must
    # replay both amounts per op in program order.
    load_pairs = (("l0x.energy_pj", 0.7), ("l0x.energy_pj", 0.05))
    store_pairs = (("l0x.energy_pj", 1.1), ("l0x.energy_pj", 0.05))
    window = _two_phase_window()
    program = compile_window_ledger(load_pairs, store_pairs, window)
    registry = StatsRegistry()
    registry.window_flusher(program)()
    reference = StatsRegistry()
    charge = reference.phase_ledger(load_pairs, store_pairs)
    for phase in window.phases:
        charge(phase)
    assert repr(registry.snapshot()["l0x.energy_pj"]) \
        == repr(reference.snapshot()["l0x.energy_pj"])


def test_window_ledger_starts_from_nonzero_running_value():
    # Energy folds depend on the running value; seed both registries
    # with an awkward float and demand identical rounding.
    window = _two_phase_window()
    program = compile_window_ledger(LOAD_PAIRS, STORE_PAIRS, window)
    registry = StatsRegistry()
    registry.add("l0x.energy_pj", 1234.5678901)
    registry.window_flusher(program)()
    reference = StatsRegistry()
    reference.add("l0x.energy_pj", 1234.5678901)
    charge = reference.phase_ledger(LOAD_PAIRS, STORE_PAIRS)
    for phase in window.phases:
        charge(phase)
    assert repr(registry.snapshot()["l0x.energy_pj"]) \
        == repr(reference.snapshot()["l0x.energy_pj"])


# ---------------------------------------------------------------------------
# Memoisation plumbing.

def test_invalidate_lowered_evicts_vector_plans():
    from repro.workloads.lowering import invalidate_lowered
    trace = _trace(_run_ops(0, False, 8) + _run_ops(1, True, 8))
    vector_plan(trace)
    assert vector._VECTOR_ATTR in trace.__dict__
    invalidate_lowered(trace)
    assert vector._VECTOR_ATTR not in trace.__dict__


def test_vector_plan_none_when_numpy_missing(monkeypatch):
    monkeypatch.setattr(vector, "np", None)
    trace = _trace(_run_ops(0, False, 8))
    assert vector_plan(trace) is None
