"""Trace builder and address space (repro.workloads.builder)."""

import pytest

from repro.common.errors import TraceError
from repro.common.types import AccessType, ComputeOp, MemOp
from repro.workloads.builder import AddressSpace, TraceBuilder


def make_builder(benchmark="bench"):
    space = AddressSpace()
    return space, TraceBuilder(benchmark, space)


def test_alloc_assigns_disjoint_ranges():
    space = AddressSpace()
    a = space.alloc("a", 100, elem_size=4)
    b = space.alloc("b", 100, elem_size=4)
    assert a.base + a.size_bytes <= b.base


def test_alloc_staggers_array_bases():
    """Equal-size arrays must not land in the same cache set (the
    page-aligned-streams pathology the allocator gap avoids)."""
    space = AddressSpace()
    a = space.alloc("a", 1024, elem_size=4)
    b = space.alloc("b", 1024, elem_size=4)
    sets = 16  # 4 kB 4-way L0X
    assert (a.base // 64) % sets != (b.base // 64) % sets


def test_alloc_duplicate_name_rejected():
    space = AddressSpace()
    space.alloc("a", 8)
    with pytest.raises(TraceError):
        space.alloc("a", 8)


def test_array_addressing():
    space = AddressSpace()
    arr = space.alloc("a", 10, elem_size=2)
    assert arr.addr(3) == arr.base + 6
    assert len(arr) == 10


def test_array_bounds_checked():
    space = AddressSpace()
    arr = space.alloc("a", 10)
    with pytest.raises(TraceError):
        arr.addr(10)
    with pytest.raises(TraceError):
        arr.addr(-1)


def test_load_store_emission():
    space, tb = make_builder()
    arr = space.alloc("a", 8)
    tb.begin_function("f")
    tb.load(arr, 0)
    tb.store(arr, 1)
    trace = tb.end_function()
    assert trace.ops[0].kind is AccessType.LOAD
    assert trace.ops[1].kind is AccessType.STORE
    assert trace.ops[1].addr == arr.addr(1)
    assert trace.ops[0].array == "a"


def test_compute_flushes_before_store_not_load():
    space, tb = make_builder()
    arr = space.alloc("a", 8)
    tb.begin_function("f")
    tb.load(arr, 0)
    tb.compute(int_ops=2)
    tb.load(arr, 1)          # pending compute must NOT flush here
    tb.compute(int_ops=3)
    tb.store(arr, 2)         # ... but must flush here, merged
    trace = tb.end_function()
    kinds = [type(op).__name__ for op in trace.ops]
    assert kinds == ["MemOp", "MemOp", "ComputeOp", "MemOp"]
    assert trace.ops[2].int_ops == 5


def test_barrier_flushes_explicitly():
    space, tb = make_builder()
    tb.begin_function("f")
    tb.compute(fp_ops=1)
    tb.barrier()
    trace = tb.end_function()
    assert isinstance(trace.ops[0], ComputeOp)


def test_end_function_flushes_tail_compute():
    space, tb = make_builder()
    tb.begin_function("f")
    tb.compute(int_ops=7)
    trace = tb.end_function()
    assert trace.ops[-1].int_ops == 7


def test_function_scoping_errors():
    space, tb = make_builder()
    arr = space.alloc("a", 4)
    with pytest.raises(TraceError):
        tb.load(arr, 0)           # outside a function
    with pytest.raises(TraceError):
        tb.end_function()
    tb.begin_function("f")
    with pytest.raises(TraceError):
        tb.begin_function("g")    # nested


def test_context_manager_sugar():
    space, tb = make_builder()
    arr = space.alloc("a", 4)
    with tb.function("f", lease=321):
        tb.load(arr, 0)
    workload = tb.workload()
    assert workload.invocations[0].name == "f"
    assert workload.invocations[0].lease_time == 321


def test_workload_records_array_ranges():
    space, tb = make_builder()
    arr = space.alloc("input", 16)
    with tb.function("f"):
        tb.load(arr, 0)
    workload = tb.workload(host_inputs=("input",),
                           host_outputs=("input",))
    assert workload.array_ranges["input"] == (arr.base, arr.size_bytes)
    assert workload.host_input_arrays == [(arr.base, arr.size_bytes)]


def test_workload_with_open_function_rejected():
    space, tb = make_builder()
    tb.begin_function("f")
    with pytest.raises(TraceError):
        tb.workload()


# -- one op object per distinct access ------------------------------------


def _op_ids(workload):
    return {id(op) for trace in workload.invocations for op in trace.ops}


def test_equal_accesses_in_one_build_are_one_object():
    space, tb = make_builder()
    a = space.alloc("a", 8)
    b = space.alloc("b", 8)
    with tb.function("f"):
        tb.load(a, 1)
        tb.compute(int_ops=2)
        tb.store(a, 1)
    with tb.function("g"):
        tb.load(a, 1)
        tb.load(a, 2)
        tb.load(b, 1)
        tb.compute(int_ops=2)
        tb.store(a, 1)
    f, g = tb.workload().invocations
    assert g.ops[0] is f.ops[0]          # load a[1]
    assert g.ops[3] is f.ops[1]          # ComputeOp(2, 0)
    assert g.ops[4] is f.ops[2]          # store a[1]
    assert f.ops[2] is not f.ops[0]      # same index, other kind
    assert g.ops[1] is not g.ops[0]      # same array, other index
    assert g.ops[2] is not g.ops[0]      # same index, other array
    assert g.ops[2].addr == b.addr(1)


def test_two_builds_are_equal_and_share_no_op_object():
    from repro.workloads.kernels import fft
    first, _ = fft.build_workload(make_builder, n=16, iterations=2)
    second, _ = fft.build_workload(make_builder, n=16, iterations=2)
    assert first == second
    assert not _op_ids(first) & _op_ids(second)


def test_out_of_range_index_still_raises_after_valid_accesses():
    space, tb = make_builder()
    arr = space.alloc("a", 4)
    tb.begin_function("f")
    for index in range(4):
        tb.load(arr, index)
        tb.store(arr, index)
    for emit in (tb.load, tb.store):
        for index in (4, -1):
            with pytest.raises(TraceError):
                emit(arr, index)


def test_fft_builds_one_memop_per_distinct_access(monkeypatch):
    """FFT at n=512 x16 repeats each step 16 times: its MemOps are
    bounded by its distinct (is_store, addr) pairs, not by its
    dynamic accesses."""
    from repro.workloads.kernels import fft
    built = []
    post_init = MemOp.__post_init__

    def counting(op):
        built.append(1)
        post_init(op)

    monkeypatch.setattr(MemOp, "__post_init__", counting)
    workload, _ = fft.build_workload(make_builder, n=512, iterations=16)
    ops = [op for trace in workload.invocations for op in trace.ops
           if isinstance(op, MemOp)]
    distinct = {(op.is_store, op.addr) for op in ops}
    assert len(built) <= len(distinct) < len(ops)
