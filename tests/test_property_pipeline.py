"""Property-based tests: the pipelined scheduler on random workloads.

Random multi-function workloads with arbitrary block overlap must
schedule correctly: everything completes, the accounting validates, the
same work is performed, and overlap can only help."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import small_config
from repro.common.types import AccessType, ComputeOp, FunctionTrace, \
    MemOp, WorkloadTrace
from repro.sim.validate import validate
from repro.systems import SYSTEMS

# Functions draw blocks from a small pool so overlap (and therefore
# dependence edges) is common but not universal.
mem_op = st.builds(
    MemOp,
    kind=st.sampled_from(list(AccessType)),
    addr=st.integers(0, 23).map(lambda i: 0x10000 + i * 64),
)
function_ops = st.lists(
    st.one_of(mem_op, st.builds(ComputeOp, int_ops=st.integers(1, 8))),
    min_size=1, max_size=25)

workloads = st.lists(
    st.tuples(st.integers(0, 3), function_ops),  # (axc tag, ops)
    min_size=1, max_size=6)


def build(spec):
    invocations = [
        FunctionTrace(name="fn{}".format(axc_tag), benchmark="prop",
                      ops=list(ops), lease_time=300)
        for axc_tag, ops in spec
    ]
    base = 0x10000
    size = 24 * 64
    return WorkloadTrace(
        benchmark="prop", invocations=invocations,
        host_input_arrays=[(base, size)],
        host_output_arrays=[(base, size)],
        array_ranges={"pool": (base, size)},
    )


@given(workloads)
@settings(max_examples=60, deadline=None)
def test_pipelined_schedules_random_workloads(spec):
    workload = build(spec)
    sequential = SYSTEMS["FUSION"](small_config(), workload).run()
    pipelined = SYSTEMS["FUSION-PIPE"](small_config(), workload).run()
    # Everything completed and validates.
    assert validate(pipelined) == []
    assert set(pipelined.function_names()) == \
        set(workload.function_names())
    # Overlap can only help (small slack for flush-ordering jitter).
    assert pipelined.accel_cycles <= sequential.accel_cycles * 1.02 + 4


@given(workloads)
@settings(max_examples=40, deadline=None)
def test_pipelined_performs_identical_work(spec):
    workload = build(spec)
    sequential = SYSTEMS["FUSION"](small_config(), workload).run()
    pipelined = SYSTEMS["FUSION-PIPE"](small_config(), workload).run()

    def accesses(result):
        return sum(v for k, v in result.stats.items()
                   if k.startswith("l0x.axc") and
                   k.endswith(".accesses"))

    assert accesses(pipelined) == accesses(sequential)


@given(workloads)
@settings(max_examples=40, deadline=None)
def test_pipelined_leaves_no_dirty_state(spec):
    workload = build(spec)
    system = SYSTEMS["FUSION-PIPE"](small_config(), workload)
    system.run()
    tile = system.tenants[0].binder.bound_families["fusion"].tile
    for l0x in tile.l0xs:
        assert not l0x.cache.dirty_lines()
        assert not l0x._incoming_forwards
