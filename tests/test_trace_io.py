"""Trace persistence (repro.workloads.trace_io)."""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import TraceError
from repro.common.types import (
    AccessType,
    ComputeOp,
    FunctionTrace,
    MemOp,
    PhaseMarker,
    WorkloadTrace,
)
from repro.workloads import trace_io


def roundtrip(workload):
    buffer = io.StringIO()
    trace_io.dump(workload, buffer)
    buffer.seek(0)
    return trace_io.load(buffer)


def test_roundtrip_real_benchmark(adpcm_tiny):
    back = roundtrip(adpcm_tiny)
    assert back.benchmark == adpcm_tiny.benchmark
    assert back.host_input_arrays == adpcm_tiny.host_input_arrays
    assert back.host_output_arrays == adpcm_tiny.host_output_arrays
    assert back.array_ranges == adpcm_tiny.array_ranges
    assert len(back.invocations) == len(adpcm_tiny.invocations)
    for original, restored in zip(adpcm_tiny.invocations,
                                  back.invocations):
        assert restored.name == original.name
        assert restored.lease_time == original.lease_time
        assert restored.ops == original.ops


def test_roundtrip_via_files(tmp_path, fft_tiny):
    path = tmp_path / "fft.trace"
    trace_io.save_path(fft_tiny, path)
    back = trace_io.load_path(path)
    assert back.working_set_blocks() == fft_tiny.working_set_blocks()


def test_loaded_trace_simulates_identically(tmp_path, adpcm_tiny):
    from repro.common.config import small_config
    from repro.systems import SYSTEMS
    path = tmp_path / "adpcm.trace"
    trace_io.save_path(adpcm_tiny, path)
    restored = trace_io.load_path(path)
    original = SYSTEMS["FUSION"](small_config(), adpcm_tiny).run()
    replayed = SYSTEMS["FUSION"](small_config(), restored).run()
    # Bit-identical, not just approximately equal: the replayed run must
    # reproduce every counter of the original (the restored trace goes
    # through the same lowering pass, so any drift here means trace
    # serialisation or lowering lost information).
    assert replayed.accel_cycles == original.accel_cycles
    assert replayed.total_cycles == original.total_cycles
    assert replayed.energy.total_pj == original.energy.total_pj
    assert replayed.stats == original.stats


def test_dump_unaffected_by_attached_hot_path_memos(fft_tiny):
    """Lowered streams, MLP tables and DMA windows are memoised on the
    trace objects; none of that may leak into the serialised format."""
    from repro.host.dma import windows_for
    from repro.workloads.characterize import function_mlp
    from repro.workloads.lowering import lower_workload

    before = io.StringIO()
    trace_io.dump(fft_tiny, before)
    lower_workload(fft_tiny)
    function_mlp(fft_tiny)
    windows_for(fft_tiny.invocations[0], 4)
    after = io.StringIO()
    trace_io.dump(fft_tiny, after)
    assert after.getvalue() == before.getvalue()


def test_empty_file_rejected():
    with pytest.raises(TraceError):
        trace_io.load(io.StringIO(""))


def test_wrong_version_rejected():
    with pytest.raises(TraceError):
        trace_io.load(io.StringIO('{"version": 99}\n'))


def test_op_before_function_rejected():
    content = ('{"version": 1, "benchmark": "b", "host_inputs": [], '
               '"host_outputs": [], "arrays": {}}\n["L", 0, 4, "a"]\n')
    with pytest.raises(TraceError):
        trace_io.load(io.StringIO(content))


ops = st.lists(st.one_of(
    st.builds(MemOp,
              kind=st.sampled_from(list(AccessType)),
              addr=st.integers(0, 1 << 30),
              size=st.integers(1, 8),
              array=st.text("ab_", max_size=6)),
    st.builds(ComputeOp, int_ops=st.integers(0, 100),
              fp_ops=st.integers(0, 100)),
    st.builds(PhaseMarker, label=st.text("xyz", max_size=4)),
), max_size=40)


@given(st.lists(st.tuples(st.text("fg", min_size=1, max_size=5),
                          st.integers(1, 5000), ops), max_size=5))
@settings(max_examples=50)
def test_roundtrip_property(functions):
    workload = WorkloadTrace(benchmark="prop", invocations=[
        FunctionTrace(name=name, benchmark="prop", lease_time=lease,
                      ops=list(trace_ops))
        for name, lease, trace_ops in functions
    ])
    back = roundtrip(workload)
    assert [t.name for t in back.invocations] == \
        [t.name for t in workload.invocations]
    assert [t.ops for t in back.invocations] == \
        [t.ops for t in workload.invocations]
