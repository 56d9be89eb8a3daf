"""Trace persistence: save and load workload traces as JSON-lines.

The paper's toolchain captures dynamic traces once (instrumented runs of
the C benchmarks) and replays them through many simulator configs.  This
module gives the reproduction the same workflow: kernels are slow-ish to
re-execute, so traces can be serialised to disk and replayed.

Format: one JSON object per line.

* line 1: workload header (benchmark, array ranges, host arrays);
* one ``{"fn": ...}`` header per invocation, followed by its ops in a
  compact array encoding:
  ``["L"|"S", addr, size, array]`` for memory ops,
  ``["C", int_ops, fp_ops]`` for compute chunks,
  ``["P", label]`` for phase markers.

The format is line-diffable, streams (no whole-file parse needed to
inspect), and round-trips exactly — property-tested.  Loading makes one
op object per distinct record, as :class:`~repro.workloads.builder.
TraceBuilder` makes one per distinct access, so a loaded trace
prepares like a built one.
"""

import json

from ..common.errors import TraceError
from ..common.types import (
    AccessType,
    ComputeOp,
    FunctionTrace,
    MemOp,
    PhaseMarker,
    WorkloadTrace,
)

FORMAT_VERSION = 1


def _encode_op(op):
    if isinstance(op, MemOp):
        tag = "S" if op.is_store else "L"
        return [tag, op.addr, op.size, op.array]
    if isinstance(op, ComputeOp):
        return ["C", op.int_ops, op.fp_ops]
    if isinstance(op, PhaseMarker):
        return ["P", op.label]
    raise TraceError("unknown op type {!r}".format(type(op).__name__))


def _decode_op(record):
    tag = record[0]
    if tag in ("L", "S"):
        kind = AccessType.STORE if tag == "S" else AccessType.LOAD
        return MemOp(kind, record[1], record[2], record[3])
    if tag == "C":
        return ComputeOp(int_ops=record[1], fp_ops=record[2])
    if tag == "P":
        return PhaseMarker(record[1])
    raise TraceError("unknown op tag {!r}".format(tag))


def dump(workload, fileobj):
    """Serialise ``workload`` to an open text file object."""
    header = {
        "version": FORMAT_VERSION,
        "benchmark": workload.benchmark,
        "host_inputs": [list(r) for r in workload.host_input_arrays],
        "host_outputs": [list(r) for r in workload.host_output_arrays],
        "arrays": {name: list(r)
                   for name, r in workload.array_ranges.items()},
    }
    fileobj.write(json.dumps(header) + "\n")
    for trace in workload.invocations:
        fileobj.write(json.dumps(
            {"fn": trace.name, "lease": trace.lease_time,
             "ops": len(trace.ops)}) + "\n")
        for op in trace.ops:
            fileobj.write(json.dumps(_encode_op(op)) + "\n")


def load(fileobj):
    """Deserialise a workload from an open text file object."""
    header_line = fileobj.readline()
    if not header_line:
        raise TraceError("empty trace file")
    header = json.loads(header_line)
    if header.get("version") != FORMAT_VERSION:
        raise TraceError("unsupported trace format version {!r}".format(
            header.get("version")))
    invocations = []
    decoded = {}            # tuple(record) -> its one op object
    for line in fileobj:
        record = json.loads(line)
        if isinstance(record, dict):
            invocations.append(FunctionTrace(
                name=record["fn"], benchmark=header["benchmark"],
                lease_time=record["lease"]))
        else:
            if not invocations:
                raise TraceError("op record before any function header")
            key = tuple(record)
            op = decoded.get(key)
            if op is None:
                op = decoded[key] = _decode_op(record)
            invocations[-1].ops.append(op)
    return WorkloadTrace(
        benchmark=header["benchmark"],
        invocations=invocations,
        host_input_arrays=[tuple(r) for r in header["host_inputs"]],
        host_output_arrays=[tuple(r) for r in header["host_outputs"]],
        array_ranges={name: tuple(r)
                      for name, r in header["arrays"].items()},
    )


def save_path(workload, path):
    """Serialise ``workload`` to ``path``."""
    with open(path, "w") as fileobj:
        dump(workload, fileobj)


def load_path(path):
    """Load a workload trace from ``path``."""
    with open(path) as fileobj:
        return load(fileobj)
