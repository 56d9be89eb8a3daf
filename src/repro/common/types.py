"""Core value types shared by every layer of the simulator.

The workload layer emits *trace operations* (:class:`MemOp`, :class:`ComputeOp`,
:class:`PhaseMarker`); the memory hierarchy consumes *accesses* derived from
them.  Addresses are plain integers (virtual on the accelerator tile,
physical on the host side); :func:`block_address` aligns them to cache lines.
"""

from dataclasses import dataclass, field, fields, is_dataclass
from enum import Enum, auto

from .units import LINE_SIZE


class AccessType(Enum):
    """Kind of memory access issued to the hierarchy."""

    LOAD = auto()
    STORE = auto()

    @property
    def is_store(self):
        return self is AccessType.STORE


class OpClass(Enum):
    """Operation classes used for the Table 1 instruction-mix breakdown."""

    INT = auto()
    FP = auto()
    LOAD = auto()
    STORE = auto()


def block_address(addr, line_size=LINE_SIZE):
    """Return ``addr`` aligned down to its cache-line base address."""
    return addr & ~(line_size - 1)


def block_offset(addr, line_size=LINE_SIZE):
    """Return the byte offset of ``addr`` within its cache line."""
    return addr & (line_size - 1)


@dataclass(frozen=True)
class MemOp:
    """One memory operation in an accelerator trace.

    Attributes:
        kind: load or store.
        addr: virtual byte address.
        size: access size in bytes (1-8).
        array: name of the logical array touched; used by the working-set
            and sharing analyses (Table 1 %SHR, Figure 6d) and by the
            FUSION-Dx forwarding post-pass.

    Ops are read-only by contract.  One object stands for every equal
    access: a build makes one per distinct access
    (:class:`~repro.workloads.builder.TraceBuilder`) and a loaded trace
    one per distinct record, so one object may fill many positions of
    many traces.
    """

    kind: AccessType
    addr: int
    size: int = 4
    array: str = ""
    #: Derived fields, precomputed once at construction: every analysis
    #: and protocol layer asks for the line address and the store flag,
    #: so recomputing them per use dominated several hot loops.
    block: int = field(init=False, repr=False, compare=False)
    is_store: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "block", block_address(self.addr))
        object.__setattr__(self, "is_store",
                           self.kind is AccessType.STORE)


@dataclass(frozen=True)
class ComputeOp:
    """A run of arithmetic operations between memory operations.

    Aladdin-style activity counts: the accelerator datapath model charges
    ``int_ops + fp_ops`` operations of compute activity and advances the
    cycle model by the dataflow-limited latency.
    """

    int_ops: int = 0
    fp_ops: int = 0

    @property
    def total(self):
        return self.int_ops + self.fp_ops


@dataclass(frozen=True)
class PhaseMarker:
    """Marks an execution-phase boundary inside one function's trace.

    SCRATCH uses phase markers as DMA window hints; the other systems
    ignore them.
    """

    label: str = ""


@dataclass
class FunctionTrace:
    """The dynamic trace of one accelerated function (one AXC invocation).

    Attributes:
        name: function name as listed in Table 1 (e.g. ``"step1"``).
        benchmark: owning benchmark name (e.g. ``"fft"``).
        ops: sequence of :class:`MemOp` / :class:`ComputeOp` / markers in
            program order.
        lease_time: ACC lease length (cycles) assigned to blocks this
            function caches in its L0X — the paper's per-function ``LT``
            column (Tables 1 and 3).
    """

    name: str
    benchmark: str
    ops: list = field(default_factory=list)
    lease_time: int = 500

    def mem_ops(self):
        """Iterate over only the memory operations, in program order."""
        return (op for op in self.ops if isinstance(op, MemOp))

    def compute_ops(self):
        """Iterate over only the compute operations, in program order."""
        return (op for op in self.ops if isinstance(op, ComputeOp))

    @property
    def num_mem_ops(self):
        return sum(1 for _ in self.mem_ops())

    def touched_blocks(self):
        """Return the set of cache-line addresses this function touches.

        Memoised on the trace (read-only by contract once built; the
        lowering layer's ``invalidate_lowered`` drops this cache too):
        every system's dependence/sharing analysis asks again.  Callers
        must treat the set as frozen.
        """
        cached = self.__dict__.get("_touched_blocks")
        if cached is None:
            cached = self.__dict__["_touched_blocks"] = {
                op.block for op in self.mem_ops()}
        return cached

    def dirty_blocks(self):
        """Return the set of cache-line addresses this function writes.

        Memoised like :meth:`touched_blocks`; treat as frozen.
        """
        cached = self.__dict__.get("_dirty_blocks")
        if cached is None:
            cached = self.__dict__["_dirty_blocks"] = {
                op.block for op in self.mem_ops() if op.is_store}
        return cached


def _op_key(op):
    """Exact key of one op of a class other than plain MemOp/ComputeOp:
    its class and every field its ``__eq__`` compares.  An op that is
    not a dataclass keys on itself, so its own ``__eq__`` decides."""
    if not is_dataclass(op):
        return (op.__class__, op)
    return (op.__class__,) + tuple(getattr(op, f.name) for f in fields(op)
                                   if f.compare)


def trace_fingerprint(trace):
    """Exact content key of ``trace``: name, benchmark, lease time and
    every op as its class plus every compared field.

    Two traces have equal fingerprints only when they are equal traces
    (``trace.ops == other.ops`` among them), so lowering may share
    prepared forms between them and replay may share recordings.

    Plain MemOp and ComputeOp entries name their class by shape alone:
    ``(is_store, addr, size, array)`` and ``(int_ops, fp_ops)`` differ
    in length from each other, and from any other op's entry in their
    first item, which for every other op is its class.  Holding only
    ints, bools and strings, they are tuples the collector stops
    tracking, so the fingerprints replay keeps add nothing to later
    collections.  ``is_store`` stands for ``kind``, one to one.
    """
    parts = [trace.name, trace.benchmark, trace.lease_time]
    append = parts.append
    for op in trace.ops:
        cls = op.__class__
        if cls is MemOp:
            append((op.is_store, op.addr, op.size, op.array))
        elif cls is ComputeOp:
            append((op.int_ops, op.fp_ops))
        else:
            append(_op_key(op))
    return tuple(parts)


@dataclass
class WorkloadTrace:
    """A whole-application trace: an ordered list of function invocations.

    The sequential program migrates between accelerators; each entry is one
    AXC invocation.  ``axc_of`` maps function names to accelerator ids so
    that repeat invocations of the same function land on the same AXC —
    matching the paper's "all accelerators derived from an application are
    collocated on the same accelerator tile".
    """

    benchmark: str
    invocations: list = field(default_factory=list)
    host_input_arrays: list = field(default_factory=list)
    host_output_arrays: list = field(default_factory=list)
    array_ranges: dict = field(default_factory=dict)

    def function_names(self):
        """Return the distinct function names in first-appearance order."""
        seen = []
        for trace in self.invocations:
            if trace.name not in seen:
                seen.append(trace.name)
        return seen

    def axc_of(self, function_name):
        """Return the accelerator id (0-based) hosting ``function_name``."""
        return self.function_names().index(function_name)

    @property
    def num_axcs(self):
        return len(self.function_names())

    def working_set_blocks(self):
        """Union of cache-line addresses touched by any accelerator."""
        blocks = set()
        for trace in self.invocations:
            blocks |= trace.touched_blocks()
        return blocks
