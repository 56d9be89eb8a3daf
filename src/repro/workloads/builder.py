"""Address-space layout and trace construction for workload kernels.

Kernels compute real results (testable against reference implementations)
while recording every load, store and arithmetic operation through a
:class:`TraceBuilder`.  The recorded trace is what the paper's toolchain
would have captured by instrumenting the original C program — addresses
in a shared virtual address space, operation mix, and the inter-function
sharing that drives the whole study.
"""

from ..common.errors import TraceError
from ..common.types import (
    AccessType,
    ComputeOp,
    FunctionTrace,
    MemOp,
    PhaseMarker,
    WorkloadTrace,
)


class Array:
    """A named array in the workload's virtual address space.

    ``loads`` and ``stores`` map an element index to the one
    :class:`MemOp` that :class:`TraceBuilder` records for every access
    of that kind to that element.  An array belongs to one build, so
    two builds share no op object.
    """

    def __init__(self, name, base, length, elem_size):
        self.name = name
        self.base = base
        self.length = length
        self.elem_size = elem_size
        self.loads = {}
        self.stores = {}

    @property
    def size_bytes(self):
        return self.length * self.elem_size

    def addr(self, index):
        """Virtual byte address of element ``index``."""
        if not 0 <= index < self.length:
            raise TraceError(
                "{}[{}] out of bounds (length {})".format(
                    self.name, index, self.length))
        return self.base + index * self.elem_size

    def __len__(self):
        return self.length

    def __repr__(self):
        return "Array({}, {} x {}B @ {:#x})".format(
            self.name, self.length, self.elem_size, self.base)


class AddressSpace:
    """Allocates heap-like arrays in a process's virtual memory.

    Allocations are line-aligned with a one-line gap between arrays, the
    way a real allocator lays out consecutive mallocs.  Deliberately NOT
    page-aligned: page-aligning every array makes equal-stride streams
    collide in the same cache set (page size is a multiple of
    sets x line for every cache here), a pathology real heaps avoid by
    construction.
    """

    #: First allocation address (clear of the null page).
    BASE = 0x10000

    #: Alignment and inter-array gap.
    _ALIGN = 64

    def __init__(self):
        self._next = self.BASE
        self.arrays = {}

    def alloc(self, name, length, elem_size=4):
        """Allocate ``length`` elements of ``elem_size`` bytes."""
        if name in self.arrays:
            raise TraceError("array {!r} allocated twice".format(name))
        array = Array(name, self._next, length, elem_size)
        size = array.size_bytes
        aligned = -(-size // self._ALIGN) * self._ALIGN
        self._next += aligned + self._ALIGN  # one-line allocator gap
        self.arrays[name] = array
        return array

    def range_of(self, name):
        array = self.arrays[name]
        return (array.base, array.size_bytes)


class TraceBuilder:
    """Records one application's execution as a :class:`WorkloadTrace`.

    Each distinct op is one object per build: every load of ``a[i]``
    appends one shared :class:`MemOp`, every store of ``a[i]`` another,
    and every compute chunk with equal counts one shared
    :class:`ComputeOp`.  A kernel invoked repeatedly thus makes an op
    object per distinct access, not per dynamic access.  Ops are frozen
    and read-only by contract, so the sharing is invisible to readers.
    """

    def __init__(self, benchmark, space):
        self.benchmark = benchmark
        self.space = space
        self._invocations = []
        self._current = None
        self._pending_int = 0
        self._pending_fp = 0
        self._computes = {}     # (int_ops, fp_ops) -> ComputeOp

    # -- function scoping ---------------------------------------------------

    def begin_function(self, name, lease=500):
        """Open a new accelerated-function invocation."""
        if self._current is not None:
            raise TraceError("begin_function inside an open function")
        self._current = FunctionTrace(
            name=name, benchmark=self.benchmark, lease_time=lease)
        return self._current

    def end_function(self):
        """Close the open invocation and append it to the workload."""
        if self._current is None:
            raise TraceError("end_function without begin_function")
        self._flush_compute()
        self._invocations.append(self._current)
        trace = self._current
        self._current = None
        return trace

    def function(self, name, lease=500):
        """Context manager sugar: ``with builder.function("step1"): ...``"""
        return _FunctionScope(self, name, lease)

    # -- op emission ----------------------------------------------------------

    def _require_open(self):
        if self._current is None:
            raise TraceError("memory op emitted outside a function")

    def _flush_compute(self):
        if self._pending_int or self._pending_fp:
            key = (self._pending_int, self._pending_fp)
            op = self._computes.get(key)
            if op is None:
                op = self._computes[key] = ComputeOp(*key)
            self._current.ops.append(op)
            self._pending_int = 0
            self._pending_fp = 0

    def load(self, array, index):
        """Record a load of ``array[index]``."""
        self._require_open()
        op = array.loads.get(index)
        if op is None:
            op = array.loads[index] = MemOp(
                AccessType.LOAD, array.addr(index), array.elem_size,
                array.name)
        self._current.ops.append(op)

    def store(self, array, index):
        """Record a store to ``array[index]``.

        Any accumulated compute flushes first: a store consumes the
        computed value, so the dependence chain is load* -> compute ->
        store.
        """
        self._require_open()
        self._flush_compute()
        op = array.stores.get(index)
        if op is None:
            op = array.stores[index] = MemOp(
                AccessType.STORE, array.addr(index), array.elem_size,
                array.name)
        self._current.ops.append(op)

    def compute(self, int_ops=0, fp_ops=0):
        """Accumulate arithmetic activity into the current dataflow chunk.

        Chunks flush before the next *store* (and at :meth:`barrier` /
        function end) but not before loads — so a kernel's natural
        ``load, load, compute, store`` shape keeps its loads in one
        dependence level, which is what gives each function its MLP.
        """
        self._require_open()
        self._pending_int += int_ops
        self._pending_fp += fp_ops

    def barrier(self):
        """Flush accumulated compute as one dataflow chunk."""
        self._require_open()
        self._flush_compute()

    def phase(self, label=""):
        """Emit a phase marker (a DMA window hint for SCRATCH)."""
        self._require_open()
        self._flush_compute()
        self._current.ops.append(PhaseMarker(label))

    # -- workload assembly -----------------------------------------------------

    def workload(self, host_inputs=(), host_outputs=()):
        """Assemble the final :class:`WorkloadTrace`.

        ``host_inputs`` / ``host_outputs`` name the arrays the host
        produces before and consumes after the accelerated region.
        """
        if self._current is not None:
            raise TraceError("workload() with an open function")
        return WorkloadTrace(
            benchmark=self.benchmark,
            invocations=list(self._invocations),
            host_input_arrays=[self.space.range_of(n) for n in host_inputs],
            host_output_arrays=[self.space.range_of(n)
                                for n in host_outputs],
            array_ranges={name: self.space.range_of(name)
                          for name in self.space.arrays},
        )


class _FunctionScope:
    def __init__(self, builder, name, lease):
        self.builder = builder
        self.name = name
        self.lease = lease

    def __enter__(self):
        return self.builder.begin_function(self.name, self.lease)

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            self.builder.end_function()
        else:
            self.builder._current = None
        return False
