"""repro — a reproduction of FUSION (ISCA 2015).

"Fusion: Design Tradeoffs in Coherent Cache Hierarchies for
Accelerators" (Kumar, Shriraman, Vedula) studies how fixed-function
accelerators extracted from sequential programs should cache and share
data.  This package re-implements the whole toolchain in Python: the
benchmark kernels and their dynamic traces, the four system designs
(SCRATCH, SHARED, FUSION, FUSION-Dx), the ACC lease-based coherence
protocol, the host directory-MESI substrate, and the energy models —
plus an experiment layer that regenerates every table and figure of the
paper's evaluation.

Quickstart::

    from repro import run, small_config

    result = run("FUSION", "histogram", size="small")
    print(result.accel_cycles, result.energy.total_pj)

See ``examples/`` for richer scenarios and ``benchmarks/`` for the
table/figure harness.
"""

from .common import (
    AccessType,
    CacheConfig,
    ComputeOp,
    FunctionTrace,
    MemOp,
    StatsRegistry,
    SystemConfig,
    WorkloadTrace,
    WritePolicy,
    large_config,
    small_config,
)
# The workloads package first: it pulls in accel.tile, whose
# coherence.acc imports repro.workloads.vector back.
from .workloads import (
    BENCHMARKS,
    LABELS,
    build_workload,
    build_workload_with_outputs,
    characterize,
)
from .energy import EnergyBreakdown, breakdown_from_stats
from .sim import ALL_EXPERIMENTS, ExperimentTable, RunResult, run, run_all
from .systems import SYSTEMS

__version__ = "1.0.0"

__all__ = [
    "AccessType", "CacheConfig", "ComputeOp", "FunctionTrace", "MemOp",
    "StatsRegistry", "SystemConfig", "WorkloadTrace", "WritePolicy",
    "large_config", "small_config",
    "EnergyBreakdown", "breakdown_from_stats",
    "ALL_EXPERIMENTS", "ExperimentTable", "RunResult", "run", "run_all",
    "SYSTEMS",
    "BENCHMARKS", "LABELS", "build_workload", "build_workload_with_outputs",
    "characterize",
    "__version__",
]
