"""Workload characterisation — regenerates the paper's Table 1.

For every accelerated function we report: the share of dynamic work
(%Time proxy), the operation mix (%INT, %FP, %LD, %ST), the memory-level
parallelism from the dependence graph, the sharing degree %SHR (fraction
of this function's cache blocks also touched by another accelerator —
the paper's inter-accelerator communication metric) and the assigned
lease time LT.
"""

from dataclasses import dataclass

from ..accel.ddg import analyze, light_metrics
from ..common.units import to_kb


@dataclass
class FunctionProfile:
    """One row of Table 1."""

    benchmark: str
    name: str
    time_pct: float
    int_pct: float
    fp_pct: float
    ld_pct: float
    st_pct: float
    mlp: float
    pipe_mlp: float
    shr_pct: float
    lease: int


def sharing_degree(workload):
    """Return {function_name: %SHR}.

    A block counts as shared when at least two distinct *accelerators*
    (not invocations) touch it.
    """
    blocks_of = {}
    for trace in workload.invocations:
        blocks_of.setdefault(trace.name, set()).update(
            trace.touched_blocks())
    shared = set()
    names = list(blocks_of)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            shared |= blocks_of[a] & blocks_of[b]
    return {
        name: (100.0 * len(blocks & shared) / len(blocks)) if blocks else 0.0
        for name, blocks in blocks_of.items()
    }


def characterize(workload):
    """Return the list of :class:`FunctionProfile` rows for a workload."""
    # Merge repeat invocations of the same function.
    merged_metrics = {}
    leases = {}
    order = []
    for trace in workload.invocations:
        metrics = analyze(trace)
        if trace.name not in merged_metrics:
            merged_metrics[trace.name] = metrics
            leases[trace.name] = trace.lease_time
            order.append(trace.name)
        else:
            prior = merged_metrics[trace.name]
            total = prior.total_ops + metrics.total_ops
            if total:
                prior.mlp = (prior.mlp * prior.total_ops
                             + metrics.mlp * metrics.total_ops) / total
                prior.pipe_mlp = (
                    prior.pipe_mlp * prior.total_ops
                    + metrics.pipe_mlp * metrics.total_ops) / total
            prior.int_ops += metrics.int_ops
            prior.fp_ops += metrics.fp_ops
            prior.loads += metrics.loads
            prior.stores += metrics.stores
    shr = sharing_degree(workload)
    grand_total = sum(m.total_ops for m in merged_metrics.values())
    profiles = []
    for name in order:
        metrics = merged_metrics[name]
        int_pct, fp_pct, ld_pct, st_pct = metrics.mix_percent()
        profiles.append(FunctionProfile(
            benchmark=workload.benchmark,
            name=name,
            time_pct=(100.0 * metrics.total_ops / grand_total
                      if grand_total else 0.0),
            int_pct=int_pct, fp_pct=fp_pct, ld_pct=ld_pct, st_pct=st_pct,
            mlp=metrics.mlp,
            pipe_mlp=metrics.pipe_mlp,
            shr_pct=shr.get(name, 0.0),
            lease=leases[name],
        ))
    return profiles


def function_mlp(workload):
    """Return {function_name: pipelined MLP} for the AXC cycle model.

    The cycle model uses the *pipelined* MLP (iterations overlap in a
    fixed-function datapath); Table 1 reports the dependence-limited MLP.

    The result is a pure function of the (read-only) workload trace and
    every system construction needs it, so it is memoised on the
    workload object.  It is computed by :func:`~repro.accel.ddg.
    light_metrics` — a linear scan producing exactly the ``pipe_mlp``
    :func:`characterize` would (same counts, same float arithmetic,
    including the total-ops-weighted merge of repeat invocations) —
    because building the full DDG just to read the pipelined MLP was
    the single largest fixed cost of every simulation.  The scan runs
    once per distinct trace object: after :func:`~repro.workloads.
    lowering.lower_workload` equal invocations are one object (and its
    ops are read-only by contract), so FFT at n=512 x16 scans 6 traces
    for its 96 invocations.  The merge still runs per invocation.
    """
    cached = workload.__dict__.get("_function_mlp")
    if cached is None:
        merged = {}             # name -> [pipe_mlp, total_ops]
        scanned = {}            # id(trace) -> light_metrics(trace)
        for trace in workload.invocations:
            metrics = scanned.get(id(trace))
            if metrics is None:
                metrics = scanned[id(trace)] = light_metrics(trace)
            pipe_mlp, total_ops = metrics
            entry = merged.get(trace.name)
            if entry is None:
                merged[trace.name] = [pipe_mlp, total_ops]
                continue
            # Mirror characterize()'s merge expression exactly so the
            # floats are bit-identical to the Table 1 path.
            total = entry[1] + total_ops
            if total:
                entry[0] = (entry[0] * entry[1]
                            + pipe_mlp * total_ops) / total
            entry[1] = total
        cached = workload.__dict__["_function_mlp"] = {
            name: entry[0] for name, entry in merged.items()}
    return cached


def invocation_features(workload):
    """Per-invocation (reuse_distance, footprint_blocks) feature tuples.

    ``reuse_distance`` is the distance, in invocations, back to the most
    recent invocation that touched any of this invocation's blocks
    (1 = the immediately preceding invocation; -1 = first touch — no
    earlier invocation shares a block).  ``footprint_blocks`` is the
    invocation's touched-block count.  These are the cheap reuse/
    footprint signals the policy engine's bandit contexts bucket on
    (HyDRA-style cacheability hints): tight reuse favours cache-based
    strategies, first-touch streaming favours scratchpad DMA.

    A pure function of the read-only workload trace, memoised on the
    workload object like :func:`function_mlp`.
    """
    cached = workload.__dict__.get("_invocation_features")
    if cached is None:
        last_touch = {}
        features = []
        for index, trace in enumerate(workload.invocations):
            blocks = trace.touched_blocks()
            newest = -1
            for block in blocks:
                prior = last_touch.get(block, -1)
                if prior > newest:
                    newest = prior
            reuse = index - newest if newest >= 0 else -1
            features.append((reuse, len(blocks)))
            for block in blocks:
                last_touch[block] = index
        cached = workload.__dict__["_invocation_features"] = \
            tuple(features)
    return cached


def working_set_kb(workload):
    """Whole-application working set in kB (Figure 6d's WSet column)."""
    from ..common.units import LINE_SIZE
    return to_kb(len(workload.working_set_blocks()) * LINE_SIZE)
