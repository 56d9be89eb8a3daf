"""Self-tests of the benchmark's own instruments.

* A planted wrong reference must be reported as a failed point, and a
  planted wrong CLI table as a failed output.
* A planted 2x slowdown in one wrapped layer must show up as that
  layer's self time, with the stage budget still adding up.

Run with ``python3 perfbench/run.py --self-test``.
"""

import gc
import json
import time

import common
import points
import spans

#: Kernels of the small Fig-6 grid the self-tests simulate (a quick
#: subset: the full grid adds nothing to what is being tested).
KERNELS = ("fft", "adpcm", "filter")


def _subset_plan():
    plan = points.plan("fig6-small", 0)
    plan.benchmarks = [name for name in plan.benchmarks if name in KERNELS]
    plan.requests = [(key, request) for key, request in plan.requests
                     if request.benchmark in KERNELS]
    return plan


def wrong_reference(report):
    ref = common.load_reference()["fig6-small"]
    plan = _subset_plan()
    results = points.simulate(plan, points.prepare(plan))

    clean = common.Checker()
    clean.points(results, ref["points"])
    report["clean_points_failed"] = clean.failed

    planted = dict(ref["points"])
    victim = sorted(results)[0]
    planted[victim] = "0" * len(planted[victim])
    wrong = common.Checker(quiet=True)
    wrong.points(results, planted)
    report["planted_points_failed"] = wrong.failed

    table = ref["cli"]
    printed = common.canonical_table(json.dumps(table))
    bad_table = dict(table, rows=[list(row) for row in table["rows"]])
    bad_table["rows"][0][1] = "9.99"
    table_check = common.Checker(quiet=True)
    table_check.same(printed, table, "clean table")
    table_check.same(printed, bad_table, "planted table")
    report["planted_table_failed"] = table_check.failed
    return (clean.failed == 0 and wrong.failed == 1
            and table_check.failed == 1)


def _plant(owner, attr, waits):
    """Make ``owner.attr`` take twice as long: after each call, spin for
    as long as the call took.  Returns an undo function."""
    original = getattr(owner, attr)
    own = owner.__dict__.get(attr)

    def slowed(*args, **kwargs):
        start = time.perf_counter()
        result = original(*args, **kwargs)
        spent = time.perf_counter() - start
        waits.append(spent)
        end = time.perf_counter() + spent
        while time.perf_counter() < end:
            pass
        return result

    setattr(owner, attr, slowed)

    def undo():
        if own is None:
            delattr(owner, attr)
        else:
            setattr(owner, attr, own)
    return undo


def _traced_pass(plan, plant=None):
    """Prepare and simulate ``plan`` with every layer traced; returns
    ``(spans, self times, unattributed_s, wall_s, budget ok, planted
    wait s)``."""
    waits = []
    undo = _plant(*plant, waits) if plant else None
    tracer = spans.Tracer()
    gc.collect()
    spans.install_layers(tracer)
    tracer.start_gc()
    try:
        start = time.perf_counter()
        prepared = points.prepare(plan)
        results = points.simulate(plan, prepared)
        end = time.perf_counter()
    finally:
        tracer.stop_gc()
        tracer.unpatch()
        if undo:
            undo()
    del prepared, results
    totals, unattributed, ok = spans.budget(tracer.spans, start, end)
    return (tracer.spans, totals, unattributed, end - start, ok,
            sum(waits))


def planted_slowdown(report):
    """Plant a 2x slowdown in one layer at a time.

    Within the slowed pass the layer's self time must be exactly its own
    work twice over: the planted wait ``W`` equals the wrapped calls'
    durations, which cover the layer's self time plus its children
    ``C``, so the layer's self time is ``2W - C``.  Against an unslowed
    pass, the layer must gain more than any other layer, and about
    ``W``.
    """
    from repro.systems import SYSTEMS
    from repro.workloads import lowering

    plan = _subset_plan()
    _traced_pass(plan)              # warm lazily imported modules
    _, base, _, _, passed, _ = _traced_pass(plan)
    for layer, plant in (("workloads.lower", (lowering, "lower_workload")),
                         ("systems.FUSION.run", (SYSTEMS["FUSION"], "run"))):
        recorded, slow, unattributed, wall, ok, planted = _traced_pass(
            plan, plant)
        targets = {index for index, span in enumerate(recorded)
                   if span[0] == layer}
        children = sum(end - start for _, start, end, parent in recorded
                       if parent in targets)
        identity = abs(slow[layer] - (2 * planted - children)) / planted
        gains = {name: slow.get(name, 0.0) - base.get(name, 0.0)
                 for name in set(slow) | set(base)}
        share = gains[layer] / planted
        report[layer] = {"planted_s": planted, "self_s": slow[layer],
                         "identity_error": identity,
                         "attributed_share": share,
                         "largest_gain": max(gains, key=gains.get),
                         "budget_ok": ok,
                         "unattributed_share": unattributed / wall}
        passed &= (ok and identity < 0.05 and 0.5 <= share <= 1.5
                   and max(gains, key=gains.get) == layer)
    return passed


def run():
    report = {}
    report["wrong_reference_caught"] = wrong_reference(report)
    report["planted_slowdown_attributed"] = planted_slowdown(report)
    report["correct"] = (report["wrong_reference_caught"]
                         and report["planted_slowdown_attributed"])
    return report
