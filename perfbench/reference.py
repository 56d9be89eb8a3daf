"""Regenerate ``reference.json``: per-point result fingerprints, the
expected table of each CLI command and the exact size counts of every
workload.

Run ``python3 perfbench/run.py --write-reference`` only when the
simulated model itself changes; a change that only makes the simulator
faster must leave every entry as it is.
"""

import json

import common
import points


def write():
    reference = {}
    ok = True
    for name in points.WORKLOADS:
        plan = points.plan(name, 0)
        prepared = points.prepare(plan)
        results = points.simulate(plan, prepared)
        entry = {
            "points": {key: common.fingerprint(result)
                       for key, result in sorted(results.items())},
            "counts": points.trace_counts(prepared, plan, distinct=True),
        }
        del prepared, results
        cache_dir = common.fresh_dir("reference-" + name)
        _, _, code, _, out = common.spawn(
            common.fresh_argv(plan, cache_dir), common.child_env(cache_dir),
            cache_dir.parent / (name + ".out"))
        ok &= code == 0
        if plan.cli_args is not None:
            entry["cli"] = common.canonical_table(out)
        else:
            fresh = json.loads(out.strip().splitlines()[-1])["points"]
            ok &= fresh == entry["points"]
        reference[name] = entry
    with open(common.REFERENCE, "w") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return {"correct": bool(ok), "workloads": sorted(reference)}
