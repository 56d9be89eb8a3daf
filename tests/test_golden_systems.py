"""Golden values for the selector-driven and co-resident systems.

``test_golden.py`` pins the registry systems under their default
configuration; this file pins what it does not reach: POLICY runs under
the learning and schedule selectors, and co-resident runs — tenants
time-sharing one PID-tagged tile (FUSION-MT, with per-tenant strategy
mixes) or getting a tile each (FUSION-2T).  Every entry pins both cycle
counts, the ``repr`` of the total and of every energy component, and the
L1X miss and PID-conflict counts (summed over per-tile stat scopes).

To regenerate after an intentional model change:

    python -c "import tests.test_golden_systems as g; g.regenerate()"
"""

import json
import pathlib

import pytest

from repro.common.config import small_config
from repro.systems import SYSTEMS, coresident
from repro.workloads.registry import build_workload

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden_tiny_systems.json"

#: case id -> (benchmarks, POLICY config overrides | None, strategies,
#: per_tile).  A POLICY case runs one workload; the others co-reside.
CASES = {
    "POLICY:bandit:adpcm": (("adpcm",), {"selector": "bandit"}, None,
                            False),
    "POLICY:bandit:fft": (("fft",), {"selector": "bandit"}, None, False),
    "POLICY:ucb:filter": (("filter",), {"selector": "ucb"}, None, False),
    "POLICY:schedule:fft": (
        ("fft",), {"selector": "schedule",
                   "schedule": ("scratch", "fusion", "shared",
                                "fusion-dx", "fusion:lease=100")},
        None, False),
    "POLICY:schedule:susan": (
        ("susan",), {"selector": "schedule",
                     "schedule": ("fusion-dx", "shared", "scratch")},
        None, False),
    "FUSION-MT:adpcm+filter": (("adpcm", "filter"), None, None, False),
    "FUSION-MT:adpcm+filter:fusion,fusion": (
        ("adpcm", "filter"), None, ("fusion", "fusion"), False),
    "FUSION-MT:adpcm+filter:fusion,fusion:lease=100": (
        ("adpcm", "filter"), None, ("fusion", "fusion:lease=100"), False),
    "FUSION-MT:adpcm+filter:fusion,fusion:lease=200": (
        ("adpcm", "filter"), None, ("fusion", "fusion:lease=200"), False),
    "FUSION-MT:adpcm+filter:fusion,scratch": (
        ("adpcm", "filter"), None, ("fusion", "scratch"), False),
    "FUSION-MT:adpcm+filter:fusion-dx,shared": (
        ("adpcm", "filter"), None, ("fusion-dx", "shared"), False),
    "FUSION-MT:fft+adpcm:fusion-dx,shared": (
        ("fft", "adpcm"), None, ("fusion-dx", "shared"), False),
    "FUSION-2T:adpcm|filter": (("adpcm", "filter"), None, None, True),
}


def run_case(case):
    benchmarks, policy, strategies, per_tile = CASES[case]
    workloads = [build_workload(name, "tiny") for name in benchmarks]
    if policy is not None:
        config = small_config().with_policy(**policy)
        return SYSTEMS["POLICY"](config, workloads[0]).run()
    return coresident(small_config(), workloads, strategies=strategies,
                      per_tile=per_tile).run()


def _folded(result, name):
    """``name`` summed with every tile-scoped copy (``tile0.name``)."""
    suffix = "." + name
    return sum(value for key, value in result.stats.items()
               if key == name or key.endswith(suffix))


def current(case):
    result = run_case(case)
    return {
        "system": result.system,
        "benchmark": result.benchmark,
        "accel_cycles": result.accel_cycles,
        "total_cycles": result.total_cycles,
        "energy_pj": repr(result.energy.total_pj),
        "energy_components": {name: repr(value) for name, value in
                              sorted(result.energy.components.items())},
        "l1x_misses": repr(_folded(result, "l1x.misses")),
        "l1x_pid_conflicts": repr(_folded(result, "l1x.pid_conflicts")),
    }


def load_golden():
    with open(GOLDEN_PATH) as fileobj:
        return json.load(fileobj)


def regenerate():
    golden = {case: current(case) for case in CASES}
    with open(GOLDEN_PATH, "w") as fileobj:
        json.dump(golden, fileobj, indent=1, sort_keys=True)
        fileobj.write("\n")


def test_golden_file_is_complete():
    assert set(load_golden()) == set(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_results_match_golden(case):
    assert current(case) == load_golden()[case], (
        "model output drifted from the golden values; if intentional, "
        "regenerate tests/golden_tiny_systems.json (see module docstring)")
