"""Golden values for the selector-driven and co-resident systems.

``test_golden.py`` pins the registry systems under their default
configuration; this file pins what it does not reach: POLICY runs under
the learning and schedule selectors, and co-resident runs — tenants
time-sharing one PID-tagged tile (FUSION-MT, with per-tenant strategy
mixes) or getting a tile each (FUSION-2T).  Every entry is a
:class:`RunRequest` run by ``ExecutionEngine.run_batch``, so the goldens
pin the engine's request path too.  Every entry pins both cycle
counts, the ``repr`` of the total and of every energy component, and the
L1X miss and PID-conflict counts (summed over per-tile stat scopes).

To regenerate after an intentional model change:

    python -c "import tests.test_golden_systems as g; g.regenerate()"
"""

import json
import pathlib

import pytest

from repro.common.config import small_config
from repro.sim.engine import DiskCache, ExecutionEngine, RunRequest

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden_tiny_systems.json"


def request(system, benchmark, **policy):
    config = small_config()
    if policy:
        config = config.with_policy(**policy)
    return RunRequest(system, benchmark, "tiny", config)


#: case id -> the request that produces it.  A POLICY case runs one
#: workload; the others co-reside, a POLICY tenant carrying the lease.
CASES = {
    "POLICY:bandit:adpcm": request("POLICY", "adpcm", selector="bandit"),
    "POLICY:bandit:fft": request("POLICY", "fft", selector="bandit"),
    "POLICY:ucb:filter": request("POLICY", "filter", selector="ucb"),
    "POLICY:schedule:fft": request(
        "POLICY", "fft", selector="schedule",
        schedule=("scratch", "fusion", "shared", "fusion-dx",
                  "fusion:lease=100")),
    "POLICY:schedule:susan": request(
        "POLICY", "susan", selector="schedule",
        schedule=("fusion-dx", "shared", "scratch")),
    "FUSION-MT:adpcm+filter": request("FUSION", "adpcm+filter"),
    "FUSION-MT:adpcm+filter:fusion,fusion": request("FUSION+FUSION",
                                                    "adpcm+filter"),
    "FUSION-MT:adpcm+filter:fusion,fusion:lease=100": request(
        "FUSION+POLICY", "adpcm+filter", static_strategy="fusion:lease=100"),
    "FUSION-MT:adpcm+filter:fusion,fusion:lease=200": request(
        "FUSION+POLICY", "adpcm+filter", static_strategy="fusion:lease=200"),
    "FUSION-MT:adpcm+filter:fusion,scratch": request("FUSION+SCRATCH",
                                                     "adpcm+filter"),
    "FUSION-MT:adpcm+filter:fusion-dx,shared": request("FUSION-Dx+SHARED",
                                                       "adpcm+filter"),
    "FUSION-MT:fft+adpcm:fusion-dx,shared": request("FUSION-Dx+SHARED",
                                                    "fft+adpcm"),
    "FUSION-2T:adpcm|filter": request("FUSION", "adpcm|filter"),
}


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    """Every case through one engine batch, as the CLI would run it."""
    engine = ExecutionEngine(jobs=1, cache=DiskCache(
        tmp_path_factory.mktemp("golden-systems")))
    return dict(zip(CASES, engine.run_batch(list(CASES.values()))))


def _folded(result, name):
    """``name`` summed with every tile-scoped copy (``tile0.name``)."""
    suffix = "." + name
    return sum(value for key, value in result.stats.items()
               if key == name or key.endswith(suffix))


def current(result):
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
    engine = ExecutionEngine(jobs=1)
    golden = {case: current(result) for case, result in
              zip(CASES, engine.run_batch(list(CASES.values())))}
    with open(GOLDEN_PATH, "w") as fileobj:
        json.dump(golden, fileobj, indent=1, sort_keys=True)
        fileobj.write("\n")


def test_golden_file_is_complete():
    assert set(load_golden()) == set(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_results_match_golden(case, results):
    assert current(results[case]) == load_golden()[case], (
        "model output drifted from the golden values; if intentional, "
        "regenerate tests/golden_tiny_systems.json (see module docstring)")
