"""Full-RunResult golden-stability gate for the hot-path lowering layer.

``test_golden.py`` locks each system's headline numbers; this gate goes
further and pins the *entire* tiny-size :class:`RunResult` — every stats
counter (ints and floats, bit-for-bit via ``repr``), both cycle counts
and the total energy — for the four evaluated systems, plus IDEAL
(whose phase quotes never decline) and FUSION-PIPE (served op by op
through ``AxcCore.iter_run``).  The baseline was
generated from the legacy per-op interpreter, so a pass here is the
proof that trace lowering (:mod:`repro.workloads.lowering`) is
semantics-preserving: the compiled hot path may only change *how fast*
the answer is computed, never the answer.

To regenerate after an intentional model change:

    python -c "import tests.test_golden_full as g; g.regenerate()"
"""

import hashlib
import json
import pathlib

import pytest

import repro

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden_tiny_full.json"

#: The four systems the paper evaluates (Figure 6 + Table 5), plus the
#: two whose core paths the four do not reach: IDEAL's always-accepted
#: quotes and FUSION-PIPE's generator-stepped issue loop.
SYSTEMS = ("SCRATCH", "SHARED", "FUSION", "FUSION-Dx", "IDEAL",
           "FUSION-PIPE")


def _stats_digest(stats):
    """Bit-exact content hash of a stats snapshot.

    ``repr`` round-trips floats exactly on CPython, so two snapshots
    digest identically iff every counter matches to the last bit.
    """
    canonical = json.dumps(
        sorted((name, repr(value)) for name, value in stats.items()))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def current(system, bench):
    result = repro.run(system, bench, "tiny")
    return {
        "accel_cycles": result.accel_cycles,
        "total_cycles": result.total_cycles,
        "energy_pj": repr(result.energy.total_pj),
        "num_counters": len(result.stats),
        "stats_sha256": _stats_digest(result.stats),
    }


def load_golden():
    with open(GOLDEN_PATH) as fileobj:
        return json.load(fileobj)


def regenerate():
    golden = {}
    for bench in repro.BENCHMARKS:
        for system in SYSTEMS:
            golden["{}:{}".format(system, bench)] = current(system, bench)
    with open(GOLDEN_PATH, "w") as fileobj:
        json.dump(golden, fileobj, indent=1, sort_keys=True)
        fileobj.write("\n")


def test_golden_full_file_is_complete():
    assert len(load_golden()) == len(SYSTEMS) * len(repro.BENCHMARKS)


@pytest.mark.parametrize("system", SYSTEMS)
@pytest.mark.parametrize("bench", repro.BENCHMARKS)
def test_full_result_matches_golden(system, bench):
    golden = load_golden()["{}:{}".format(system, bench)]
    measured = current(system, bench)
    assert measured == golden, (
        "full RunResult drifted from the pre-lowering baseline; the "
        "lowered hot path must be bit-identical to the legacy "
        "interpreter (regenerate only for intentional model changes)")
