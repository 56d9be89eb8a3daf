"""Rung-off equality at paper size: every rung on matches every rung off.

The fast rungs above the per-op interpreter (coalesced run, phase,
vector window, invocation replay; docs/simulator.md §9-§13) may change
how fast a result is computed, never the result.  ``tests/test_oracle.py``
proves that on generated traces and the small Fig-6 grid; this script
proves it where the paper's numbers come from.  It runs the 21 Fig-6
points (seven kernels on SCRATCH, SHARED and FUSION) at ``full``
in-process, each once with every rung flag off and once with every flag
on, and compares whole-result fingerprints: cycles, the ``repr`` of
every energy term and every counter.  It stops at the first point that
differs and exits 1.

``--skew-phase-guard`` is the check's own teeth: it shows the ACC
L0X's ``phase_quote`` guard every live lease ``LTIME_SKEW`` cycles
later than it is (the oracle's ``phase-guard-skew`` fault), so the
guard accepts windows whose leases end inside them.  The run must then
fail.

Usage::

    PYTHONPATH=src python benchmarks/rung_equality.py
    PYTHONPATH=src python benchmarks/rung_equality.py --skew-phase-guard
"""

import argparse
import contextlib
import sys
import time

import repro.accel.core as core_mod
import repro.accel.replay as replay_mod
from repro.check.mutations import LTIME_SKEW
from repro.coherence.acc import AccL0XController
from repro.common.config import small_config
from repro.systems import SYSTEMS
from repro.workloads import registry
from repro.workloads.lowering import lower_workload

#: Every rung flag, bottom of the ladder first.
RUNG_FLAGS = ((core_mod, "COALESCE_RUNS"), (core_mod, "STEADY_PHASES"),
              (core_mod, "VECTOR_PHASES"),
              (replay_mod, "REPLAY_INVOCATIONS"))

SYSTEM_NAMES = ("SCRATCH", "SHARED", "FUSION")


@contextlib.contextmanager
def rungs(on):
    """Set every rung flag to ``on`` for the body, then restore."""
    saved = [getattr(module, flag) for module, flag in RUNG_FLAGS]
    for module, flag in RUNG_FLAGS:
        setattr(module, flag, on)
    try:
        yield
    finally:
        for (module, flag), value in zip(RUNG_FLAGS, saved):
            setattr(module, flag, value)


def skew_phase_guard():
    """Fault ``AccL0XController.phase_quote`` for the rest of the
    process: its cover check sees every live lease ``LTIME_SKEW`` cycles
    late."""
    real = AccL0XController.phase_quote

    def skewed(self, phase, *args):
        lines = [line for line in map(self.cache._lines.get,
                                      [info[0] for info in phase.block_info])
                 if line is not None and line.lease is not None]
        for line in lines:
            line.lease += LTIME_SKEW
        try:
            return real(self, phase, *args)
        finally:
            for line in lines:
                line.lease -= LTIME_SKEW

    AccL0XController.phase_quote = skewed


def fingerprint(result):
    """Everything a RunResult reports, floats pinned via ``repr``."""
    energy = result.energy
    return (result.accel_cycles, result.total_cycles, repr(energy.total_pj),
            sorted((name, repr(value))
                   for name, value in energy.components.items()),
            sorted((name, repr(value))
                   for name, value in result.stats.items()))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--skew-phase-guard", action="store_true",
                        help="fault the ACC phase guard; must then fail")
    args = parser.parse_args(argv)
    if args.skew_phase_guard:
        skew_phase_guard()
    config = small_config()
    started = time.perf_counter()
    for benchmark in registry.BENCHMARKS:
        workload = lower_workload(registry.build_workload(benchmark))
        for system in SYSTEM_NAMES:
            seconds = []
            prints = []
            for on in (False, True):
                start = time.perf_counter()
                with rungs(on):
                    prints.append(fingerprint(
                        SYSTEMS[system](config, workload).run()))
                seconds.append(time.perf_counter() - start)
            point = "{}/{}".format(system, benchmark)
            if prints[0] != prints[1]:
                print("FAIL {}: every rung on differs from every rung off"
                      .format(point))
                return 1
            print("ok   {:<24} off {:6.2f} s  on {:6.2f} s  {} cycles"
                  .format(point, seconds[0], seconds[1], prints[0][0]))
        registry.clear_caches()
    print("all {} points equal, rungs on and off ({:.1f} s)".format(
        len(registry.BENCHMARKS) * len(SYSTEM_NAMES),
        time.perf_counter() - started))
    return 0


if __name__ == "__main__":
    sys.exit(main())
