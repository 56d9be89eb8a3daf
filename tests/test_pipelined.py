"""Pipelined FUSION (repro.systems.pipelined)."""

import pytest

from repro.common.config import small_config
from repro.sim.simulator import run
from repro.sim.validate import validate
from repro.workloads.registry import BENCHMARKS, build_workload


@pytest.mark.parametrize("bench", BENCHMARKS)
def test_pipelined_never_slower_than_sequential(bench):
    sequential = run("FUSION", bench, "tiny")
    pipelined = run("FUSION-PIPE", bench, "tiny")
    assert pipelined.accel_cycles <= sequential.accel_cycles + 1


def test_pure_chain_gains_nothing():
    """ADPCM's decoder consumes the coder's output in place: no
    independent work exists, so the schedule is identical."""
    sequential = run("FUSION", "adpcm", "tiny")
    pipelined = run("FUSION-PIPE", "adpcm", "tiny")
    assert pipelined.accel_cycles == sequential.accel_cycles


def test_independent_stages_overlap():
    """Disparity's SAD for the next shift is independent of the current
    shift's aggregation stages: the pipeline must find overlap."""
    sequential = run("FUSION", "disparity", "small")
    pipelined = run("FUSION-PIPE", "disparity", "small")
    assert pipelined.accel_cycles < 0.97 * sequential.accel_cycles


@pytest.mark.parametrize("bench", BENCHMARKS)
def test_pipelined_results_validate(bench):
    assert validate(run("FUSION-PIPE", bench, "tiny")) == []


def test_same_work_is_performed():
    """Scheduling must not change *what* executes — only when: the L0X
    access counts match the sequential run exactly."""
    sequential = run("FUSION", "tracking", "tiny")
    pipelined = run("FUSION-PIPE", "tracking", "tiny")

    def accesses(result):
        return sum(v for k, v in result.stats.items()
                   if k.startswith("l0x.axc") and
                   k.endswith(".accesses"))

    assert accesses(pipelined) == accesses(sequential)


def test_every_invocation_completes():
    from repro.systems import SYSTEMS
    workload = build_workload("susan", "tiny")
    system = SYSTEMS["FUSION-PIPE"](small_config(), workload)
    result = system.run()
    assert set(result.function_names()) == set(workload.function_names())
    for name in result.function_names():
        assert result.invocation_cycles(name) > 0


def test_energy_close_to_sequential():
    """Overlap changes timing, not traffic: energy stays within a few
    percent (lease-expiry patterns shift slightly)."""
    sequential = run("FUSION", "susan", "tiny")
    pipelined = run("FUSION-PIPE", "susan", "tiny")
    ratio = pipelined.energy.total_pj / sequential.energy.total_pj
    assert 0.9 < ratio < 1.1
