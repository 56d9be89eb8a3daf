"""The IDEAL upper bound and efficiency analysis (IDEAL strategy family)."""

import pytest

from repro.sim.simulator import run
from repro.workloads.registry import BENCHMARKS


@pytest.mark.parametrize("bench", BENCHMARKS)
def test_ideal_is_a_lower_bound_on_cycles(bench):
    ideal = run("IDEAL", bench, "tiny")
    for system in ("SCRATCH", "SHARED", "FUSION", "FUSION-Dx"):
        real = run(system, bench, "tiny")
        assert ideal.accel_cycles <= real.accel_cycles, system


def test_ideal_charges_only_compute_energy():
    result = run("IDEAL", "adpcm", "tiny")
    assert result.energy["compute"] > 0
    assert result.energy["local"] == 0
    assert result.energy["l1x"] == 0
    assert result.energy["link_axc_l1x_msg"] == 0


def test_fusion_efficiency_beats_scratch_on_fft():
    """Efficiency = IDEAL cycles / system cycles: FUSION delivers more
    of the accelerator's potential than the DMA design on the
    DMA-bound workload."""
    ideal = run("IDEAL", "fft", "small").accel_cycles
    fusion_eff = ideal / run("FUSION", "fft", "small").accel_cycles
    scratch_eff = ideal / run("SCRATCH", "fft", "small").accel_cycles
    assert fusion_eff > scratch_eff


def test_edp_metric():
    fusion = run("FUSION", "fft", "tiny")
    scratch = run("SCRATCH", "fft", "tiny")
    assert fusion.edp == fusion.energy.total_pj * fusion.accel_cycles
    # FUSION wins both axes on FFT, so it must win EDP.
    assert fusion.edp < scratch.edp


def test_link_utilization_reporting():
    shared = run("SHARED", "adpcm", "tiny")
    fusion = run("FUSION", "adpcm", "tiny")
    scratch = run("SCRATCH", "adpcm", "tiny")
    # SHARED pushes every access over the switch: highest occupancy.
    assert shared.link_utilization() > fusion.link_utilization()
    assert scratch.link_utilization() == 0.0
    assert 0.0 < shared.link_utilization() < 8.0
