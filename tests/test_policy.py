"""The policy subsystem (repro.policy + the POLICY registry system).

Selectors, telemetry extraction, the POLICY system's recording path,
and the oracle/bandit engine on tiny workloads.
"""

import pytest

from repro.common.config import PolicyConfig, small_config
from repro.common.errors import ConfigError
from repro.policy.engine import evaluate_selectors, gap_closed, \
    policy_grid, train_bandit
from repro.policy.selectors import BanditSelector, ScheduleSelector, \
    StaticSelector, _bucket, make_selector
from repro.policy.telemetry import telemetry_from_delta
from repro.systems import SYSTEMS
from repro.workloads.characterize import invocation_features
from repro.workloads.registry import build_workload


def _policy_run(bench, **policy_kwargs):
    config = small_config().with_policy(**policy_kwargs)
    workload = build_workload(bench, "tiny")
    system = SYSTEMS["POLICY"](config, workload)
    return system, system.run()


# -- config ------------------------------------------------------------------

def test_policy_config_validation():
    with pytest.raises(ConfigError):
        PolicyConfig(selector="roulette")
    with pytest.raises(ConfigError):
        PolicyConfig(selector="schedule", schedule=())
    with pytest.raises(ConfigError):
        PolicyConfig(epsilon=1.5)
    with pytest.raises(ConfigError):
        PolicyConfig(strategies=())
    with pytest.raises(ConfigError):
        PolicyConfig(episodes=0)
    assert PolicyConfig(schedule=["fusion"]).schedule == ("fusion",)


# -- selectors ---------------------------------------------------------------

def test_bucket_is_power_of_four_magnitude():
    assert _bucket(-1) == -1
    assert _bucket(0) == 0
    assert _bucket(3) == 0
    assert _bucket(4) == 1
    assert _bucket(15) == 1
    assert _bucket(16) == 2
    assert _bucket(4 ** 6) == 6


def test_static_selector_always_same_strategy():
    selector = StaticSelector("fusion-dx")
    workload = build_workload("fft", "tiny")
    chosen = {selector.select(i, t).key
              for i, t in enumerate(workload.invocations)}
    assert chosen == {"fusion-dx"}


def test_schedule_selector_clamps_to_last_entry():
    selector = ScheduleSelector(("scratch", "shared"))
    trace = build_workload("fft", "tiny").invocations[0]
    assert selector.select(0, trace).key == "scratch"
    assert selector.select(1, trace).key == "shared"
    assert selector.select(99, trace).key == "shared"
    with pytest.raises(ConfigError):
        ScheduleSelector(())


def test_bandit_tries_every_arm_before_exploiting():
    workload = build_workload("fft", "tiny")
    arms = ("scratch", "shared", "fusion")
    bandit = BanditSelector(arms, workload, epsilon=0.0)
    trace = workload.invocations[0]
    seen = []
    for _ in arms:
        strategy = bandit.select(0, trace)
        seen.append(strategy.key)
        bandit.observe(0, trace, strategy, 1000.0, None)
    assert seen == list(arms)  # untried-first, in arm order


def test_bandit_greedy_prefers_cheapest_observed_arm():
    workload = build_workload("fft", "tiny")
    bandit = BanditSelector(("scratch", "fusion"), workload,
                            epsilon=0.0)
    trace = workload.invocations[0]
    bandit.observe(0, trace, bandit.arms[0], 9000.0, None)
    bandit.observe(0, trace, bandit.arms[1], 100.0, None)
    assert bandit.select(0, trace).key == "fusion"


def test_bandit_exploit_freezes_learning():
    workload = build_workload("fft", "tiny")
    bandit = BanditSelector(("scratch", "fusion"), workload,
                            epsilon=0.0)
    trace = workload.invocations[0]
    bandit.observe(0, trace, bandit.arms[1], 100.0, None)
    bandit.exploit = True
    bandit.observe(0, trace, bandit.arms[0], 1.0, None)  # ignored
    assert bandit._observations == 1
    assert bandit.select(0, trace).key == "fusion"


def test_bandit_is_deterministic_under_fixed_seed():
    workload = build_workload("fft", "tiny")

    def sequence():
        bandit = BanditSelector(("scratch", "shared", "fusion"),
                                workload, epsilon=0.5, seed=7)
        keys = []
        for i, trace in enumerate(workload.invocations):
            strategy = bandit.select(i, trace)
            keys.append(strategy.key)
            bandit.observe(i, trace, strategy, 100.0 * (i + 1), None)
        return keys

    assert sequence() == sequence()


def test_make_selector_maps_config_names():
    workload = build_workload("fft", "tiny")
    assert isinstance(make_selector(PolicyConfig(), workload),
                      StaticSelector)
    bandit = make_selector(PolicyConfig(selector="bandit",
                                        epsilon=0.25), workload)
    assert bandit.epsilon == 0.25 and bandit.ucb_c == 0.0
    ucb = make_selector(PolicyConfig(selector="ucb", ucb_c=2.0),
                        workload)
    assert ucb.epsilon == 0.0 and ucb.ucb_c == 2.0


# -- telemetry ---------------------------------------------------------------

def test_invocation_features_shapes():
    workload = build_workload("fft", "tiny")
    features = invocation_features(workload)
    assert len(features) == len(workload.invocations)
    assert features[0][0] == -1            # first touch
    assert all(footprint > 0 for _reuse, footprint in features)
    assert invocation_features(workload) is features  # memoised


def test_telemetry_from_delta_extracts_suffixes():
    trace = build_workload("fft", "tiny").invocations[0]
    record = telemetry_from_delta(
        3, trace, "fusion", 250.0,
        {"l1x.dyn_energy_pj": 40.0, "leak.energy_pj": 2.0,
         "acc.write_epoch_stall_cycles": 12.0, "l1x.misses": 9},
        reuse_distance=-1, footprint_blocks=17, lease_expiries=2)
    assert record.index == 3
    assert record.function == trace.name
    assert record.energy_pj == 42.0
    assert record.contention_stalls == 12.0
    assert record.lease_expiries == 2
    assert record.footprint_blocks == 17


def test_policy_system_records_telemetry_on_schedule_runs():
    system, result = _policy_run(
        "fft", selector="schedule", schedule=("fusion",))
    invocations = len(system.tenants[0].workload.invocations)
    assert len(system.telemetry) == invocations
    assert [r.index for r in system.telemetry] == list(
        range(invocations))
    assert all(r.strategy == "fusion" for r in system.telemetry)
    assert sum(r.cycles for r in system.telemetry) == pytest.approx(
        result.accel_cycles)
    assert result.stat("policy.strategy.fusion.invocations") == \
        invocations
    assert result.stat("policy.inv.0.cycles") == \
        system.telemetry[0].cycles


def test_policy_static_run_skips_telemetry():
    system, result = _policy_run("fft", selector="static",
                                 static_strategy="fusion")
    assert system.telemetry == []
    assert result.stat("policy.inv.0.cycles") == 0  # not published


def test_short_lease_run_counts_expiries():
    system, _result = _policy_run(
        "fft", selector="schedule", schedule=("fusion:lease=1",))
    assert sum(r.lease_expiries for r in system.telemetry) > 0


def test_mixed_schedule_exercises_cross_family_coherence():
    """Alternating scratchpad-DMA and fusion invocations must recall
    tile copies through the host directory — the new DMA paths."""
    workload = build_workload("fft", "tiny")
    schedule = tuple("scratch" if i % 2 else "fusion"
                     for i in range(len(workload.invocations)))
    _system, result = _policy_run("fft", selector="schedule",
                                  schedule=schedule)
    assert result.stat("mesi.fwd_to_tile") > 0
    assert result.stat("dma.bytes_in") > 0
    assert result.stat("l0x.axc0.hits") > 0


# -- engine ------------------------------------------------------------------

def test_policy_grid_pairs_legacy_and_uniform_requests():
    requests = policy_grid("tiny", benchmarks=("fft",))
    systems = [request.system for request in requests]
    assert systems.count("POLICY") == 4
    assert {"SCRATCH", "SHARED", "FUSION", "FUSION-Dx"} <= set(systems)


@pytest.mark.parametrize("bench", ("fft", "histogram", "adpcm"))
def test_oracle_never_worse_than_best_static(bench):
    report = evaluate_selectors(bench, size="tiny")
    assert report["oracle"] <= report["best_static"]
    assert report["best_static"] == min(
        report["static_cycles"].values())
    assert len(report["mixed_schedule"]) == report["invocations"]
    assert set(report["mixed_schedule"]) <= set(report["strategies"])


def test_trained_bandit_closes_gap_on_fft():
    report = evaluate_selectors("fft", size="tiny")
    trained = train_bandit("fft", size="tiny", episodes=5,
                           epsilon=0.0)
    assert trained["episodes"] == 5
    assert len(trained["episode_cycles"]) == 5
    closed = gap_closed(report["best_static"], report["oracle"],
                        trained["cycles"])
    assert closed >= 0.5


def test_gap_closed_semantics():
    assert gap_closed(100.0, 80.0, 80.0) == pytest.approx(1.0)
    assert gap_closed(100.0, 80.0, 90.0) == pytest.approx(0.5)
    assert gap_closed(100.0, 80.0, 100.0) == pytest.approx(0.0)
    assert gap_closed(100.0, 80.0, 120.0) == pytest.approx(-1.0)
    assert gap_closed(100.0, 100.0, 100.0) == 1.0   # no gap, matched
    assert gap_closed(100.0, 100.0, 105.0) == 0.0   # no gap, worse
