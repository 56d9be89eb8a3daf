"""Determinism of policy runs under parallel execution and caching.

The bandit's only randomness is an explicit ``random.Random(seed)``
owned by the selector, so a POLICY run is a pure function of
(config, workload): serial and parallel engines, and fresh cache
directories, must all produce bit-identical RunResults — the same
property CI's serial-vs-parallel diff checks for the legacy systems.
"""

from repro.common.config import small_config
from repro.policy.engine import train_bandit
from repro.sim.engine import DiskCache, ExecutionEngine, RunRequest


def _policy_grid():
    config = small_config()
    requests = []
    for benchmark in ("fft", "adpcm"):
        for policy in (
            dict(selector="bandit", epsilon=0.2, seed=99),
            dict(selector="ucb", ucb_c=1.5),
            dict(selector="schedule", schedule=("fusion", "scratch")),
        ):
            requests.append(RunRequest(
                "POLICY", benchmark, "tiny",
                config.with_policy(**policy)))
    # A learning tenant beside a static one on one shared tile.
    requests.append(RunRequest("FUSION+POLICY", "adpcm+filter", "tiny",
                               config.with_policy(selector="bandit")))
    return requests


def test_policy_parallel_matches_serial_bit_for_bit(tmp_path):
    grid = _policy_grid()
    serial = ExecutionEngine(jobs=1, cache=DiskCache(tmp_path / "a"))
    parallel = ExecutionEngine(jobs=2, cache=DiskCache(tmp_path / "b"))
    serial_results = serial.run_batch(grid)
    parallel_results = parallel.run_batch(grid)
    assert parallel.telemetry.parallel_computed == len(grid)
    assert parallel_results == serial_results


def test_policy_results_replay_from_cache_identically(tmp_path):
    grid = _policy_grid()
    cold = ExecutionEngine(jobs=1, cache=DiskCache(tmp_path / "c"))
    first = cold.run_batch(grid)
    warm = ExecutionEngine(jobs=1, cache=DiskCache(tmp_path / "c"))
    second = warm.run_batch(grid)
    assert warm.telemetry.computed == 0        # all served from disk
    assert second == first


def test_bandit_training_is_reproducible():
    first = train_bandit("fft", size="tiny", episodes=3, epsilon=0.3,
                         seed=42)
    second = train_bandit("fft", size="tiny", episodes=3, epsilon=0.3,
                         seed=42)
    assert first["schedule"] == second["schedule"]
    assert first["episode_cycles"] == second["episode_cycles"]
    assert first["cycles"] == second["cycles"]


def test_bandit_seed_actually_steers_exploration():
    """A different seed must be allowed to explore differently — the
    RNG is real, just explicit.  (The final greedy schedule may still
    converge; the exploration trajectory is what varies.)  The first
    ``len(arms)`` episodes are untried-first and identical for every
    seed; epsilon exploration only starts once each context has tried
    every arm, so six episodes are needed to see the RNG at all."""
    runs = {tuple(train_bandit("fft", size="tiny", episodes=6,
                               epsilon=0.9, seed=seed)["episode_cycles"])
            for seed in (1, 2, 3)}
    assert len(runs) > 1
    assert len({run[:4] for run in runs}) == 1  # untried-first prefix
