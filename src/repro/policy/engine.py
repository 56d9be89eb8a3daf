"""Oracle evaluation and bandit training for the policy subsystem.

The oracle question — *how much is left on the table by picking one
coherence design for the whole run?* — is answered constructively:

1. run every candidate strategy uniformly (single-entry schedule
   selector), all through the execution engine's cached batch path, so
   per-invocation cycle costs come out of ``policy.inv.<i>.cycles``;
2. build the *mixed* schedule taking the per-invocation argmin;
3. evaluate the mixed schedule as one more (cached) run, and define
   the oracle as the best of {mixed, all uniforms} — the mixed run is
   re-simulated, not summed from per-strategy costs, so cross-strategy
   interference (cold caches after a family switch, DMA recalls) is
   charged honestly, and including the uniforms guarantees
   ``oracle <= best static`` by construction.

Bandit training runs in-process: one seeded selector accumulates
telemetry across ``episodes`` full passes, then a frozen greedy
(``exploit``) pass produces the reported number.  Everything is a pure
function of (benchmark, size, config), so results stay deterministic
under ``--jobs`` and cacheable by content hash.
"""

from ..common.config import small_config
from ..sim.engine import RunRequest, get_engine
from ..sim.results import is_failure
from ..systems import SYSTEMS
from ..workloads.registry import BENCHMARKS, build_workload
from .selectors import BanditSelector

#: Candidate strategy keys and the legacy system each reproduces.
LEGACY_SYSTEM_OF = {
    "scratch": "SCRATCH",
    "shared": "SHARED",
    "fusion": "FUSION",
    "fusion-dx": "FUSION-Dx",
}

DEFAULT_STRATEGIES = tuple(LEGACY_SYSTEM_OF)


def _uniform_config(config, key, strategies):
    """Config running strategy ``key`` for every invocation (the
    schedule selector clamps past the last entry)."""
    return config.with_policy(selector="schedule", schedule=(key,),
                              strategies=tuple(strategies))


def _schedule_config(config, schedule, strategies):
    return config.with_policy(selector="schedule",
                              schedule=tuple(schedule),
                              strategies=tuple(strategies))


def policy_grid(size, benchmarks=BENCHMARKS,
                strategies=DEFAULT_STRATEGIES, config=None):
    """The statically-known simulation grid of the policy experiment:
    the legacy baselines plus every uniform-schedule POLICY run."""
    config = config or small_config()
    requests = []
    for benchmark in benchmarks:
        for key in strategies:
            legacy = LEGACY_SYSTEM_OF.get(key.partition(":")[0])
            if legacy is not None and ":" not in key:
                requests.append(RunRequest(legacy, benchmark, size,
                                           config))
            requests.append(RunRequest(
                "POLICY", benchmark, size,
                _uniform_config(config, key, strategies)))
    return requests


def invocation_cycles(result, num_invocations):
    """Per-invocation cycles recorded by a telemetry-recording POLICY
    run, in program order."""
    return [result.stat("policy.inv.{}.cycles".format(i))
            for i in range(num_invocations)]


def evaluate_selectors(benchmark, size="full", config=None,
                       strategies=DEFAULT_STRATEGIES):
    """Oracle-vs-static evaluation for one benchmark.

    Returns a dict with per-strategy uniform costs (accel cycles), the
    best static cost, the oracle schedule and its cost, and the
    per-invocation argmin table the oracle was built from.
    """
    config = config or small_config()
    strategies = tuple(strategies)
    workload = build_workload(benchmark, size)
    invocations = len(workload.invocations)

    requests = []
    for key in strategies:
        requests.append(RunRequest(
            "POLICY", benchmark, size,
            _uniform_config(config, key, strategies)))
    engine = get_engine()
    results = engine.run_batch(requests)
    uniform = {}
    for key, result in zip(strategies, results):
        if is_failure(result):
            raise RuntimeError(
                "uniform {} run failed on {}: {}".format(
                    key, benchmark, result))
        uniform[key] = result

    per_invocation = {
        key: invocation_cycles(result, invocations)
        for key, result in uniform.items()
    }
    mixed_schedule = tuple(
        min(strategies, key=lambda key: (per_invocation[key][i], key))
        for i in range(invocations))

    static_cycles = {key: uniform[key].accel_cycles
                     for key in strategies}
    best_static_key = min(strategies,
                          key=lambda key: (static_cycles[key], key))
    best_static = static_cycles[best_static_key]

    candidates = dict(static_cycles)
    if len(set(mixed_schedule)) > 1:
        mixed_result = engine.run_one(RunRequest(
            "POLICY", benchmark, size,
            _schedule_config(config, mixed_schedule, strategies)))
        if not is_failure(mixed_result):
            candidates["<mixed>"] = mixed_result.accel_cycles
    oracle_key = min(candidates,
                     key=lambda key: (candidates[key], key))
    oracle = candidates[oracle_key]

    return {
        "benchmark": benchmark,
        "size": size,
        "strategies": strategies,
        "invocations": invocations,
        "static_cycles": static_cycles,
        "best_static_key": best_static_key,
        "best_static": best_static,
        "mixed_schedule": mixed_schedule,
        "oracle_key": oracle_key,
        "oracle": oracle,
        "per_invocation": per_invocation,
    }


def train_bandit(benchmark, size="full", config=None,
                 strategies=DEFAULT_STRATEGIES, selector="bandit",
                 episodes=None, epsilon=None, ucb_c=None, seed=None):
    """Train a bandit over ``episodes`` passes, then evaluate greedily.

    Training runs in-process (one selector object accumulates telemetry
    across whole-workload passes — the engine cache would defeat
    learning); the returned dict reports the frozen-greedy evaluation
    pass's accel cycles.
    """
    config = config or small_config()
    policy = config.policy
    episodes = policy.episodes if episodes is None else episodes
    epsilon = policy.epsilon if epsilon is None else epsilon
    ucb_c = policy.ucb_c if ucb_c is None else ucb_c
    seed = policy.seed if seed is None else seed
    workload = build_workload(benchmark, size)
    if selector == "bandit":
        bandit = BanditSelector(strategies, workload, epsilon=epsilon,
                                ucb_c=0.0, seed=seed)
    elif selector == "ucb":
        bandit = BanditSelector(strategies, workload, epsilon=0.0,
                                ucb_c=ucb_c, seed=seed)
    else:
        raise ValueError(
            "unknown learning selector {!r}".format(selector))

    run_config = config.with_policy(selector=selector,
                                    strategies=tuple(strategies),
                                    epsilon=epsilon,
                                    ucb_c=ucb_c if ucb_c else policy.ucb_c,
                                    seed=seed)
    episode_cycles = []
    for _episode in range(episodes):
        result = SYSTEMS["POLICY"](run_config, workload,
                                   selector=bandit).run()
        episode_cycles.append(result.accel_cycles)
    bandit.exploit = True
    final = SYSTEMS["POLICY"](run_config, workload,
                              selector=bandit).run()
    chosen = tuple(
        bandit.select(i, trace).key
        for i, trace in enumerate(workload.invocations))
    return {
        "benchmark": benchmark,
        "selector": selector,
        "episodes": episodes,
        "episode_cycles": episode_cycles,
        "cycles": final.accel_cycles,
        "schedule": chosen,
        "result": final,
    }


def gap_closed(best_static, oracle, learned):
    """Fraction of the static-to-oracle gap a learned selector closed.

    1.0 when the gap is zero and the learner matched the best static
    system (nothing to close, nothing lost); 0.0 when it did no better
    than the best static; negative when it did worse.
    """
    gap = best_static - oracle
    if gap <= 0:
        return 1.0 if learned <= best_static else 0.0
    return (best_static - learned) / gap
