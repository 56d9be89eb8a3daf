"""Strategy selectors: static, schedule, and contextual bandits.

Selectors answer one question per invocation — *which coherence strategy
runs it* — from nothing but the invocation's trace-derived context and
the telemetry of earlier invocations.  Randomness (the epsilon-greedy
explorer) flows exclusively through an explicit ``random.Random(seed)``
owned by the selector, so a policy run is a pure function of its config
and stays bit-identical under ``--jobs`` fan-out and cache replay.

The bandit is deliberately simple (Cohmeleon-style): arms are strategy
keys; the context is (function, reuse-distance bucket, footprint
bucket); the reward is negated invocation cycles, tracked as running
means per (context, arm) with global per-arm means as the cold-start
fallback.  Ties and argmins resolve by arm order, never by hash order.
"""

import math
import random

from ..common.errors import ConfigError
from ..coherence.strategy import make_strategy
from ..workloads.characterize import invocation_features


def _bucket(value):
    """Power-of-4 magnitude bucket; the -1 first-touch marker survives."""
    if value < 0:
        return -1
    bucket = 0
    while value > 3:
        value >>= 2
        bucket += 1
    return bucket


class Selector:
    """Base selector: a fixed choice, no learning, no telemetry."""

    #: Whether runs under this selector must record telemetry.
    records_telemetry = False
    #: The strategy every ``select`` returns, when fixed (a run with one
    #: tenant under a fixed strategy may use the replay rung).
    strategy = None

    def select(self, index, trace):
        """Return the :class:`CoherenceStrategy` for invocation ``index``."""
        raise NotImplementedError

    def observe(self, index, trace, strategy, cycles, record):
        """Digest the outcome of invocation ``index`` (no-op by default);
        ``record`` is the telemetry record or ``None`` when not recorded."""


class StaticSelector(Selector):
    """Always the same strategy — today's systems, as a selector."""

    def __init__(self, key):
        self.strategy = make_strategy(key)

    def select(self, index, trace):
        return self.strategy


class ScheduleSelector(Selector):
    """Invocation ``i`` runs ``schedule[i]`` (clamped to the last entry).

    The oracle evaluator's vehicle: an explicit per-invocation strategy
    assignment, replayable through the engine's cached batch path.  A
    single-entry schedule is a uniform run of that strategy.
    """

    records_telemetry = True

    def __init__(self, schedule):
        if not schedule:
            raise ConfigError("empty strategy schedule")
        self.strategies = [make_strategy(key) for key in schedule]

    def select(self, index, trace):
        if index < len(self.strategies):
            return self.strategies[index]
        return self.strategies[-1]


class BanditSelector(Selector):
    """Epsilon-greedy / UCB contextual bandit over strategy arms.

    Minimises invocation cycles.  With ``ucb_c > 0`` exploration uses
    the deterministic UCB bonus; otherwise it is epsilon-greedy from
    the seeded RNG.  Setting ``exploit = True`` freezes learning-free
    greedy selection (used for the post-training evaluation pass).
    """

    records_telemetry = True

    def __init__(self, arms, workload, epsilon=0.1, ucb_c=0.0,
                 seed=20150613):
        if not arms:
            raise ConfigError("bandit needs at least one strategy arm")
        self.arms = [make_strategy(key) for key in arms]
        self.epsilon = epsilon
        self.ucb_c = ucb_c
        self.rng = random.Random(seed)
        self.exploit = False
        self._features = invocation_features(workload)
        #: context -> per-arm [observations, mean cycles]
        self._context_stats = {}
        self._global = [[0, 0.0] for _ in self.arms]
        self._observations = 0

    # -- context ------------------------------------------------------------

    def _context(self, index, trace):
        if index < len(self._features):
            reuse, footprint = self._features[index]
        else:
            reuse, footprint = -1, 0
        return (trace.name, _bucket(reuse), _bucket(footprint))

    def _stats_for(self, context):
        stats = self._context_stats.get(context)
        if stats is None:
            stats = self._context_stats[context] = [
                [0, 0.0] for _ in self.arms]
        return stats

    # -- selection ----------------------------------------------------------

    def select(self, index, trace):
        stats = self._stats_for(self._context(index, trace))
        if self.exploit:
            return self.arms[self._greedy(stats)]
        for arm, (count, _mean) in enumerate(stats):
            if count == 0:
                return self.arms[arm]
        if self.ucb_c > 0:
            return self.arms[self._ucb(stats)]
        if self.epsilon > 0 and self.rng.random() < self.epsilon:
            return self.arms[self.rng.randrange(len(self.arms))]
        return self.arms[self._greedy(stats)]

    def _greedy(self, stats):
        """Lowest mean cycles; context stats, then global, then arm 0."""
        for table in (stats, self._global):
            tried = [arm for arm, (count, _mean) in enumerate(table)
                     if count > 0]
            if tried:
                return min(tried, key=lambda arm: (table[arm][1], arm))
        return 0

    def _ucb(self, stats):
        """UCB for minimisation: mean minus a scaled exploration bonus.

        The bonus is scaled by the global mean cycle count so ``ucb_c``
        stays dimensionless across workloads of different magnitudes.
        """
        scale = (sum(mean * count for count, mean in self._global)
                 / max(1, self._observations))
        total = sum(count for count, _mean in stats)

        def score(arm):
            count, mean = stats[arm]
            bonus = self.ucb_c * scale * math.sqrt(
                math.log(total + 1) / count)
            return mean - bonus

        return min(range(len(self.arms)), key=lambda arm: (score(arm),
                                                           arm))

    # -- learning -----------------------------------------------------------

    def observe(self, index, trace, strategy, cycles, record):
        if self.exploit:
            return
        try:
            arm = next(i for i, candidate in enumerate(self.arms)
                       if candidate.key == strategy.key)
        except StopIteration:
            return
        for table in (self._stats_for(self._context(index, trace)),
                      self._global):
            entry = table[arm]
            entry[0] += 1
            entry[1] += (cycles - entry[1]) / entry[0]
        self._observations += 1


def make_selector(policy, workload):
    """Build the selector a :class:`PolicyConfig` describes."""
    if policy.selector == "static":
        selector = StaticSelector(policy.static_strategy)
    elif policy.selector == "schedule":
        selector = ScheduleSelector(policy.schedule)
    elif policy.selector == "bandit":
        selector = BanditSelector(policy.strategies, workload,
                                  epsilon=policy.epsilon, ucb_c=0.0,
                                  seed=policy.seed)
    elif policy.selector == "ucb":
        selector = BanditSelector(policy.strategies, workload,
                                  epsilon=0.0, ucb_c=policy.ucb_c,
                                  seed=policy.seed)
    else:
        raise ConfigError(
            "unknown policy selector {!r}".format(policy.selector))
    if policy.record_telemetry:
        selector.records_telemetry = True
    return selector
