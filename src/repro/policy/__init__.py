"""Per-invocation coherence policy engine (ROADMAP item 3).

The paper's four systems are static design points; this package selects
the coherence strategy *per invocation* — the Cohmeleon/HyDRA direction:

* :mod:`repro.policy.telemetry` — the :class:`InvocationTelemetry`
  record (reuse distance, footprint, lease expiries, contention stalls)
  every learning selector feeds on;
* :mod:`repro.policy.selectors` — static / schedule / epsilon-greedy /
  UCB selectors with an explicit seeded RNG;
* :mod:`repro.policy.engine` — the oracle evaluator (per-invocation
  argmin over strategies via the execution engine's cached batch path),
  in-process bandit training, and the ``policy`` experiment grid.

The POLICY system is the registry entry in :mod:`repro.systems` whose
selector :func:`make_selector` builds from ``config.policy``.
"""

from .engine import evaluate_selectors, policy_grid, train_bandit
from .selectors import (BanditSelector, ScheduleSelector, Selector,
                        StaticSelector, make_selector)
from .telemetry import InvocationTelemetry, telemetry_from_delta

__all__ = [
    "BanditSelector", "InvocationTelemetry", "ScheduleSelector",
    "Selector", "StaticSelector", "evaluate_selectors", "make_selector",
    "policy_grid", "telemetry_from_delta", "train_bandit",
]
