"""The replay rung on and off: the oracle's property with only
``REPLAY_INVOCATIONS`` flipped (``tests/test_oracle.py`` checks every
combination of the four rungs)."""

from hypothesis import given, settings

from test_oracle import ALL_ON, CORESIDENT, PRESSURE_POOL, SOLO_MAKERS, \
    cases, check, pick, rung_off
# The oracle's autouse phase cap: the generated traces keep forming
# multi-phase windows here too.
from test_oracle import oracle_phase_cap  # noqa: F401

OFF = rung_off("REPLAY_INVOCATIONS")


@given(cases())
@settings(max_examples=4, deadline=None)
def test_replay_results_bit_identical_on_all_systems(case):
    check(case, (ALL_ON, OFF), SOLO_MAKERS)


@given(cases(leases=(0, 1, 3, 7)))
@settings(max_examples=4, deadline=None)
def test_adversarial_leases_stay_bit_identical(case):
    """Leases expiring mid-invocation (or before the next one starts)
    must make the guard decline or class-match, never corrupt state."""
    check(case, (ALL_ON, OFF), pick("FUSION", "FUSION-Dx", "SHARED"))


@given(cases(pools=(PRESSURE_POOL,)))
@settings(max_examples=4, deadline=None)
def test_eviction_under_pressure_stays_bit_identical(case):
    """A pool wider than the L0X: recorded invocations evict lines
    under pressure, and the guard must pin LRU order exactly."""
    check(case, (ALL_ON, OFF), pick("FUSION", "FUSION-Dx", "SCRATCH"))


@given(cases())
@settings(max_examples=4, deadline=None)
def test_multitenant_bit_identical(case):
    """Co-resident processes on one tile or a tile each: flipping the
    replay flag must not perturb the interleaved invocations."""
    check(case, (ALL_ON, OFF), pick(*CORESIDENT))
