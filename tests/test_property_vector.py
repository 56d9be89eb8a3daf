"""The vector rung on and off: the oracle's property with only
``VECTOR_PHASES`` flipped (``tests/test_oracle.py`` checks every
combination of the four rungs)."""

from hypothesis import given, settings

from test_oracle import ALL_ON, CORESIDENT, SOLO_MAKERS, cases, check, \
    pick, rung_off
# The oracle's autouse phase cap: the generated traces keep forming
# multi-phase windows here too.
from test_oracle import oracle_phase_cap  # noqa: F401

OFF = rung_off("VECTOR_PHASES")


@given(cases())
@settings(max_examples=4, deadline=None)
def test_vector_results_bit_identical_on_all_systems(case):
    check(case, (ALL_ON, OFF), SOLO_MAKERS)


@given(cases(leases=(0, 1, 3, 7)))
@settings(max_examples=4, deadline=None)
def test_adversarial_leases_stay_bit_identical(case):
    """Leases expiring mid-window (or before one opens) must cap the
    accepted prefix or decline, never corrupt the timeline."""
    check(case, (ALL_ON, OFF), pick("FUSION", "FUSION-Dx", "FUSION-PIPE"))


@given(cases())
@settings(max_examples=4, deadline=None)
def test_multitenant_bit_identical(case):
    """Co-resident processes on one tile or a tile each: the vector rung
    must stay invisible across the interleaved invocations."""
    check(case, (ALL_ON, OFF), pick(*CORESIDENT))
