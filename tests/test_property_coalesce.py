"""The coalesced-run rung on and off: the oracle's property with only
``COALESCE_RUNS`` flipped (``tests/test_oracle.py`` checks every
combination of the four rungs)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from test_oracle import ALL_ON, LEASES, POOL, SOLO_MAKERS, cases, check, \
    functions, rung_off, run_lengths
# The oracle's autouse phase cap: the generated traces keep forming
# multi-phase windows here too.
from test_oracle import oracle_phase_cap  # noqa: F401

OFF = rung_off("COALESCE_RUNS")


@given(cases())
@settings(max_examples=4, deadline=None)
def test_coalesced_results_bit_identical_on_all_systems(case):
    check(case, (ALL_ON, OFF), SOLO_MAKERS)


#: One hot function of mostly-store runs, repeated 2-4 times.
store_heavy = st.tuples(
    st.tuples(st.sampled_from(LEASES), st.lists(st.tuples(
        st.integers(0, POOL - 1), st.sampled_from((True, True, False)),
        run_lengths), min_size=1, max_size=16).map(tuple)),
    st.integers(2, 4), functions(POOL))


@given(store_heavy)
@settings(max_examples=4, deadline=None)
def test_single_function_store_heavy_runs_match(spec):
    """Stress the store-side guards (W state, write-through, dirty
    accounting) with a single hot function."""
    function, rounds, partner = spec
    check((POOL, (function,), [0] * rounds, (partner, 1)), (ALL_ON, OFF),
          SOLO_MAKERS)
