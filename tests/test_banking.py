"""Bank contention model (repro.mem.banking) and its integration."""

from dataclasses import replace

from repro.common.config import small_config
from repro.common.stats import StatsRegistry
from repro.mem.banking import BankContention
from repro.systems import SYSTEMS
from repro.workloads.registry import build_workload


def make_banks(num_banks=4, occupancy=2):
    return BankContention(num_banks, occupancy, StatsRegistry())


def test_free_bank_has_no_delay():
    banks = make_banks()
    assert banks.access(0, now=10) == 0


def test_same_cycle_same_bank_conflicts():
    banks = make_banks(occupancy=2)
    assert banks.access(0, now=10) == 0
    assert banks.access(0, now=10) == 2
    assert banks.conflicts == 1


def test_different_banks_do_not_conflict():
    banks = make_banks(num_banks=4)
    assert banks.access(0, now=10) == 0
    assert banks.access(1, now=10) == 0
    assert banks.conflicts == 0


def test_sets_interleave_across_banks():
    banks = make_banks(num_banks=4)
    assert banks.bank_of(0) == 0
    assert banks.bank_of(5) == 1
    assert banks.bank_of(4) == 0


def test_spaced_accesses_do_not_conflict():
    banks = make_banks(occupancy=1)
    assert banks.access(0, now=10) == 0
    assert banks.access(0, now=11) == 0


def test_back_to_back_conflicts_accumulate():
    banks = make_banks(num_banks=1, occupancy=3)
    banks.access(0, now=0)
    assert banks.access(0, now=0) == 3
    assert banks.access(0, now=0) == 6
    assert banks.stats.get("conflict_cycles") == 9


def test_reset():
    banks = make_banks()
    banks.access(0, now=0)
    banks.reset()
    assert banks.access(0, now=0) == 0


def contention_config():
    config = small_config()
    return replace(config, tile=replace(config.tile,
                                        model_bank_conflicts=True))


def test_disabled_by_default():
    workload = build_workload("adpcm", "tiny")
    result = SYSTEMS["FUSION"](small_config(), workload).run()
    assert "l1x.banks.accesses" not in result.stats


def test_sequential_fusion_sees_few_conflicts():
    """One AXC at a time spaces L1X accesses out: conflicts are rare."""
    workload = build_workload("adpcm", "tiny")
    result = SYSTEMS["FUSION"](contention_config(), workload).run()
    accesses = result.stat("l1x.banks.accesses")
    conflicts = result.stat("l1x.banks.conflicts", 0)
    assert accesses > 0
    assert conflicts <= 0.05 * accesses


def test_pipelined_overlap_creates_bank_pressure():
    """Concurrent invocations interleave L1X accesses at the same local
    times: the contention model must observe more conflicts than the
    sequential schedule does."""
    workload = build_workload("disparity", "tiny")
    sequential = SYSTEMS["FUSION"](contention_config(), workload).run()
    pipelined = SYSTEMS["FUSION-PIPE"](contention_config(),
                                       workload).run()
    assert pipelined.stat("l1x.banks.conflicts", 0) >= \
        sequential.stat("l1x.banks.conflicts", 0)


def test_shared_contention_counts():
    workload = build_workload("adpcm", "tiny")
    result = SYSTEMS["SHARED"](contention_config(), workload).run()
    assert result.stat("l1x.banks.accesses") > 0
