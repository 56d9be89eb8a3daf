"""Benches for the library's extensions beyond the paper's evaluation:
the IDEAL efficiency bound, the adaptive lease policy, and PID-tagged
multi-tenancy."""

from repro.common.config import small_config
from repro.sim.reporting import ExperimentTable
from repro.sim.simulator import run
from repro.systems import SYSTEMS, coresident
from repro.workloads.registry import BENCHMARKS, LABELS, build_workload


def test_ideal_efficiency(benchmark, report, size):
    """Fraction of the data-movement-free bound each design achieves."""

    def measure():
        table = ExperimentTable(
            "Ext efficiency", "IDEAL cycles / system cycles (%)",
            ["Benchmark", "SCRATCH", "SHARED", "FUSION"])
        for name in BENCHMARKS:
            ideal = run("IDEAL", name, size).accel_cycles
            table.add_row(
                LABELS[name],
                100.0 * ideal / run("SCRATCH", name, size).accel_cycles,
                100.0 * ideal / run("SHARED", name, size).accel_cycles,
                100.0 * ideal / run("FUSION", name, size).accel_cycles)
        return table

    table = benchmark.pedantic(measure, rounds=1, iterations=1)
    report(table)
    for row in table.rows:
        assert float(row[3]) >= float(row[1]) - 1e-6 or \
            float(row[3]) >= float(row[2]) - 1e-6
        assert 0 < float(row[3]) <= 100.0


def test_adaptive_lease_policy(benchmark, report, size):
    """Adaptive leases recover most of a badly chosen fixed lease."""

    def measure():
        table = ExperimentTable(
            "Ext adaptive-lease",
            "Fixed-40 vs adaptive vs paper leases (FUSION, FILT.)",
            ["Policy", "Cycles", "L0X misses", "uJ"])
        workload = build_workload("filter", size)
        short = small_config().with_lease(40)
        configs = [("fixed-40", short),
                   ("adaptive-40", short.with_lease_policy("adaptive")),
                   ("paper", small_config())]
        for label, config in configs:
            result = SYSTEMS["FUSION"](config, workload).run()
            misses = sum(v for k, v in result.stats.items()
                         if k.startswith("l0x.axc")
                         and k.endswith(".misses"))
            table.add_row(label, result.accel_cycles, misses,
                          result.energy.total_pj / 1e6)
        return table

    table = benchmark.pedantic(measure, rounds=1, iterations=1)
    report(table)
    misses = {row[0]: float(row[2]) for row in table.rows}
    assert misses["adaptive-40"] < misses["fixed-40"]


def test_pipelined_overlap(benchmark, report, size):
    """Dependence-aware invocation overlap (the Figure 5 concurrency)."""

    def measure():
        from repro.workloads.dependence import parallelism_profile
        table = ExperimentTable(
            "Ext pipelined", "FUSION vs dependence-pipelined FUSION",
            ["Benchmark", "Width", "FUSION KCyc", "PIPE KCyc",
             "Speedup"])
        for name in BENCHMARKS:
            workload = build_workload(name, size)
            _, _, width = parallelism_profile(workload)
            seq = run("FUSION", name, size)
            pipe = run("FUSION-PIPE", name, size)
            table.add_row(LABELS[name], width,
                          seq.accel_cycles / 1000.0,
                          pipe.accel_cycles / 1000.0,
                          seq.accel_cycles / pipe.accel_cycles)
        return table

    table = benchmark.pedantic(measure, rounds=1, iterations=1)
    report(table)
    for row in table.rows:
        width = int(row[1])
        speedup = float(row[4])
        assert speedup >= 0.99
        if width == 1:
            assert speedup <= 1.01  # chains cannot overlap


def test_multitenant_isolation(benchmark, report, size):
    """Two processes time-sharing one tile: PID tags keep them apart."""

    def measure():
        table = ExperimentTable(
            "Ext multitenant", "PID-tagged tile sharing (FUSION-MT)",
            ["Scenario", "Cycles", "PIDconflicts", "L1Xmisses"])
        wl_a = build_workload("adpcm", size)
        wl_b = build_workload("filter", size)
        solo_a = SYSTEMS["FUSION"](small_config(), wl_a).run()
        solo_b = SYSTEMS["FUSION"](small_config(), wl_b).run()
        pair = coresident(small_config(), [wl_a, wl_b]).run()
        table.add_row("adpcm alone", solo_a.accel_cycles, 0,
                      int(solo_a.stat("l1x.misses")))
        table.add_row("filter alone", solo_b.accel_cycles, 0,
                      int(solo_b.stat("l1x.misses")))
        table.add_row("co-resident", pair.accel_cycles,
                      int(pair.stat("l1x.pid_conflicts")),
                      int(pair.stat("l1x.misses")))
        return table

    table = benchmark.pedantic(measure, rounds=1, iterations=1)
    report(table)
    pair_misses = int(table.rows[2][3])
    solo_misses = int(table.rows[0][3]) + int(table.rows[1][3])
    # Isolation: co-residency can only add misses, never share data.
    assert pair_misses >= solo_misses
