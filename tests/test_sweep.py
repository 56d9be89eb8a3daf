"""Design-space sweep utilities (repro.sim.sweep)."""

import pytest

from repro.common.errors import ConfigError
from repro.sim.sweep import (
    METRICS,
    config_axis,
    grid_points,
    l0x_axis,
    l1x_axis,
    lease_axis,
    sweep,
)


def test_lease_axis_sweeps_configs():
    table, results = sweep(
        systems=("FUSION",), benchmarks=("adpcm",),
        axes=[lease_axis(100, 1000)], size="tiny")
    assert len(table.rows) == 2
    assert table.headers[:3] == ["System", "Benchmark", "lease"]
    assert set(results) == {("FUSION", "adpcm", "100"),
                            ("FUSION", "adpcm", "1000")}


def test_two_axis_grid_is_a_product():
    table, results = sweep(
        systems=("FUSION",), benchmarks=("adpcm",),
        axes=[l0x_axis(2, 4), l1x_axis(32, 64)], size="tiny")
    assert len(table.rows) == 4
    assert ("FUSION", "adpcm", "2", "64") in results


def test_axisless_sweep_runs_once_per_cell():
    table, results = sweep(
        systems=("SCRATCH", "FUSION"), benchmarks=("adpcm", "filter"),
        axes=[], size="tiny")
    assert len(table.rows) == 4


def test_coresident_points_sweep_like_any_other():
    """A co-resident spelling is one more grid point; a bad one fails
    while the grid is built, before anything runs."""
    table, results = sweep(
        systems=("FUSION", "FUSION+SCRATCH"), benchmarks=("adpcm+filter",),
        axes=[lease_axis(100, 500)], size="tiny")
    assert len(table.rows) == 4
    assert results[("FUSION+SCRATCH", "adpcm+filter", "100")].system \
        == "FUSION-MT"
    with pytest.raises(ConfigError, match="2 systems for 1 benchmark"):
        grid_points(("FUSION+SCRATCH",), ("adpcm",), [], "tiny")


def test_metrics_are_extracted():
    table, results = sweep(
        systems=("FUSION",), benchmarks=("adpcm",), axes=[],
        metrics=("accel_cycles", "l1x_misses", "link_utilization"),
        size="tiny")
    row = table.rows[0]
    result = results[("FUSION", "adpcm")]
    assert float(row[2]) == pytest.approx(result.accel_cycles)
    assert float(row[3]) == result.stat("l1x.misses")


def test_unknown_metric_rejected():
    with pytest.raises(KeyError):
        sweep(systems=("FUSION",), benchmarks=("adpcm",), axes=[],
              metrics=("speed_of_light",), size="tiny")


def test_l0x_axis_changes_behaviour():
    _, results = sweep(
        systems=("FUSION",), benchmarks=("filter",),
        axes=[l0x_axis(1, 8)], size="tiny",
        metrics=("energy_uj",))
    tiny_l0x = results[("FUSION", "filter", "1")]
    big_l0x = results[("FUSION", "filter", "8")]

    def misses(result):
        return sum(v for k, v in result.stats.items()
                   if k.startswith("l0x.axc") and k.endswith(".misses"))

    assert misses(big_l0x) <= misses(tiny_l0x)


def test_custom_axis():
    from dataclasses import replace
    axis = config_axis("banks", {
        "1": lambda c: replace(c, tile=replace(
            c.tile, l1x=replace(c.tile.l1x, banks=1))),
        "16": lambda c: c,
    })
    _, results = sweep(systems=("FUSION",), benchmarks=("adpcm",),
                       axes=[axis], size="tiny", metrics=("energy_uj",))
    flat = results[("FUSION", "adpcm", "1")].stat("l1x.energy_pj")
    banked = results[("FUSION", "adpcm", "16")].stat("l1x.energy_pj")
    assert flat > banked  # banking saves L1X access energy


def test_all_metrics_resolve():
    table, _ = sweep(systems=("SCRATCH",), benchmarks=("adpcm",),
                     axes=[], metrics=tuple(sorted(METRICS)),
                     size="tiny")
    assert len(table.rows[0]) == 2 + len(METRICS)


# -- the axis-product grid itself ------------------------------------------

def test_grid_empty_axes_yields_one_empty_point():
    from repro.sim.sweep import _grid
    assert list(_grid([])) == [((), ())]


def test_grid_ordering_is_row_major():
    from repro.sim.sweep import _grid

    def t(tag):
        def transform(config):
            return config
        transform.tag = tag
        return transform

    axes = [("a", [("1", t("a1")), ("2", t("a2"))]),
            ("b", [("x", t("bx")), ("y", t("by"))])]
    points = list(_grid(axes))
    assert [labels for labels, _ in points] == [
        ("1", "x"), ("1", "y"), ("2", "x"), ("2", "y")]
    # Transforms stay paired with their labels, first axis first.
    for labels, transforms in points:
        assert [f.tag for f in transforms] == [
            "a" + labels[0], "b" + labels[1]]


def test_grid_single_axis_preserves_point_order():
    from repro.sim.sweep import _grid
    axis = ("lease", [(str(v), None) for v in (500, 100, 2000)])
    labels = [labels for labels, _ in _grid([axis])]
    assert labels == [("500",), ("100",), ("2000",)]
