"""Design-space sweep utilities.

The simulator exists to make studies like Figure 7 cheap; this module
makes them one-liners.  A sweep is a grid of configuration transforms
evaluated over systems and benchmarks, returning an
:class:`ExperimentTable` plus the raw results for programmatic use.

Example::

    from repro.sim.sweep import sweep, lease_axis, config_axis

    table, results = sweep(
        systems=("FUSION",),
        benchmarks=("filter",),
        axes=[lease_axis(100, 500, 2000)],
        metrics=("accel_cycles", "energy_uj"),
    )
"""

from dataclasses import replace

from ..common.config import CacheConfig, small_config
from ..common.units import KB
from ..systems import resolve
from .engine import RunRequest, get_engine
from .reporting import ExperimentTable, result_cells

#: Metric extractors available to sweeps.
METRICS = {
    "accel_cycles": lambda r: r.accel_cycles,
    "total_cycles": lambda r: r.total_cycles,
    "energy_uj": lambda r: r.energy.total_pj / 1e6,
    "cache_compute_ratio": lambda r: r.energy.cache_to_compute_ratio(),
    "l1x_misses": lambda r: r.stat("l1x.misses"),
    "dma_kb": lambda r: r.dma_kb,
    "axc_link_msgs": lambda r: r.axc_link_msgs,
    "link_utilization": lambda r: r.link_utilization(),
    "edp": lambda r: r.edp,
}


def config_axis(name, transforms):
    """A sweep axis: ``transforms`` maps point-label -> config transform
    (a callable ``config -> config``)."""
    return (name, list(transforms.items()))


def lease_axis(*leases):
    """Axis over ACC lease lengths."""
    return config_axis("lease", {
        str(lease): (lambda cfg, value=lease: cfg.with_lease(value))
        for lease in leases})


def l0x_axis(*sizes_kb):
    """Axis over L0X capacities (kB)."""

    def transform(config, size_kb):
        tile = replace(config.tile, l0x=CacheConfig(
            size_kb * KB, 4, hit_latency=1, timestamp_bits=32))
        return replace(config, tile=tile)

    return config_axis("l0x_kb", {
        str(size): (lambda cfg, value=size: transform(cfg, value))
        for size in sizes_kb})


def l1x_axis(*sizes_kb):
    """Axis over shared-L1X capacities (kB)."""

    def transform(config, size_kb):
        tile = replace(config.tile, l1x=CacheConfig(
            size_kb * KB, 8, banks=16,
            hit_latency=4 + (size_kb // 128), timestamp_bits=32))
        return replace(config, tile=tile)

    return config_axis("l1x_kb", {
        str(size): (lambda cfg, value=size: transform(cfg, value))
        for size in sizes_kb})


def _apply_policy_spec(config, spec):
    """Turn one ``--policy`` spec string into a POLICY config.

    Specs: ``static:KEY`` (KEY is a strategy key, e.g. ``fusion`` or
    ``fusion:lease=250``), ``bandit`` / ``bandit:EPSILON``, and
    ``ucb`` / ``ucb:C``.
    """
    kind, _, arg = spec.partition(":")
    if kind == "static":
        return config.with_policy(selector="static",
                                  static_strategy=arg or "fusion")
    if kind == "bandit":
        kwargs = {"selector": "bandit"}
        if arg:
            kwargs["epsilon"] = float(arg)
        return config.with_policy(**kwargs)
    if kind == "ucb":
        kwargs = {"selector": "ucb"}
        if arg:
            kwargs["ucb_c"] = float(arg)
        return config.with_policy(**kwargs)
    from ..common.errors import ConfigError
    raise ConfigError(
        "unknown policy spec {!r}; expected static:KEY, bandit[:eps] "
        "or ucb[:c]".format(spec))


def policy_axis(*specs):
    """Axis over policy selectors (``static:fusion``, ``bandit``, ...).

    Points run as the POLICY system; combine with
    ``systems=("POLICY",)``.
    """
    return config_axis("policy", {
        spec: (lambda cfg, value=spec: _apply_policy_spec(cfg, value))
        for spec in specs})


def _grid(axes):
    """Yield (labels_tuple, transforms_tuple) over the axis product."""
    if not axes:
        yield (), ()
        return
    name, points = axes[0]
    for label, transform in points:
        for labels, transforms in _grid(axes[1:]):
            yield (label,) + labels, (transform,) + transforms


def grid_points(systems, benchmarks, axes, size="small",
                base_config=None):
    """Materialise the axis product as engine requests.

    Returns ``(points, requests)`` where ``points`` is a list of
    ``(system, benchmark, labels)`` tuples aligned with ``requests``.
    Every system/benchmark pair is checked by
    :func:`repro.systems.resolve` first, so a co-resident spelling like
    ``FUSION+SCRATCH`` on ``adpcm+filter`` is one more point.
    Shared by :func:`sweep` and the service's serializable job specs
    (:mod:`repro.sim.jobs`), so a daemon-expanded grid is bit-identical
    to the one a direct ``sweep()`` call would submit.
    """
    base_config = base_config or small_config()
    points, requests = [], []
    for system in systems:
        for benchmark in benchmarks:
            resolve(RunRequest(system, benchmark, size))
            for labels, transforms in _grid(axes):
                config = base_config
                for transform in transforms:
                    config = transform(config)
                config = replace(config, name="sweep:" + ":".join(
                    labels) if labels else config.name)
                points.append((system, benchmark, labels))
                requests.append(RunRequest(system, benchmark, size,
                                           config))
    return points, requests


def sweep(systems, benchmarks, axes, metrics=("accel_cycles",
                                              "energy_uj"),
          size="small", base_config=None, strict=True, timeout=None):
    """Run the grid; returns ``(ExperimentTable, {key: RunResult})``.

    ``key`` is ``(system, benchmark) + axis_labels``.  With
    ``strict=False`` a point the engine could not complete (worker
    crash past the retry budget, per-run timeout) becomes a
    :class:`~repro.sim.results.FailedResult` in ``results`` and a
    ``FAILED`` hole in the table instead of aborting the whole grid —
    a 200-point overnight sweep should not die at point 73.
    """
    for metric in metrics:
        if metric not in METRICS:
            raise KeyError("unknown metric {!r}; choose from {}".format(
                metric, ", ".join(sorted(METRICS))))
    axis_names = [name for name, _ in axes]
    table = ExperimentTable(
        "Sweep", "design-space sweep (size={})".format(size),
        ["System", "Benchmark"] + axis_names + list(metrics))

    # Materialise the whole axis product first and submit it to the
    # execution engine as one batch — deduplicated, disk-cached and
    # fanned out over REPRO_JOBS workers — then fill the table from
    # the returned (order-preserving) results.
    points, requests = grid_points(systems, benchmarks, axes, size,
                                   base_config)
    run_results = get_engine().run_batch(requests, strict=strict,
                                         timeout=timeout)

    results = {}
    extractors = [METRICS[m] for m in metrics]
    for (system, benchmark, labels), result in zip(points, run_results):
        results[(system, benchmark) + labels] = result
        table.add_row(system, benchmark, *labels,
                      *result_cells(result, extractors))
    return table, results
