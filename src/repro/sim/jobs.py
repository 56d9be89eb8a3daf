"""Serializable sweep specifications for the durable experiment store.

A :func:`repro.sim.sweep.sweep` grid is described by *callables*
(config transforms), which cannot cross a process boundary or survive a
daemon restart.  This module defines the wire/store format: a **job
spec** is a plain dict — systems, benchmarks, size, and named axes with
value lists — that expands deterministically to the exact same grid of
:class:`~repro.sim.engine.RunRequest`\\ s a direct ``sweep()`` call
would submit (both go through :func:`repro.sim.sweep.grid_points`).

Each grid point also gets a stable **run key**: a content hash of the
canonical point JSON (system, benchmark, size, axis labels).  Unlike
the engine's cache key it is *not* salted with the code fingerprint —
the store row identifies "the point the user asked for" across daemon
restarts and code changes; the code/config fingerprints at completion
time are recorded separately as provenance columns.
"""

import hashlib
import json

from ..common.errors import ConfigError
from ..systems import resolve
from .engine import RunRequest
from .sweep import METRICS, grid_points, l0x_axis, l1x_axis, lease_axis

#: Axis kinds a serializable spec may use, mapped to the sweep-axis
#: constructors that rebuild the config transforms on the daemon side.
AXIS_KINDS = {
    "lease": lease_axis,
    "l0x_kb": l0x_axis,
    "l1x_kb": l1x_axis,
}

DEFAULT_METRICS = ("accel_cycles", "energy_uj")


def normalize_spec(spec):
    """Validate a job-spec dict; returns the canonical copy.

    Raises :class:`ConfigError` on anything the daemon could not
    expand: a system/benchmark pair :func:`repro.systems.resolve`
    rejects, unknown axis kinds or metrics, empty grids.
    Canonicalisation keeps submission hashes stable: axis values become
    strings (the sweep's point labels), metrics default to
    :data:`DEFAULT_METRICS`.
    """
    if not isinstance(spec, dict):
        raise ConfigError("job spec must be a dict, got {!r}"
                          .format(type(spec).__name__))
    systems = list(spec.get("systems") or ())
    benchmarks = list(spec.get("benchmarks") or ())
    if not systems or not benchmarks:
        raise ConfigError("job spec needs non-empty 'systems' and "
                          "'benchmarks' lists")
    size = spec.get("size", "tiny")
    for system in systems:
        for benchmark in benchmarks:
            resolve(RunRequest(system, benchmark, size))
    axes = []
    for axis in spec.get("axes") or ():
        kind = axis.get("kind") if isinstance(axis, dict) else None
        if kind not in AXIS_KINDS:
            raise ConfigError(
                "unknown axis kind {!r}; expected one of {}"
                .format(kind, ", ".join(sorted(AXIS_KINDS))))
        values = [str(value) for value in (axis.get("values") or ())]
        if not values:
            raise ConfigError("axis {!r} needs a non-empty 'values' "
                              "list".format(kind))
        axes.append({"kind": kind, "values": values})
    metrics = list(spec.get("metrics") or DEFAULT_METRICS)
    for metric in metrics:
        if metric not in METRICS:
            raise ConfigError("unknown metric {!r}; choose from {}"
                              .format(metric, ", ".join(sorted(METRICS))))
    return {"systems": systems, "benchmarks": benchmarks, "size": size,
            "axes": axes, "metrics": metrics}


def _build_axes(spec):
    axes = []
    for axis in spec["axes"]:
        values = [int(value) for value in axis["values"]]
        axes.append(AXIS_KINDS[axis["kind"]](*values))
    return axes


def expand_spec(spec):
    """Expand a (normalized) spec to ``(points, requests)``.

    ``points`` are ``(system, benchmark, labels)`` tuples aligned with
    the :class:`RunRequest` list — exactly what
    :func:`repro.sim.sweep.grid_points` produces for the equivalent
    direct sweep, so daemon results are bit-identical to local ones.
    """
    spec = normalize_spec(spec)
    return grid_points(spec["systems"], spec["benchmarks"],
                       _build_axes(spec), spec["size"])


def point_dict(system, benchmark, size, axes, labels):
    """The canonical JSON-able identity of one grid point."""
    return {
        "system": system,
        "benchmark": benchmark,
        "size": size,
        "axes": [[axis["kind"], label]
                 for axis, label in zip(axes, labels)],
    }


def run_key(point):
    """Stable content-hash key for one grid point (store primary key)."""
    payload = json.dumps(point, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def point_request(point):
    """Rebuild the :class:`RunRequest` one stored point describes.

    Raises :class:`ConfigError` when the point is not a dict with
    ``system``/``benchmark``/``size`` that :func:`repro.systems.resolve`
    accepts and ``axes`` of ``[kind, integer label]`` pairs of known
    kinds.
    """
    try:
        system, benchmark, size = (point["system"], point["benchmark"],
                                   point["size"])
        axes = [(kind, int(label)) for kind, label in point["axes"]]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError("malformed stored point: {!r}".format(exc))
    for kind, _label in axes:
        if not isinstance(kind, str) or kind not in AXIS_KINDS:
            raise ConfigError("stored point has unknown axis kind {!r}"
                              .format(kind))
    points, requests = grid_points(
        [system], [benchmark],
        [AXIS_KINDS[kind](label) for kind, label in axes], size)
    assert len(requests) == 1
    return requests[0]


def spec_points(spec):
    """Yield ``(run_key, point_dict, request)`` for every grid point."""
    spec = normalize_spec(spec)
    points, requests = expand_spec(spec)
    for (system, benchmark, labels), request in zip(points, requests):
        point = point_dict(system, benchmark, spec["size"],
                           spec["axes"], labels)
        yield run_key(point), point, request
