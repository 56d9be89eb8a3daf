"""Benchmark registry: one place that knows every workload and its sizes.

``build_workload(name, size)`` returns the (cached) trace for a
benchmark at one of three sizes:

* ``"full"``  — the evaluation size; working sets preserve the paper's
  relationships to the cache capacities (ADPCM/SUSAN/FILT < 30 kB,
  DISP fits a 256 kB L1X but not 64 kB, TRACK and HIST overflow both).
* ``"small"`` — quick runs (examples, smoke benches).
* ``"tiny"``  — unit tests.
"""

from functools import lru_cache

from ..common.errors import TraceError
from .builder import AddressSpace, TraceBuilder
from .kernels import adpcm, disparity, fft, filters, histogram, susan, \
    tracking

#: Display order used by every table and figure (matches the paper).
BENCHMARKS = ("fft", "disparity", "tracking", "adpcm", "susan", "filter",
              "histogram")

#: Short labels used in the paper's figures.
LABELS = {"fft": "FFT", "disparity": "DISP.", "tracking": "TRACK.",
          "adpcm": "ADPCM", "susan": "SUSAN", "filter": "FILT.",
          "histogram": "HIST."}

#: The sizes every benchmark builds at.
SIZES = ("full", "small", "tiny")

_SIZES = {
    "fft": {
        "full": {"n": 1024, "iterations": 4},
        "small": {"n": 256, "iterations": 2},
        "tiny": {"n": 64, "iterations": 1},
    },
    "disparity": {
        "full": {"width": 80, "height": 60, "shifts": 4},
        "small": {"width": 48, "height": 32, "shifts": 2},
        "tiny": {"width": 16, "height": 12, "shifts": 2},
    },
    "tracking": {
        "full": {"width": 176, "height": 132},
        "small": {"width": 64, "height": 48},
        "tiny": {"width": 24, "height": 16},
    },
    "adpcm": {
        "full": {"num_samples": 8192},
        "small": {"num_samples": 2048},
        "tiny": {"num_samples": 256},
    },
    "susan": {"full": {"dim": 56}, "small": {"dim": 32}, "tiny": {"dim": 16}},
    "filter": {"full": {"dim": 64}, "small": {"dim": 32}, "tiny": {"dim": 12}},
    "histogram": {
        "full": {"num_pixels": 32768},
        "small": {"num_pixels": 4096},
        "tiny": {"num_pixels": 512},
    },
}

_BUILDERS = {
    "fft": fft.build_workload,
    "disparity": disparity.build_workload,
    "tracking": tracking.build_workload,
    "adpcm": adpcm.build_workload,
    "susan": susan.build_workload,
    "filter": filters.build_workload,
    "histogram": histogram.build_workload,
}


def _factory(benchmark):
    """The ``builder_factory`` kernels expect: a fresh space + builder."""
    space = AddressSpace()
    return space, TraceBuilder(benchmark, space)


@lru_cache(maxsize=None)
def build_workload(name, size="full"):
    """Build (and cache) one benchmark's workload trace.

    Returns the :class:`repro.common.types.WorkloadTrace`.  The trace is
    deterministic for a given (name, size), so callers may share it —
    traces are read-only to the simulator.
    """
    workload, _ = build_workload_with_outputs(name, size)
    return workload


@lru_cache(maxsize=None)
def build_workload_with_outputs(name, size="full"):
    """Build one benchmark, returning ``(workload, outputs)``.

    ``outputs`` carries the kernel's computed results for functional
    verification.
    """
    if name not in _BUILDERS:
        raise TraceError("unknown benchmark {!r}; expected one of {}".format(
            name, ", ".join(BENCHMARKS)))
    if size not in _SIZES[name]:
        raise TraceError("unknown size {!r} for {}".format(size, name))
    build = _BUILDERS[name]
    return build(_factory, **_SIZES[name][size])


def clear_caches():
    """Drop the memoised workload builds.

    Called by :func:`repro.sim.simulator.clear_cache` so tests that
    mutate global models (kernels, builders) get fresh traces too.
    """
    build_workload.cache_clear()
    build_workload_with_outputs.cache_clear()
