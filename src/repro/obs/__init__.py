"""Cycle-level observability: counters, event tracing, stall attribution.

A lightweight, zero-cost-when-disabled instrumentation layer threaded
through the simulator.  Create an :class:`Instrumentation`, pass it to
a simulation entry point, then attribute stalls or export the run::

    from repro.obs import Instrumentation, attribute_stalls
    from repro.obs.export import write_chrome_trace
    from repro.sim.runner import RunSpec, simulate

    obs = Instrumentation()
    result = simulate(RunSpec(kernel="daxpy", organization="pi"), obs=obs)
    stalls = attribute_stalls(obs)
    print(stalls.table())
    write_chrome_trace("trace.json", obs, stalls=stalls.as_dict())

Time-series telemetry rides on the same object: construct it with a
sampling window and windowed series land in ``obs.metrics``::

    obs = Instrumentation(telemetry_window=256)
    result = simulate(RunSpec(kernel="daxpy", organization="pi"), obs=obs)
    series = obs.metrics.series("telemetry.data_bus_utilization")

See :mod:`repro.obs.core` for the primitives,
:mod:`repro.obs.attribution` for the exact cycle accounting,
:mod:`repro.obs.telemetry` for the sampling probe and windowed series,
:mod:`repro.obs.metrics` for the registry and its exporters,
:mod:`repro.obs.export` for Perfetto/JSONL I/O,
:mod:`repro.obs.ledger` for the append-only run ledger,
:mod:`repro.obs.report` for self-contained HTML reports, and the
``repro-obs`` command (:mod:`repro.obs.cli`) for inspecting exported
files.
"""

from repro.obs.attribution import (
    BUCKETS,
    AccessMix,
    StallAttribution,
    access_mix,
    attribute_stalls,
    classify_stall_intervals,
    format_stall_table,
)
from repro.obs.core import (
    CounterRegistry,
    DataBusGap,
    EventTracer,
    InstantEvent,
    Instrumentation,
    SpanEvent,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Series,
    load_metrics_jsonl,
    to_prometheus,
    write_metrics_csv,
    write_metrics_jsonl,
)
from repro.obs.ledger import Ledger, LedgerWriter
from repro.obs.telemetry import (
    TelemetryProbe,
    build_windowed_series,
    finalize_telemetry,
)

__all__ = [
    "AccessMix",
    "BUCKETS",
    "Counter",
    "CounterRegistry",
    "DataBusGap",
    "EventTracer",
    "Gauge",
    "Histogram",
    "InstantEvent",
    "Instrumentation",
    "Ledger",
    "LedgerWriter",
    "MetricsRegistry",
    "Series",
    "SpanEvent",
    "StallAttribution",
    "TelemetryProbe",
    "access_mix",
    "attribute_stalls",
    "build_windowed_series",
    "classify_stall_intervals",
    "finalize_telemetry",
    "format_stall_table",
    "load_metrics_jsonl",
    "render_report",
    "to_prometheus",
    "write_metrics_csv",
    "write_metrics_jsonl",
]


def __getattr__(name: str):
    # Imported lazily: an eager import of repro.obs.report adds
    # ~0.15 MB to the peak RSS of `import repro` (CPython 3.11, x86_64).
    if name == "render_report":
        from repro.obs.report import render_report

        return render_report
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
