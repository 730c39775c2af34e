"""Telemetry: structured tracing spans and a mergeable metrics registry.

One module-level *mode* governs everything:

========  =======================  ============================
mode      metrics registry         span tracer
========  =======================  ============================
off       no-op (``NULL_METRIC``)  no-op (null span handles)
metrics   recording                no-op
trace     recording                recording
========  =======================  ============================

The instrumented layers call the accessors below unconditionally::

    from repro import telemetry

    telemetry.counter("dataset.cache.hits").inc(5)
    telemetry.event("serve.promote.ok", config_hash=digest)
    with telemetry.span("sched.run", strategy="model") as sp:
        ...
        sp.annotate(jobs=len(jobs))

With telemetry off (the default), ``counter()``/``gauge()``/
``histogram()`` return a shared :class:`~repro.telemetry.metrics.NullMetric`
and ``span()`` returns a no-op handle — the cost is one global read and
a branch, which the telemetry benchmark holds to < 5% on the scheduler
hot loop.  Nothing is ever recorded until :func:`configure` switches the
mode on, so importing this package has no observable effect.

Boundary events (a batch flush, a model swap, an admission transition)
go through :func:`event`: it increments the counter of that name and
feeds the same name, with its fields, to the process flight ring
:data:`flight` — a bounded post-mortem sink that is enabled on its own
(``repro serve --flight-events``), independent of the mode.  One call
per boundary, so a ``flight.json`` dump and a ``/metrics`` scrape
always agree on names.

Cross-process aggregation: :func:`repro.parallel.run_tasks` snapshots
each worker's registry per task and the parent folds the snapshots back
in with :func:`merge_snapshot` — counters add, gauges last-write-wins,
histograms merge bucket-wise.  For deterministic workloads the merged
numbers equal a sequential run's exactly (pinned by test).

Layering: this package sits at the bottom of the layer graph beside
``errors``/``registry`` (enforced by ``tools/check_layering.py``), so
every other layer may instrument itself without import cycles.
"""

from __future__ import annotations

from repro.errors import TelemetryError
from repro.telemetry import slo
from repro.telemetry.export import (
    chrome_trace,
    prometheus_sample,
    prometheus_text,
    sim_events_to_chrome,
    spans_jsonl,
    write_json,
)
from repro.telemetry.flightrec import FlightRecorder
from repro.telemetry.metrics import (
    LATENCY_BUCKETS_S,
    NULL_METRIC,
    SIZE_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetric,
)
from repro.telemetry.report import format_slo_table, render_run_report
from repro.telemetry.spans import SpanRecord, Tracer, new_trace_id

__all__ = [
    "MODES",
    "configure",
    "mode",
    "metrics_enabled",
    "tracing_enabled",
    "span",
    "start_span",
    "trace_context",
    "current_trace",
    "new_trace_id",
    "adopt_spans",
    "counter",
    "gauge",
    "histogram",
    "event",
    "flight",
    "snapshot",
    "merge_snapshot",
    "spans",
    "reset",
    "chrome_trace",
    "spans_jsonl",
    "write_json",
    "sim_events_to_chrome",
    "prometheus_text",
    "prometheus_sample",
    "render_run_report",
    "format_slo_table",
    "slo",
    "FlightRecorder",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetric",
    "NULL_METRIC",
    "SpanRecord",
    "Tracer",
    "TelemetryError",
    "LATENCY_BUCKETS_S",
    "SIZE_BUCKETS",
]

#: Valid telemetry modes, in increasing order of detail.
MODES: tuple[str, ...] = ("off", "metrics", "trace")

_MODE: str = "off"
_REGISTRY = MetricsRegistry()
_TRACER = Tracer(enabled=False)

#: The process flight ring :func:`event` feeds (disabled by default).
flight = FlightRecorder()


def configure(mode: str | None) -> None:
    """Set the global telemetry mode (``None`` means ``"off"``)."""
    global _MODE
    mode = mode or "off"
    if mode not in MODES:
        raise TelemetryError(
            f"unknown telemetry mode {mode!r} (choose from "
            f"{', '.join(MODES)})"
        )
    _MODE = mode
    _TRACER.enabled = mode == "trace"


def mode() -> str:
    """The current telemetry mode."""
    return _MODE


def metrics_enabled() -> bool:
    """True when the metrics registry is recording (metrics or trace)."""
    return _MODE != "off"


def tracing_enabled() -> bool:
    """True when the span tracer is recording (trace only)."""
    return _MODE == "trace"


# ----------------------------------------------------------------------
# Accessors.  These are THE instrumentation API: call sites never touch
# the registry/tracer objects directly, so disabled mode costs only the
# mode branch here.

def span(name: str, **attrs):
    """A span handle (context manager / decorator) for a traced region."""
    return _TRACER.span(name, **attrs)


def start_span(name: str, *, trace_id: str | None = None,
               parent_id: int | None = None, **attrs):
    """An explicitly-parented span for async request scopes.

    Unlike :func:`span`, parentage is wired by the caller (not the
    thread-local stack) and the span is finished with ``end()`` — the
    right tool when many requests interleave on one event-loop thread.
    Returns a shared no-op handle (``span_id`` is ``None``) while
    tracing is disabled.
    """
    return _TRACER.start_span(name, trace_id=trace_id,
                              parent_id=parent_id, **attrs)


def trace_context(trace_id: str | None = None,
                  parent_span_id: int | None = None):
    """Context manager stamping this thread's root spans with a trace.

    Survives :func:`reset` — a worker process installs its parent's
    trace context once and every span tree it records afterwards
    (including after mode switches) lands in the parent's trace.
    """
    return _TRACER.context(trace_id, parent_span_id)


def current_trace() -> tuple[str | None, int | None]:
    """The ``(trace_id, parent_span_id)`` a child spawned now inherits."""
    return _TRACER.current_context()


def adopt_spans(records, parent_id: int | None = None,
                trace_id: str | None = None) -> int:
    """Graft worker-process span records into the global tracer.

    Remaps span ids to this tracer's id space and attaches the worker's
    root spans under *parent_id* (see :meth:`Tracer.adopt`)."""
    return _TRACER.adopt(records, parent_id=parent_id, trace_id=trace_id)


def counter(name: str):
    """The named counter, or the shared no-op metric when disabled."""
    if _MODE == "off":
        return NULL_METRIC
    return _REGISTRY.counter(name)


def gauge(name: str):
    """The named gauge, or the shared no-op metric when disabled."""
    if _MODE == "off":
        return NULL_METRIC
    return _REGISTRY.gauge(name)


def histogram(name: str, buckets: tuple[float, ...] = LATENCY_BUCKETS_S):
    """The named histogram, or the shared no-op metric when disabled."""
    if _MODE == "off":
        return NULL_METRIC
    return _REGISTRY.histogram(name, buckets)


def event(name: str, **fields) -> None:
    """One boundary event: counter *name* +1 when metrics are on, and
    ``(ts, name, fields)`` appended to :data:`flight` when the ring is
    enabled.  With both off it is one mode check and one branch."""
    if _MODE != "off":
        _REGISTRY.counter(name).inc()
    if flight.enabled:
        flight.record(name, **fields)


# ----------------------------------------------------------------------
# Collection plumbing (used by the CLI spine and the parallel executor).

def snapshot() -> dict:
    """JSON-ready snapshot of the global metrics registry."""
    return _REGISTRY.snapshot()


def merge_snapshot(state: dict) -> None:
    """Fold a worker-process snapshot into the global registry."""
    _REGISTRY.merge_snapshot(state)


def spans() -> list[SpanRecord]:
    """All finished spans collected by the global tracer."""
    return _TRACER.spans()


def reset() -> None:
    """Clear all collected metrics, spans and flight events (mode and
    whether the ring records are unchanged)."""
    _REGISTRY.reset()
    _TRACER.reset()
    flight.clear()
