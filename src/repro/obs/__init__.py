"""Observability for the prover stack and runtime: counters, spans,
hierarchical traces, metrics, and a flight-recorder event log.

The prover, tactics, solver and symbolic evaluator report events here —
solver entailment calls, enumerated symbolic paths, proof-store hits and
misses, syntactic-skip rates — the engine wraps each pipeline stage
(plan / search / check) in a timed span, and the runtime's supervisor,
monitor and fault injector append structured events.  Everything is a
no-op unless a :class:`Telemetry` sink is installed with :func:`use`, so
the default verification path pays only a module-global ``None`` check
per event; tracing, metrics and the event log are additionally off
unless the sink enables them.

Typical use::

    from repro import obs

    with obs.use(obs.Telemetry()) as telemetry:
        verifier.verify_all()
    print(telemetry.render())

A fully instrumented run enables the subsystems explicitly::

    sink = obs.Telemetry(trace=True, metrics=True, events=True)
    with obs.use(sink):
        verifier.verify_all()
    obs.export.write_chrome_trace("t.json", sink.to_dict())

A sink's :meth:`Telemetry.export` snapshot folds into another sink with
:meth:`Telemetry.merge_export` (the serve daemon folds each submission's
sink into its own this way; the legacy ``counters``/``spans`` pair via
:meth:`Telemetry.merge` still works).  See ``docs/observability.md``
for the architecture, the event schema, and the ``repro report``
walkthrough.
"""

from . import export
from .events import Event, EventLog, read_jsonl
from .metrics import Histogram, MetricsRegistry
from .timeseries import Sampler, TimeSeries, Window, registry_snapshot
from .telemetry import (
    Span,
    Telemetry,
    active,
    event,
    flush_events,
    gauge,
    incr,
    metrics_active,
    observe,
    span,
    use,
)
from .trace import Tracer, TraceSpan, new_run_id

__all__ = [
    "Event",
    "EventLog",
    "Histogram",
    "MetricsRegistry",
    "Sampler",
    "Span",
    "Telemetry",
    "TimeSeries",
    "TraceSpan",
    "Tracer",
    "Window",
    "active",
    "event",
    "export",
    "flush_events",
    "gauge",
    "incr",
    "metrics_active",
    "new_run_id",
    "observe",
    "read_jsonl",
    "registry_snapshot",
    "span",
    "use",
]
