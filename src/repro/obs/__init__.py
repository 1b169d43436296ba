"""Observability: tracing, metrics, run manifests (``docs/observability.md``).

``repro.obs`` is the dependency-free instrumentation layer threaded through
the IBS engines, the remedy loop, the ML trainers, the audit miner, and the
fault-tolerant executor.  Library code calls the ambient helpers
(:func:`span` / :func:`count` / :func:`event`), which are no-ops unless a
:class:`Tracer` has been installed with :func:`tracing` — the CLI does this
for ``repro <cmd> --trace out.jsonl``, and ``repro trace summarize`` renders
the result.
"""

from repro.obs.manifest import (
    RunManifest,
    build_manifest,
    collect_versions,
    manifest_from_dict,
    manifest_path_for,
    read_manifest,
    write_manifest,
)
from repro.obs.summary import (
    Trace,
    metrics_table,
    read_trace,
    span_tree,
    summarize,
    top_spans,
)
from repro.obs.trace import (
    Counter,
    EventRecord,
    Gauge,
    SpanHandle,
    SpanRecord,
    Tracer,
    count,
    current_tracer,
    event,
    gauge_set,
    span,
    tracing,
)

__all__ = [
    "Counter",
    "EventRecord",
    "Gauge",
    "RunManifest",
    "SpanHandle",
    "SpanRecord",
    "Trace",
    "Tracer",
    "build_manifest",
    "collect_versions",
    "count",
    "current_tracer",
    "event",
    "gauge_set",
    "manifest_from_dict",
    "manifest_path_for",
    "metrics_table",
    "read_manifest",
    "read_trace",
    "span",
    "span_tree",
    "summarize",
    "top_spans",
    "tracing",
    "write_manifest",
]
