"""The high-throughput extraction service (serving layer).

The paper's Section 3.5 repository is "to be used by external agents,
for instance by the XML extractor".  This package is that external
agent at production scale: a validated :class:`~repro.core.repository.
RuleRepository` is treated as a *deployable artifact* — compiled once
(:mod:`repro.service.compiler`), routed to automatically
(:mod:`repro.service.router`), executed over large page streams by one
shared streaming pipeline (:mod:`repro.service.runtime`) and drained
into incremental sinks (:mod:`repro.service.sink`) so million-page
runs never hold all results in memory.

Offline (interactive, Figure 1)          Online (this package)
---------------------------------        -------------------------------
cluster pages, build + validate rules    load repository -> compile wrappers
record rules in the repository           fit router on exemplar pages
                                         route -> extract -> sink, streaming

Every entry point is a composition over the same
:class:`~repro.service.runtime.StreamingRuntime`:

* batch — a runtime with an inline or process executor over a
  directory stream;
* sharded batch (:mod:`repro.service.shard`) — a plan slice per host,
  merged back into the unsharded byte stream, resumable per shard;
* online serving (:mod:`repro.service.serve`) — single pages through
  the runtime's ``process_page``, under the stdin loop or the HTTP
  ingress (:mod:`repro.service.http`), both sharing one
  :class:`~repro.service.serve.ServeHandler` and
  :class:`~repro.service.serve.ServePolicy`; a pre-fork fleet
  (:mod:`repro.service.supervisor`) runs that one HTTP server in every
  worker and on its own port;
* online adaptation (:mod:`repro.service.adapt`) — sliding-window
  drift detection over the served stream, answered by incremental
  router refits (recomputed centroids, atomic swap) with an auditable
  event log;
* versioned deployment (:mod:`repro.service.registry`) — rule-sets
  and router profile-sets persisted as immutable content-hashed
  versions, refit candidates shadow-routed by a canary controller and
  promoted (new pinned version) or rolled back with a logged reason;
* observability and admission (:mod:`repro.service.metrics`) — a
  dependency-free Prometheus-exposition metrics registry every layer
  reports into, token-bucket rate limiting and load shedding on the
  serving entry points, JSONL progress events and cooperative
  cancellation for long batch/shard runs.
"""

from repro._exports import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "adapt": (
        "AdaptationLog",
        "AdaptiveRouter",
        "DriftEvent",
        "DriftMonitor",
        "RefitEvent",
        "make_adapter",
    ),
    "automaton": (
        "AutomatonStats",
        "ExtractionAutomaton",
        "automaton_steps",
    ),
    "compiler": (
        "CompiledRule",
        "CompiledWrapper",
        "CompilerStats",
        "compile_wrapper",
    ),
    "router": (
        "ClusterProfile",
        "ClusterRouter",
        "RouteDecision",
        "UNROUTABLE",
    ),
    "runtime": (
        "ClusterStats",
        "IterablePageSource",
        "LoadingPageSource",
        "PageSource",
        "RuntimeReport",
        "StreamingRuntime",
    ),
    "http": ("HttpFrontEnd", "HttpStats"),
    "metrics": (
        "AdmissionController",
        "AdmissionDecision",
        "CancellationToken",
        "METRIC_SPECS",
        "MetricSpec",
        "MetricsRegistry",
        "NULL_METRICS",
        "NullMetricsRegistry",
        "ProgressEmitter",
        "TokenBucket",
        "default_registry",
        "merge_expositions",
        "parse_exposition",
        "render_metrics_table",
    ),
    "registry": (
        "ArtifactRegistry",
        "CanaryController",
        "PromoteEvent",
        "RollbackEvent",
        "ShadowEvent",
        "VersionManifest",
        "canonical_json",
        "content_hash",
        "version_id",
        "wrapper_extractor",
    ),
    "serve": (
        "ServeHandler",
        "ServePolicy",
        "ServeStats",
        "serve_lines",
    ),
    "shard": (
        "MergeReport",
        "ShardManifest",
        "ShardMerger",
        "ShardPlan",
        "ShardPlanner",
        "ShardStatus",
        "ShardWorker",
        "XmlShardMerger",
        "incomplete_shards",
        "shard_statuses",
        "stable_shard",
    ),
    "supervisor": (
        "GatewayError",
        "ServeSupervisor",
        "SliceCheckpoint",
        "SupervisorStats",
        "restart_backoff",
        "slice_body",
    ),
    "sink": (
        "CollectingSink",
        "JsonlSink",
        "NullSink",
        "PageRecord",
        "ResultSink",
        "XmlDirectorySink",
        "make_error_record",
        "make_unroutable_record",
    ),
})

__all__ = [
    "AdaptationLog",
    "AdaptiveRouter",
    "AdmissionController",
    "AdmissionDecision",
    "ArtifactRegistry",
    "AutomatonStats",
    "CanaryController",
    "CancellationToken",
    "ClusterProfile",
    "DriftEvent",
    "DriftMonitor",
    "RefitEvent",
    "ClusterRouter",
    "ClusterStats",
    "CollectingSink",
    "CompiledRule",
    "CompiledWrapper",
    "CompilerStats",
    "ExtractionAutomaton",
    "GatewayError",
    "HttpFrontEnd",
    "HttpStats",
    "METRIC_SPECS",
    "MetricSpec",
    "MetricsRegistry",
    "NULL_METRICS",
    "NullMetricsRegistry",
    "ProgressEmitter",
    "TokenBucket",
    "IterablePageSource",
    "JsonlSink",
    "LoadingPageSource",
    "MergeReport",
    "NullSink",
    "PageRecord",
    "PageSource",
    "PromoteEvent",
    "ResultSink",
    "RollbackEvent",
    "RouteDecision",
    "RuntimeReport",
    "ServeHandler",
    "ServePolicy",
    "ServeStats",
    "ServeSupervisor",
    "ShadowEvent",
    "ShardManifest",
    "ShardMerger",
    "ShardPlan",
    "ShardPlanner",
    "ShardStatus",
    "ShardWorker",
    "SliceCheckpoint",
    "StreamingRuntime",
    "SupervisorStats",
    "UNROUTABLE",
    "VersionManifest",
    "XmlDirectorySink",
    "XmlShardMerger",
    "automaton_steps",
    "canonical_json",
    "compile_wrapper",
    "content_hash",
    "default_registry",
    "incomplete_shards",
    "make_adapter",
    "make_error_record",
    "make_unroutable_record",
    "merge_expositions",
    "parse_exposition",
    "render_metrics_table",
    "restart_backoff",
    "serve_lines",
    "shard_statuses",
    "slice_body",
    "stable_shard",
    "version_id",
    "wrapper_extractor",
]
