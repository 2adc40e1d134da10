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

* batch — a runtime with a thread or process executor over a
  directory stream;
* sharded batch (:mod:`repro.service.shard`) — a plan slice per host,
  merged back into the unsharded byte stream, resumable per shard;
* online serving (:mod:`repro.service.serve`) — single pages through
  an inline runtime, under the asyncio stdin front-end or the HTTP
  ingress (:mod:`repro.service.http`), both sharing one
  :class:`~repro.service.serve.ServeHandler` and
  :class:`~repro.service.serve.ServePolicy`;
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

from repro.service.adapt import (
    AdaptationLog,
    AdaptiveRouter,
    AdaptiveRouterStage,
    DriftEvent,
    DriftMonitor,
    RefitEvent,
    make_adapter,
)
from repro.service.automaton import (
    AutomatonStats,
    ExtractionAutomaton,
    automaton_steps,
)
from repro.service.compiler import (
    CompiledRule,
    CompiledWrapper,
    CompilerStats,
    compile_wrapper,
)
from repro.service.router import ClusterProfile, ClusterRouter, RouteDecision, UNROUTABLE
from repro.service.runtime import (
    ClusterStats,
    IterablePageSource,
    LoadingPageSource,
    OrderedEmitter,
    PageSource,
    RecordSink,
    RuntimeReport,
    Stage,
    StreamingRuntime,
)
from repro.service.http import HttpFrontEnd, HttpStats
from repro.service.metrics import (
    AdmissionController,
    AdmissionDecision,
    CancellationToken,
    METRIC_SPECS,
    MetricSpec,
    MetricsRegistry,
    NULL_METRICS,
    NullMetricsRegistry,
    ProgressEmitter,
    TokenBucket,
    default_registry,
    merge_expositions,
    parse_exposition,
    render_metrics_table,
)
from repro.service.registry import (
    ArtifactRegistry,
    CanaryController,
    PromoteEvent,
    RollbackEvent,
    ShadowEvent,
    VersionManifest,
    canonical_json,
    content_hash,
    version_id,
    wrapper_extractor,
)
from repro.service.serve import (
    AsyncLinePipeline,
    ServeHandler,
    ServePolicy,
    ServeStats,
    serve_async,
)
from repro.service.shard import (
    MergeReport,
    ShardManifest,
    ShardMerger,
    ShardPlan,
    ShardPlanner,
    ShardStatus,
    ShardWorker,
    SliceCheckpoint,
    XmlShardMerger,
    incomplete_shards,
    shard_statuses,
    stable_shard,
)
from repro.service.supervisor import (
    GatewayError,
    ServeSupervisor,
    SupervisorStats,
    restart_backoff,
    reuseport_available,
    slice_body,
)
from repro.service.transport import SharedMemoryPageTransport, StagedChunk
from repro.service.sink import (
    CollectingSink,
    JsonlSink,
    NullSink,
    PageRecord,
    ResultSink,
    XmlDirectorySink,
    make_error_record,
    make_unroutable_record,
)

__all__ = [
    "AdaptationLog",
    "AdaptiveRouter",
    "AdaptiveRouterStage",
    "AdmissionController",
    "AdmissionDecision",
    "ArtifactRegistry",
    "AsyncLinePipeline",
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
    "OrderedEmitter",
    "PageRecord",
    "PageSource",
    "PromoteEvent",
    "RecordSink",
    "ResultSink",
    "RollbackEvent",
    "RouteDecision",
    "RuntimeReport",
    "ServeHandler",
    "ServePolicy",
    "ServeStats",
    "ServeSupervisor",
    "ShadowEvent",
    "SharedMemoryPageTransport",
    "ShardManifest",
    "ShardMerger",
    "ShardPlan",
    "ShardPlanner",
    "ShardStatus",
    "ShardWorker",
    "SliceCheckpoint",
    "Stage",
    "StagedChunk",
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
    "reuseport_available",
    "serve_async",
    "shard_statuses",
    "slice_body",
    "stable_shard",
    "version_id",
    "wrapper_extractor",
]
