"""Canary rollout under drift — promote latency, recovery, overhead.

The registry/canary acceptance scenario, scripted end to end over the
depth drift corpus (``bench_adaptive_drift``'s template-edit class):

1. a repository + router fitted on depth-1 exemplars is published to a
   fresh :class:`~repro.service.registry.store.ArtifactRegistry` and
   pinned (the baseline version);
2. the served stream mutates to depth-3; the adaptive router detects
   drift and refits, but with a deployer attached the refit product is
   **staged as a shadow candidate**, not installed;
3. the :class:`~repro.service.registry.canary.CanaryController`
   shadow-routes a fraction of traffic, compares outcomes over its
   window, and **promotes** the candidate — a new pinned version whose
   manifest records the parent and the triggering drift event;
4. ``registry rollback`` (here via the API) restores the prior pin.

Two replays over the identical stream quantify the rollout:

* **adapt-only** — the adaptive router installs refits directly (the
  ``--adapt`` baseline);
* **canary** — the same stream with shadowing + promotion in the path.

Gates (merged into the CI benchmark artifact like the other service
benches):

* at least one promotion, zero rollbacks;
* the routed fraction over the post-promote tail recovers to at least
  :data:`MIN_RECOVERY` of the pre-drift level (promotion must not cost
  recovery versus installing refits directly);
* shadow work is bounded: the canary's dry-run extractions stay under
  :data:`MAX_SHADOW_OVERHEAD` of the stream (a deterministic counter,
  not a wall-clock race); wall time of both replays is reported.
"""

import io
import json
import time

from repro.core.builder import MappingRuleBuilder
from repro.core.oracle import ScriptedOracle
from repro.core.repository import RuleRepository
from repro.service.adapt import make_adapter
from repro.service.registry import (
    ArtifactRegistry,
    CanaryController,
    wrapper_extractor,
)
from repro.service.router import UNROUTABLE, ClusterRouter
from repro.service.serve import ServeHandler, serve_lines
from repro.sites.variation import DEPTH_COMPONENTS, generate_depth_cluster

from conftest import emit, write_results

#: Pages rendered from the fitted template (first) and the drifted one.
PRE_DRIFT_PAGES = 150
POST_DRIFT_PAGES = 150

#: Exemplars the rules and router are fitted from.
EXEMPLARS = 8

#: Routing confidence threshold (see bench_adaptive_drift).
THRESHOLD = 0.8

#: Drift-detection window of both adaptive replays.
DRIFT_WINDOW = 32

#: Canary knobs: half the served pages shadow-routed, verdict after 16
#: paired samples — promotion lands well inside the drifted half.
CANARY_FRACTION = 0.5
CANARY_WINDOW = 16

#: Post-promote tail the recovery gate measures (the stream's last
#: pages, long after the first promotion at ~2x the canary window).
TAIL_PAGES = 50

#: Recovery floor: tail routed fraction vs the pre-drift level.
MIN_RECOVERY = 0.9

#: Shadow-work ceiling: candidate dry-run extractions per served page.
MAX_SHADOW_OVERHEAD = 0.10


def _corpus():
    fitted = generate_depth_cluster(
        1, n_pages=PRE_DRIFT_PAGES + EXEMPLARS, seed=3
    )
    drifted = generate_depth_cluster(3, n_pages=POST_DRIFT_PAGES, seed=4)
    repository = RuleRepository()
    report = MappingRuleBuilder(
        fitted[:EXEMPLARS], ScriptedOracle(), repository=repository,
        cluster_name="depth-1", seed=1,
    ).build_all(list(DEPTH_COMPONENTS))
    assert report.failed_components == []
    return repository, fitted[:EXEMPLARS], fitted[EXEMPLARS:] + drifted


def _fit_router(exemplars) -> ClusterRouter:
    return ClusterRouter.fit({"depth-1": exemplars}, threshold=THRESHOLD)


def _serve(handler, pages):
    text = "".join(
        json.dumps({"url": page.url, "html": page.html}) + "\n"
        for page in pages
    )
    stdout = io.StringIO()
    started = time.perf_counter()
    stats = serve_lines(handler, io.StringIO(text), stdout)
    elapsed = time.perf_counter() - started
    outputs = [
        json.loads(line) for line in stdout.getvalue().strip().splitlines()
    ]
    return stats, outputs, elapsed


def _routed_fraction(outputs) -> float:
    if not outputs:
        return 0.0
    unroutable = sum(
        1 for output in outputs if output.get("cluster") == UNROUTABLE
    )
    return 1.0 - unroutable / len(outputs)


def _replay(registry_root):
    repository, exemplars, stream = _corpus()

    # Baseline: refits install directly (serve --adapt, no canary).
    adapt_only = make_adapter(_fit_router(exemplars), window=DRIFT_WINDOW)
    adapt_handler = ServeHandler(repository, adapter=adapt_only)
    adapt_stats, adapt_outputs, adapt_seconds = _serve(adapt_handler, stream)

    # The rollout: refit products stage as shadows and must win promotion.
    registry = ArtifactRegistry(registry_root)
    adapter = make_adapter(_fit_router(exemplars), window=DRIFT_WINDOW)
    handler = ServeHandler(repository, adapter=adapter)
    deployer = CanaryController(
        adapter.router, repository, registry=registry,
        fraction=CANARY_FRACTION, window=CANARY_WINDOW,
        extract=wrapper_extractor(handler.runtime), log=adapter.log,
    )
    baseline = deployer.ensure_baseline()
    adapter.deployer = deployer
    canary_stats, canary_outputs, canary_seconds = _serve(handler, stream)

    return {
        "stream_pages": len(stream),
        "adapt_stats": adapt_stats,
        "adapt_outputs": adapt_outputs,
        "adapt_seconds": adapt_seconds,
        "canary_stats": canary_stats,
        "canary_outputs": canary_outputs,
        "canary_seconds": canary_seconds,
        "registry": registry,
        "deployer": deployer,
        "baseline": baseline,
        "events": [event["event"] for event in adapter.log.events],
    }


def test_registry_canary_rollout(benchmark, tmp_path):
    result = benchmark.pedantic(
        lambda: _replay(tmp_path / "registry"), rounds=1, iterations=1
    )
    registry = result["registry"]
    deployer = result["deployer"]
    stream_pages = result["stream_pages"]

    pre_drift = _routed_fraction(result["canary_outputs"][:PRE_DRIFT_PAGES])
    adapt_tail = _routed_fraction(result["adapt_outputs"][-TAIL_PAGES:])
    canary_tail = _routed_fraction(result["canary_outputs"][-TAIL_PAGES:])
    recovery = canary_tail / pre_drift if pre_drift else 0.0
    shadow_overhead = deployer.shadow_extractions / stream_pages
    promoted = registry.pinned()

    emit(
        "Canary rollout - drift -> refit -> shadow -> promote",
        "\n".join([
            f"pages: {PRE_DRIFT_PAGES} fitted template + "
            f"{POST_DRIFT_PAGES} drifted, canary fraction "
            f"{CANARY_FRACTION}, window {CANARY_WINDOW}",
            f"pre-drift routed      : {pre_drift:9.3f}",
            f"tail routed, adapt    : {adapt_tail:9.3f}"
            f"  ({result['adapt_stats'].refits} refit(s), "
            f"{result['adapt_seconds']:.2f}s)",
            f"tail routed, canary   : {canary_tail:9.3f}"
            f"  ({deployer.promotions} promotion(s), "
            f"{deployer.rollbacks} rollback(s), "
            f"{result['canary_seconds']:.2f}s)",
            f"recovery vs pre-drift : {recovery:9.2f}x "
            f"(floor {MIN_RECOVERY})",
            f"shadow work           : {deployer.shadow_pages} page(s) "
            f"shadow-routed, {deployer.shadow_extractions} dry-run "
            f"extraction(s) = {shadow_overhead:.3f}/page "
            f"(ceiling {MAX_SHADOW_OVERHEAD})",
            f"registry              : baseline "
            f"{result['baseline'].version} -> pinned {promoted}",
        ]),
    )
    results_path = write_results({
        "registry_rollout": {
            "pre_drift_pages": PRE_DRIFT_PAGES,
            "post_drift_pages": POST_DRIFT_PAGES,
            "canary_fraction": CANARY_FRACTION,
            "canary_window": CANARY_WINDOW,
            "routed_fraction": {
                "pre_drift": pre_drift,
                "adapt_tail": adapt_tail,
                "canary_tail": canary_tail,
            },
            "recovery_ratio": recovery,
            "min_recovery": MIN_RECOVERY,
            "promotions": deployer.promotions,
            "rollbacks": deployer.rollbacks,
            "shadow_pages": deployer.shadow_pages,
            "shadow_extractions": deployer.shadow_extractions,
            "shadow_overhead_per_page": shadow_overhead,
            "max_shadow_overhead": MAX_SHADOW_OVERHEAD,
            "wall_seconds": {
                "adapt_only": result["adapt_seconds"],
                "canary": result["canary_seconds"],
            },
            "baseline_version": result["baseline"].version,
            "promoted_version": promoted,
        },
    })
    print(f"results written to {results_path}")

    # The lifecycle actually ran: drift tripped a refit, the refit was
    # staged (not installed), and the shadow won its comparison.
    assert result["canary_stats"].drift_events >= 1
    assert deployer.promotions >= 1
    assert deployer.rollbacks == 0
    first_promote = result["events"].index("promote")
    assert result["events"].index("drift") < result["events"].index(
        "refit"
    ) < result["events"].index("shadow") < first_promote
    # Promotion moved the pin to a refit child of the baseline.
    assert promoted != result["baseline"].version
    manifest = registry.manifest(promoted)
    assert manifest.source == "refit"
    assert manifest.trigger is not None

    # Gate 1: rolling out through the canary must not cost recovery —
    # the post-promote tail reaches MIN_RECOVERY of the pre-drift level.
    assert recovery >= MIN_RECOVERY, (
        f"canary rollout recovered only {recovery:.2f}x of the "
        f"pre-drift routed fraction (floor: {MIN_RECOVERY})"
    )
    # Gate 2: shadow work is bounded by a deterministic counter.
    assert shadow_overhead <= MAX_SHADOW_OVERHEAD, (
        f"{deployer.shadow_extractions} dry-run extraction(s) over "
        f"{stream_pages} page(s) exceeds the "
        f"{MAX_SHADOW_OVERHEAD:.0%} shadow-overhead ceiling"
    )

    # And the one-command escape hatch: rollback restores the parent.
    restored = registry.rollback()
    assert restored.version == manifest.parent
    assert registry.pinned() == manifest.parent
