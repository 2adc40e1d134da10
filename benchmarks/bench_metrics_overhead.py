"""Metrics instrumentation overhead — the observability tax on serve.

Runs the same serve-handler loop twice over an identical corpus: once
with a real :class:`~repro.service.metrics.MetricsRegistry` (what
``serve --http`` registers into and ``GET /metrics`` renders) and once
with :data:`~repro.service.metrics.NULL_METRICS` (every instrument a
no-op).  The handler path touches every chokepoint the registry
instruments — request timer, outcome counter, routing and extraction
series — so the ratio is the all-in cost of observability.

Acceptance bar (failing the run — this file is CI's regression gate
for the metrics layer): instrumented throughput must stay at least
:data:`MIN_INSTRUMENTED_RATIO` of the uninstrumented loop.  Each page
is served by both handlers back to back, and over every pair of
passes each side goes first once per page, so a host whose speed
drifts within seconds slows both sides alike; each side's time is its
pages' median passes, summed, so a stall that lands on one pass of one
page is left out instead of charged to one side.  Results merge into
the ``$BENCH_RESULTS`` JSON artifact next to the other service
measurements.
"""

import json
import statistics
import time

from repro.core.builder import MappingRuleBuilder
from repro.core.oracle import ScriptedOracle
from repro.core.repository import RuleRepository
from repro.service.metrics import NULL_METRICS, MetricsRegistry
from repro.service.serve import ServeHandler
from repro.sites.imdb import generate_imdb_site

from conftest import emit, write_results

#: Pages served per measured pass.
SERVE_PAGES = 80

#: Measurement rounds; each is two passes, one with either side first.
ROUNDS = 5

#: Regression floor: instrumented serve must sustain at least this
#: fraction of the uninstrumented loop's throughput.
MIN_INSTRUMENTED_RATIO = 0.95


def _corpus() -> tuple[RuleRepository, list[str]]:
    site = generate_imdb_site(n_movies=120, n_actors=30, seed=17)
    movies = site.pages_with_hint("imdb-movies")
    repository = RuleRepository()
    MappingRuleBuilder(
        movies[:8], ScriptedOracle(), repository=repository,
        cluster_name="imdb-movies", seed=1,
    ).build_all(["title", "rating", "genres"])
    lines = [
        json.dumps({"url": page.url, "html": page.html})
        for page in movies[:SERVE_PAGES]
    ]
    return repository, lines


def _serve_seconds(handler: ServeHandler, line: str) -> float:
    started = time.perf_counter()
    _, ok = handler.handle_line(line)
    elapsed = time.perf_counter() - started
    assert ok
    return elapsed


def test_metrics_overhead(benchmark):
    repository, lines = _corpus()
    instrumented = ServeHandler(
        repository, cluster="imdb-movies", metrics=MetricsRegistry(),
    )
    bare = ServeHandler(
        repository, cluster="imdb-movies", metrics=NULL_METRICS,
    )

    # Warm both paths (parse caches, compiled wrappers) off the clock.
    for line in lines:
        _serve_seconds(bare, line)
        _serve_seconds(instrumented, line)

    def paired_passes() -> tuple[float, float]:
        """Bare and instrumented seconds per pass: page medians, summed.

        Pass ``p`` serves page ``i`` bare-first when ``p + i`` is even,
        so across a round's two passes each side leads once per page.
        """
        seconds = {side: [[] for _ in lines] for side in (bare, instrumented)}
        for pass_index in range(2 * ROUNDS):
            for index, line in enumerate(lines):
                pair = [bare, instrumented]
                if (pass_index + index) % 2:
                    pair.reverse()
                for handler in pair:
                    seconds[handler][index].append(
                        _serve_seconds(handler, line)
                    )
        return (
            sum(map(statistics.median, seconds[bare])),
            sum(map(statistics.median, seconds[instrumented])),
        )

    bare_seconds, instrumented_seconds = benchmark.pedantic(
        paired_passes, rounds=1, iterations=1,
    )

    total = len(lines)
    ratio = bare_seconds / instrumented_seconds
    emit(
        "Metrics instrumentation overhead (pages/second)",
        "\n".join([
            f"uninstrumented (NULL_METRICS): {total / bare_seconds:8.1f}",
            f"instrumented (MetricsRegistry): {total / instrumented_seconds:8.1f}",
            f"instrumented/uninstrumented ratio: {ratio:5.3f}"
            f"  (floor {MIN_INSTRUMENTED_RATIO})",
        ]),
    )
    write_results({
        "metrics_overhead": {
            "pages": total,
            "uninstrumented_pps": round(total / bare_seconds, 1),
            "instrumented_pps": round(total / instrumented_seconds, 1),
            "ratio": round(ratio, 4),
            "floor": MIN_INSTRUMENTED_RATIO,
        }
    })
    assert ratio >= MIN_INSTRUMENTED_RATIO, (
        f"metrics overhead regression: instrumented serve at "
        f"{ratio:.3f}x of the uninstrumented loop "
        f"(floor {MIN_INSTRUMENTED_RATIO})"
    )
