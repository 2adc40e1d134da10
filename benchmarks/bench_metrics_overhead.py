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
:data:`MIN_INSTRUMENTED_RATIO` of the uninstrumented loop.  Rounds
alternate A/B so thermal drift cancels, and the best round on each
side is compared.  Results merge into the ``$BENCH_RESULTS`` JSON
artifact next to the other service measurements.
"""

import json
import time

from repro.core.builder import MappingRuleBuilder
from repro.core.oracle import ScriptedOracle
from repro.core.repository import RuleRepository
from repro.service.metrics import NULL_METRICS, MetricsRegistry
from repro.service.serve import ServeHandler
from repro.sites.imdb import generate_imdb_site

from conftest import emit, write_results

#: Pages served per measured round.
SERVE_PAGES = 80

#: Alternating measurement rounds per side (best round wins).
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


def _round_seconds(handler: ServeHandler, lines: list[str]) -> float:
    started = time.perf_counter()
    served = 0
    for line in lines:
        _, ok = handler.handle_line(line)
        served += ok
    elapsed = time.perf_counter() - started
    assert served == len(lines)
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
    _round_seconds(bare, lines)
    _round_seconds(instrumented, lines)

    def alternating_rounds() -> tuple[float, float]:
        """Best bare and best instrumented round, interleaved A/B.

        Each round runs both sides back to back and swaps which side
        goes first, so drift over the measurement hits both equally.
        """
        bare_rounds: list[float] = []
        instrumented_rounds: list[float] = []
        for round_index in range(ROUNDS):
            sides = [
                (bare, bare_rounds), (instrumented, instrumented_rounds)
            ]
            if round_index % 2:
                sides.reverse()
            for handler, rounds in sides:
                rounds.append(_round_seconds(handler, lines))
        return min(bare_rounds), min(instrumented_rounds)

    bare_best, instrumented_best = benchmark.pedantic(
        alternating_rounds, rounds=1, iterations=1,
    )

    total = len(lines)
    ratio = bare_best / instrumented_best
    emit(
        "Metrics instrumentation overhead (pages/second)",
        "\n".join([
            f"uninstrumented (NULL_METRICS): {total / bare_best:8.1f}",
            f"instrumented (MetricsRegistry): {total / instrumented_best:8.1f}",
            f"instrumented/uninstrumented ratio: {ratio:5.3f}"
            f"  (floor {MIN_INSTRUMENTED_RATIO})",
        ]),
    )
    write_results({
        "metrics_overhead": {
            "pages": total,
            "uninstrumented_pps": round(total / bare_best, 1),
            "instrumented_pps": round(total / instrumented_best, 1),
            "ratio": round(ratio, 4),
            "floor": MIN_INSTRUMENTED_RATIO,
        }
    })
    assert ratio >= MIN_INSTRUMENTED_RATIO, (
        f"metrics overhead regression: instrumented serve at "
        f"{ratio:.3f}x of the uninstrumented loop "
        f"(floor {MIN_INSTRUMENTED_RATIO})"
    )
