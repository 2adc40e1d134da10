"""Service throughput — the batch runtime vs. the sequential baseline.

Measures pages/second over a two-cluster synthetic site for:

* the sequential :class:`ExtractionProcessor` (the Figure-1 baseline,
  re-walking rule locations page by page);
* one compiled wrapper on one thread (isolates the compilation win:
  pre-parsed ASTs + the single-pass automaton);
* a one-worker :class:`StreamingRuntime` over an
  :class:`IterablePageSource` — the inline runtime ``batch --workers 1``
  runs, chunking, outcome step and sink included.

Pages are pre-parsed once so the runtime variant measures pure
extraction machinery (a process pool would re-parse every page in its
workers).  Each variant is scored by the best of :data:`ROUNDS` passes,
interleaved so that a slow stretch of the host hits every variant
alike.  The acceptance bar fails the run when missed (this file is
CI's throughput regression gate): the runtime must beat the sequential
baseline by at least :data:`MIN_ENGINE_SPEEDUP` (compilation alone
measured ~1.8x; the single-pass automaton lifted the measured figure
to ~2.5-2.9x, so the floor ratcheted 1.3x -> 2.0x).

Measurements are also written as JSON to ``$BENCH_RESULTS`` (default
``bench-results/service_throughput.json``; sections merge, so every
service bench lands in one artifact) so CI can upload them as a
workflow artifact and runs stay comparable over time.
"""

import time

from repro.core.builder import MappingRuleBuilder
from repro.core.oracle import ScriptedOracle
from repro.core.repository import RuleRepository
from repro.extraction.extractor import ExtractionProcessor
from repro.service.runtime import IterablePageSource, StreamingRuntime
from repro.service.sink import NullSink
from repro.sites.imdb import generate_imdb_site

from conftest import emit, write_results

N_MOVIES = 200
N_ACTORS = 60

#: Timed passes per variant; the best one is scored (noise rejection).
ROUNDS = 3

#: Regression floor: the inline runtime must stay at least this much
#: faster than the sequential baseline.  Ratcheted from 1.3x when the
#: single-pass automaton landed (measured ~2.5-2.9x; 2.5x is the
#: stretch goal once CI variance is charted).
MIN_ENGINE_SPEEDUP = 2.0


def _build_corpus():
    site = generate_imdb_site(n_movies=N_MOVIES, n_actors=N_ACTORS, seed=13)
    movies = site.pages_with_hint("imdb-movies")
    actors = site.pages_with_hint("imdb-actors")
    repository = RuleRepository()
    oracle = ScriptedOracle()
    MappingRuleBuilder(
        movies[:8], oracle, repository=repository,
        cluster_name="imdb-movies", seed=1,
    ).build_all(["title", "rating", "genres"])
    MappingRuleBuilder(
        actors[:6], oracle, repository=repository,
        cluster_name="imdb-actors", seed=1,
    ).build_all(["actor-name", "born"])
    pages = movies + actors
    for page in pages:  # parse once; measure extraction, not parsing
        page.document
    return repository, pages, movies, actors


def _sequential(repository, movies, actors) -> float:
    started = time.perf_counter()
    ExtractionProcessor(repository, "imdb-movies").extract(movies)
    ExtractionProcessor(repository, "imdb-actors").extract(actors)
    return time.perf_counter() - started


def _compiled_one_thread(repository, movies, actors) -> float:
    wrappers = repository.compile_all()
    started = time.perf_counter()
    wrappers["imdb-movies"].extract(movies)
    wrappers["imdb-actors"].extract(actors)
    return time.perf_counter() - started


def _engine(repository, pages) -> float:
    runtime = StreamingRuntime(repository, workers=1, chunk_size=16)
    report = runtime.run(IterablePageSource(pages), NullSink())
    assert report.pages_served == len(pages)
    return report.wall_seconds


def test_service_throughput(benchmark):
    repository, pages, movies, actors = _build_corpus()
    total = len(pages)

    def interleaved_rounds() -> list[tuple[float, float, float]]:
        return [
            (
                _sequential(repository, movies, actors),
                _compiled_one_thread(repository, movies, actors),
                _engine(repository, pages),
            )
            for _ in range(ROUNDS)
        ]

    passes = benchmark.pedantic(interleaved_rounds, rounds=1, iterations=1)
    seq_seconds, compiled_seconds, engine_seconds = (
        min(seconds) for seconds in zip(*passes)
    )

    def pps(seconds: float) -> float:
        return total / seconds

    engine_speedup = seq_seconds / engine_seconds
    emit(
        "Service throughput (pages/second, higher is better)",
        "\n".join([
            f"pages: {total} ({N_MOVIES} movies + {N_ACTORS} actors), "
            f"best of {ROUNDS} interleaved passes",
            f"sequential processor : {pps(seq_seconds):9.1f} p/s",
            f"compiled, 1 thread   : {pps(compiled_seconds):9.1f} p/s"
            f"  ({seq_seconds / compiled_seconds:.2f}x)",
            f"runtime, inline      : {pps(engine_seconds):9.1f} p/s"
            f"  ({engine_speedup:.2f}x)",
        ]),
    )
    results_path = write_results({
        "pages": total,
        "rounds": ROUNDS,
        "pages_per_second": {
            "sequential": pps(seq_seconds),
            "compiled_1_thread": pps(compiled_seconds),
            "engine_inline": pps(engine_seconds),
        },
        "speedup_vs_sequential": {
            "compiled_1_thread": seq_seconds / compiled_seconds,
            "engine_inline": engine_speedup,
        },
        "min_engine_speedup": MIN_ENGINE_SPEEDUP,
    })
    print(f"results written to {results_path}")

    # Regression gate: the compiled runtime must beat the sequential
    # baseline with margin to spare.
    assert engine_speedup >= MIN_ENGINE_SPEEDUP, (
        f"inline runtime is only {engine_speedup:.2f}x sequential "
        f"(regression floor: {MIN_ENGINE_SPEEDUP}x)"
    )
    # And compilation alone is already a win.
    assert compiled_seconds < seq_seconds
