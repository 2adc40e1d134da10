"""Service throughput — the batch runtime vs. the sequential baseline.

Measures pages/second over a two-cluster synthetic site for:

* the sequential :class:`ExtractionProcessor` (the Figure-1 baseline,
  re-walking rule locations page by page);
* one compiled wrapper on one thread (isolates the compilation win:
  pre-parsed ASTs + the single-pass automaton);
* a :class:`StreamingRuntime` over an :class:`IterablePageSource` at 2
  and 4 thread workers.

Pages are pre-parsed once so the runtime variants measure pure
extraction machinery.  The acceptance bar fails the run when missed
(this file is CI's throughput regression gate): the compiled parallel
path must beat the sequential baseline at >= 2 workers by at least
:data:`MIN_ENGINE_SPEEDUP` (compilation alone measured ~1.8x; the
single-pass automaton lifted the measured figure to ~2.5-2.9x, so the
floor ratcheted 1.3x -> 2.0x).

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

#: Regression floor: the 2-worker runtime must stay at least this much
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


def _engine(repository, pages, workers: int) -> float:
    runtime = StreamingRuntime(repository, workers=workers, chunk_size=16)
    report = runtime.run(IterablePageSource(pages), NullSink())
    assert report.pages_served == len(pages)
    return report.wall_seconds


def test_service_throughput(benchmark):
    repository, pages, movies, actors = _build_corpus()
    total = len(pages)

    seq_seconds = _sequential(repository, movies, actors)
    compiled_seconds = _compiled_one_thread(repository, movies, actors)
    engine2_seconds = benchmark.pedantic(
        lambda: _engine(repository, pages, workers=2),
        rounds=1, iterations=1,
    )
    engine4_seconds = _engine(repository, pages, workers=4)

    def pps(seconds: float) -> float:
        return total / seconds

    engine2_speedup = seq_seconds / engine2_seconds
    emit(
        "Service throughput (pages/second, higher is better)",
        "\n".join([
            f"pages: {total} ({N_MOVIES} movies + {N_ACTORS} actors)",
            f"sequential processor : {pps(seq_seconds):9.1f} p/s",
            f"compiled, 1 thread   : {pps(compiled_seconds):9.1f} p/s"
            f"  ({seq_seconds / compiled_seconds:.2f}x)",
            f"runtime, 2 workers   : {pps(engine2_seconds):9.1f} p/s"
            f"  ({engine2_speedup:.2f}x)",
            f"runtime, 4 workers   : {pps(engine4_seconds):9.1f} p/s"
            f"  ({seq_seconds / engine4_seconds:.2f}x)",
        ]),
    )
    results_path = write_results({
        "pages": total,
        "pages_per_second": {
            "sequential": pps(seq_seconds),
            "compiled_1_thread": pps(compiled_seconds),
            "engine_2_workers": pps(engine2_seconds),
            "engine_4_workers": pps(engine4_seconds),
        },
        "speedup_vs_sequential": {
            "compiled_1_thread": seq_seconds / compiled_seconds,
            "engine_2_workers": engine2_speedup,
            "engine_4_workers": seq_seconds / engine4_seconds,
        },
        "min_engine_speedup": MIN_ENGINE_SPEEDUP,
    })
    print(f"results written to {results_path}")

    # Regression gate: the compiled parallel path must beat the
    # sequential baseline at >= 2 workers with margin to spare.
    assert engine2_speedup >= MIN_ENGINE_SPEEDUP, (
        f"runtime@2 is only {engine2_speedup:.2f}x sequential "
        f"(regression floor: {MIN_ENGINE_SPEEDUP}x)"
    )
    # And compilation alone is already a win.
    assert compiled_seconds < seq_seconds
