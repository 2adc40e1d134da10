"""Routed batch runtime scaling — two process workers vs one inline.

Measures pages/second of :class:`~repro.service.runtime.StreamingRuntime`
over raw pages of two clusters (imdb movies and actors), routed by a
fitted :class:`~repro.service.router.ClusterRouter`, with:

* ``workers=1`` — the inline executor, on the calling thread;
* ``workers=2`` — a 2-process pool.

Every pass gets fresh :class:`~repro.sites.page.WebPage` objects built
from the raw HTML, so nothing is pre-parsed: each pass pays the parse,
the signature, the route scoring and the extraction of every page, as
``batch`` does.  The two sides alternate over :data:`ROUNDS` rounds,
each going first equally often, and each is scored by its best pass.
The JSONL each pass writes must be byte-identical across both sides.

Acceptance bar (failing the run — this file is CI's regression gate
for the batch runtime's scaling): ``workers=2`` must sustain at least
:data:`MIN_SCALING` x ``workers=1``.  That holds only while the
parent does little per page; a runtime that routes in the parent
reads about 1x.  The bar is asserted only on hosts with >=
:data:`MIN_CPUS_FOR_GATE` CPUs (CI's runners): with fewer cores the
parent and both workers share two cores and the ratio is recorded in
the ``$BENCH_RESULTS`` artifact, not asserted.  Byte-identity is
asserted everywhere.
"""

import io
import os
import time

from repro.core.builder import MappingRuleBuilder
from repro.core.oracle import ScriptedOracle
from repro.core.repository import RuleRepository
from repro.service.metrics import NULL_METRICS
from repro.service.router import ClusterRouter
from repro.service.runtime import IterablePageSource, StreamingRuntime
from repro.service.sink import JsonlSink
from repro.sites.imdb import generate_imdb_site
from repro.sites.page import WebPage

from conftest import emit, write_results

#: Repeats of the site's served pages in one pass.
CORPUS_REPEATS = 3

#: Timed rounds; each times one pass per side, and the side that goes
#: first alternates (an even count: each side leads equally often).
ROUNDS = 4

#: Regression floor: ``workers=2`` against ``workers=1``.
MIN_SCALING = 1.7

#: The gate needs the parent and two workers to have real cores;
#: below this the ratio is recorded, not asserted.
MIN_CPUS_FOR_GATE = 4


def _corpus() -> tuple[RuleRepository, ClusterRouter, list[tuple]]:
    """Rules, a fitted router and the raw ``(url, html)`` stream."""
    site = generate_imdb_site(n_movies=160, n_actors=80, seed=17)
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
    router = ClusterRouter.fit(
        {"imdb-movies": movies[:8], "imdb-actors": actors[:8]}
    )
    # Movies and actors interleaved, as a directory listing mixes them.
    mixed = [page for pair in zip(movies, actors) for page in pair]
    raw = [(page.url, page.html) for page in mixed] * CORPUS_REPEATS
    return repository, router, raw


def _pass(runtime: StreamingRuntime, raw: list[tuple]) -> tuple[float, str]:
    """One timed run over fresh pages; returns (seconds, JSONL text)."""
    pages = [WebPage(url=url, html=html) for url, html in raw]
    out = io.StringIO()
    started = time.perf_counter()
    with JsonlSink(out) as sink:
        report = runtime.run(IterablePageSource(pages), sink)
    elapsed = time.perf_counter() - started
    assert report.pages_served == len(raw), report.summary()
    return elapsed, out.getvalue()


def _paired(sides: dict, raw: list[tuple]) -> tuple[dict, str]:
    """Best seconds per side over :data:`ROUNDS` alternating rounds.

    Every pass of either side must write the bytes of the first one.
    """
    best = {}
    expected = None
    names = list(sides)
    for round_index in range(ROUNDS):
        order = names if round_index % 2 == 0 else names[::-1]
        for name in order:
            seconds, text = _pass(sides[name], raw)
            if expected is None:
                expected = text
            assert text == expected, f"{name} changed the JSONL bytes"
            best[name] = min(best.get(name, seconds), seconds)
    return best, expected


def test_runtime_scaling(benchmark):
    repository, router, raw = _corpus()
    sides = {
        workers: StreamingRuntime(
            repository, router=router, workers=workers, chunk_size=16,
            metrics=NULL_METRICS,
        )
        for workers in (1, 2)
    }
    best, text = benchmark.pedantic(
        lambda: _paired(sides, raw), rounds=1, iterations=1,
    )
    pages = len(raw)
    scaling = best[1] / best[2]
    cpus = os.cpu_count() or 1
    gated = cpus >= MIN_CPUS_FOR_GATE
    emit(
        "Routed batch runtime scaling (pages/second, higher is better)",
        "\n".join([
            f"pages: {pages} (2 clusters, fitted router, nothing "
            f"pre-parsed), cpus: {cpus}, best of {ROUNDS} alternating "
            "rounds",
            f"workers=1 (inline)   : {pages / best[1]:9.1f} pages/s",
            f"workers=2 (process)  : {pages / best[2]:9.1f} pages/s"
            f"  ({scaling:.2f}x workers=1)",
            f"scaling gate         : >= {MIN_SCALING}x "
            + ("(enforced)" if gated else
               f"(recorded only: < {MIN_CPUS_FOR_GATE} cpus)"),
        ]),
    )
    results_path = write_results({
        "runtime_scaling": {
            "pages": pages,
            "records": text.count("\n"),
            "cpus": cpus,
            "rounds": ROUNDS,
            "pages_per_second": {
                "workers_1": pages / best[1],
                "workers_2": pages / best[2],
            },
            "scaling": scaling,
            "min_scaling": MIN_SCALING,
            "gate_enforced": gated,
            "byte_identical": True,
        },
    })
    print(f"results written to {results_path}")

    if gated:
        assert scaling >= MIN_SCALING, (
            f"workers=2 is only {scaling:.2f}x workers=1 "
            f"(regression floor: {MIN_SCALING}x)"
        )
