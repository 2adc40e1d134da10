"""Single-pass automaton vs the sequential baseline, per site family.

Every location the rule builder induces — the positional ones
(``BODY[1]/DIV[2]/TABLE[1]/TR[2]/TD[1]/text()[1]``) and the paper's
contextual label anchors (``BODY//SPAN/text()[normalize-space(
preceding::text()[normalize-space(.) != ""][1]) = "Price:"]``) —
compiles into one DOM automaton, so a page is scanned in a single
preorder traversal no matter how many rules the cluster carries.  This
bench isolates that win on one thread, for each of the five generated
families (imdb, shop, news, stocks, depth-1):

* the sequential :class:`ExtractionProcessor` (the Figure-1 baseline,
  and the reference the wrapper must match);
* the compiled wrapper (the automaton scan).

Both must produce identical values, raw node values and failures on
the same corpus — the bench asserts it before timing anything, so a
speedup is never published for a path that silently diverged.  The
acceptance bar: on every family the compiled wrapper must beat the
sequential baseline by at least :data:`MIN_AUTOMATON_SPEEDUP` (on a
2-vCPU host: imdb 2.2-2.9x, the four contextual families 4.8-14x).

Timings take the best of :data:`ROUNDS` passes per side, the two sides
interleaved round by round, so neither a scheduler hiccup nor a drift
in host speed on a shared CI runner can fail the gate on its own.
Measurements merge into the ``$BENCH_RESULTS`` artifact next to the
other service benches.
"""

import time

from repro.core.builder import MappingRuleBuilder
from repro.core.oracle import ScriptedOracle
from repro.core.repository import RuleRepository
from repro.extraction.extractor import ExtractionProcessor
from repro.sites import (
    generate_imdb_site,
    generate_news_site,
    generate_shop_site,
    generate_stocks_site,
)
from repro.sites.variation import DEPTH_COMPONENTS, generate_depth_cluster

from conftest import emit, write_results

N_MOVIES = 200
N_ACTORS = 60
#: Pages per family for the four contextual families.
N_PAGES = 120
#: Training pages the rules are induced from (the corpus's first ones).
N_TRAIN = 8

#: Timed passes per variant, interleaved; the best one is scored.
ROUNDS = 6

#: Regression floor, per family: one automaton thread vs the sequential
#: baseline (the floor leaves headroom for slow CI runners).
MIN_AUTOMATON_SPEEDUP = 2.0


def _family(name, clusters):
    """``clusters``: ``(cluster, pages, components)`` triples."""
    repository = RuleRepository()
    oracle = ScriptedOracle()
    for cluster, pages, components in clusters:
        report = MappingRuleBuilder(
            pages[:N_TRAIN], oracle, repository=repository,
            cluster_name=cluster, seed=1,
        ).build_all(list(components))
        assert report.failed_components == [], (name, cluster)
        for page in pages:  # parse once; measure extraction only
            page.document
    return name, repository, [(c, p) for c, p, _ in clusters]


def _build_corpora():
    imdb = generate_imdb_site(n_movies=N_MOVIES, n_actors=N_ACTORS, seed=13)
    return [
        _family("imdb", [
            ("imdb-movies", imdb.pages_with_hint("imdb-movies"),
             ["title", "rating", "genres"]),
            ("imdb-actors", imdb.pages_with_hint("imdb-actors"),
             ["actor-name", "born"]),
        ]),
        _family("shop", [(
            "shop-products",
            generate_shop_site(N_PAGES, seed=4).pages_with_hint(
                "shop-products"
            ),
            ["product-name", "price", "old-price", "features"],
        )]),
        _family("news", [(
            "news-articles",
            generate_news_site(N_PAGES, seed=4).pages_with_hint(
                "news-articles"
            ),
            ["headline", "byline", "date"],
        )]),
        _family("stocks", [(
            "stock-quotes",
            generate_stocks_site(N_PAGES, seed=4).pages_with_hint(
                "stock-quotes"
            ),
            ["company", "last-price", "change", "intraday-prices"],
        )]),
        _family("depth-1", [(
            "depth-1",
            generate_depth_cluster(1, n_pages=N_PAGES, seed=4),
            list(DEPTH_COMPONENTS),
        )]),
    ]


def _outcome(extraction):
    return (
        [(p.url, p.values, p.raw_values) for p in extraction.pages],
        [(f.page_url, f.component_name, f.reason)
         for f in extraction.failures],
    )


def _runner(extractors):
    """A timed pass over ``(extractor, pages)`` pairs."""
    def run() -> float:
        started = time.perf_counter()
        for extractor, pages in extractors:
            extractor.extract(pages)
        return time.perf_counter() - started

    return run


def _paired_best(repository, corpus) -> tuple[float, float]:
    """Best sequential and best compiled pass, rounds interleaved.

    The two sides alternate within each round, each going first
    equally often, so a drift in host speed lands on both.
    """
    wrappers = repository.compile_all()
    sequential = _runner([
        (ExtractionProcessor(repository, cluster), pages)
        for cluster, pages in corpus
    ])
    compiled = _runner(
        [(wrappers[cluster], pages) for cluster, pages in corpus]
    )
    seq_best = auto_best = float("inf")
    for round_index in range(ROUNDS):
        if round_index % 2:
            auto_best = min(auto_best, compiled())
            seq_best = min(seq_best, sequential())
        else:
            seq_best = min(seq_best, sequential())
            auto_best = min(auto_best, compiled())
    return seq_best, auto_best


def test_automaton_throughput(benchmark):
    corpora = _build_corpora()

    # Identity first: never publish a speedup for a diverging path.
    for _, repository, corpus in corpora:
        for cluster, pages in corpus:
            baseline = _outcome(
                ExtractionProcessor(repository, cluster).extract(pages)
            )
            compiled = repository.compile_cluster(cluster)
            assert _outcome(compiled.extract(pages)) == baseline, cluster

    def measure() -> dict:
        measured = {}
        for name, repository, corpus in corpora:
            measured[name] = (
                sum(len(pages) for _, pages in corpus),
                *_paired_best(repository, corpus),
            )
        return measured

    measured = benchmark.pedantic(measure, rounds=1, iterations=1)

    lines = [f"best of {ROUNDS}; gate >= {MIN_AUTOMATON_SPEEDUP}x per family"]
    families = {}
    for name, repository, corpus in corpora:
        total, seq_seconds, auto_seconds = measured[name]
        speedup = seq_seconds / auto_seconds
        stats = repository.compile_cluster(corpus[0][0]).stats
        lines.append(
            f"{name:8s} {total:4d} pages  sequential "
            f"{total / seq_seconds:9.1f} p/s  automaton "
            f"{total / auto_seconds:9.1f} p/s  ({speedup:5.2f}x; "
            f"{stats.automaton_slots} slots, {stats.automaton_states} "
            "states)"
        )
        families[name] = {
            "pages": total,
            "compiler_stats": stats.as_dict(),
            "pages_per_second": {
                "sequential": total / seq_seconds,
                "automaton": total / auto_seconds,
            },
            "automaton_speedup_vs_sequential": speedup,
        }
    emit("Single-pass automaton (pages/second, one thread)",
         "\n".join(lines))
    results_path = write_results({
        "automaton": {
            "rounds": ROUNDS,
            "min_automaton_speedup": MIN_AUTOMATON_SPEEDUP,
            "families": families,
        },
    })
    print(f"results written to {results_path}")

    # Regression gate: on every family the single traversal must stay
    # decisively ahead of the baseline.
    slow = {
        name: round(family["automaton_speedup_vs_sequential"], 2)
        for name, family in families.items()
        if family["automaton_speedup_vs_sequential"] < MIN_AUTOMATON_SPEEDUP
    }
    assert not slow, (
        f"automaton below {MIN_AUTOMATON_SPEEDUP}x sequential on {slow}"
    )
