"""Shard pipeline overhead — plan + N workers + merge vs one batch run.

A sharded run pays for manifest bookkeeping, content digests and the
k-way merge.  This benchmark runs the same corpus through (a) one
runtime and (b) a 3-shard plan/run/merge pipeline executed
back-to-back on one host, reports the relative overhead, and checks
the merged stream is byte-identical to the unsharded one — the
property that makes multi-host scaling safe.
"""

import io
import time

from repro.core.builder import MappingRuleBuilder
from repro.core.oracle import ScriptedOracle
from repro.core.repository import RuleRepository
from repro.service.runtime import IterablePageSource, StreamingRuntime
from repro.service.shard import ShardMerger, ShardPlanner, ShardWorker
from repro.service.sink import JsonlSink
from repro.sites.imdb import generate_imdb_site

from conftest import emit

N_MOVIES = 120
N_ACTORS = 40
SHARDS = 3


def _build_corpus():
    site = generate_imdb_site(n_movies=N_MOVIES, n_actors=N_ACTORS, seed=23)
    repository = RuleRepository()
    oracle = ScriptedOracle()
    MappingRuleBuilder(
        site.pages_with_hint("imdb-movies")[:8], oracle,
        repository=repository, cluster_name="imdb-movies", seed=1,
    ).build_all(["title", "rating"])
    MappingRuleBuilder(
        site.pages_with_hint("imdb-actors")[:6], oracle,
        repository=repository, cluster_name="imdb-actors", seed=1,
    ).build_all(["actor-name", "born"])
    pages = list(site)
    for page in pages:
        page.document
    return repository, pages


def test_shard_pipeline_overhead(benchmark, tmp_path):
    repository, pages = _build_corpus()
    by_url = {page.url: page for page in pages}

    started = time.perf_counter()
    stream = io.StringIO()
    with JsonlSink(stream) as sink:
        StreamingRuntime(repository).run(
            IterablePageSource(pages), sink
        )
    unsharded_seconds = time.perf_counter() - started
    unsharded = stream.getvalue()

    def sharded() -> float:
        begun = time.perf_counter()
        plan = ShardPlanner(SHARDS, "hash").plan([p.url for p in pages])
        directory = tmp_path / "shards"
        for shard in range(SHARDS):
            ShardWorker(repository, plan, shard).run(
                lambda url: by_url[url], directory
            )
        merged = io.StringIO()
        ShardMerger().merge([directory], merged)
        assert merged.getvalue() == unsharded
        return time.perf_counter() - begun

    sharded_seconds = benchmark.pedantic(sharded, rounds=1, iterations=1)
    emit(
        "Shard pipeline (one host, back-to-back workers)",
        "\n".join([
            f"pages: {len(pages)}, shards: {SHARDS}",
            f"unsharded runtime        : {unsharded_seconds:.3f}s",
            f"plan + run x{SHARDS} + merge    : {sharded_seconds:.3f}s"
            f"  ({sharded_seconds / unsharded_seconds:.2f}x)",
            "merged output byte-identical to unsharded run: yes",
        ]),
    )
