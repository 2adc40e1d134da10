"""Sharded batch execution, end to end on one machine.

Simulates the three-command multi-host recipe (see README "Scaling out
with shards") in a single process: plan a corpus into three shards,
run each shard through its own runtime — in production each of
these runs on a different host — then mergesort the outputs and check
the merged stream is byte-identical to an unsharded run.

Run with: PYTHONPATH=src python examples/sharded_batch.py
"""

import io
import tempfile
from pathlib import Path

from repro.core.builder import MappingRuleBuilder
from repro.core.oracle import ScriptedOracle
from repro.core.repository import RuleRepository
from repro.service import (
    IterablePageSource,
    JsonlSink,
    ShardMerger,
    ShardPlanner,
    ShardWorker,
    StreamingRuntime,
)
from repro.sites.imdb import generate_imdb_site


def main() -> None:
    site = generate_imdb_site(n_movies=60, n_actors=20, n_search=10, seed=42)
    repository = RuleRepository()
    oracle = ScriptedOracle()
    MappingRuleBuilder(
        site.pages_with_hint("imdb-movies")[:8], oracle,
        repository=repository, cluster_name="imdb-movies", seed=1,
    ).build_all(["title", "rating", "genres"])

    pages = list(site)
    by_url = {page.url: page for page in pages}

    # 1. plan: a deterministic split every "host" can recompute
    plan = ShardPlanner(3, "hash").plan([page.url for page in pages])
    print(f"plan: {len(pages)} page(s) -> shards of {plan.shard_sizes()}")

    # 2. run: one worker per shard (each would be its own host)
    shard_dir = Path(tempfile.mkdtemp(prefix="repro-shards-"))
    for shard in range(plan.shards):
        worker = ShardWorker(repository, plan, shard)
        manifest, _ = worker.run(lambda url: by_url[url], shard_dir)
        print(
            f"shard {manifest.shard}: {manifest.records} record(s), "
            f"indices [{manifest.index_min}, {manifest.index_max}], "
            f"sha256 {manifest.sha256[:12]}..."
        )

    # 3. merge: mergesort by global submission index
    merged = io.StringIO()
    report = ShardMerger().merge([shard_dir], merged)
    print(report.summary())

    # The point of it all: byte-identity with the unsharded run.
    unsharded = io.StringIO()
    with JsonlSink(unsharded) as sink:
        StreamingRuntime(repository, workers=4).run(
            IterablePageSource(pages), sink
        )
    assert merged.getvalue() == unsharded.getvalue()
    print("merged output is byte-identical to the unsharded run")


if __name__ == "__main__":
    main()
