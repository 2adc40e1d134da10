"""Offline-build / online-serve: the service-layer lifecycle end to end.

1. Offline (Figure 1): build and validate rules on ground-truth pages,
   save the repository — the deployable artifact.
2. Online (repro.service): reload the repository, fit a router from a
   few exemplar pages, and stream the whole site through a parallel
   streaming runtime into an incremental JSONL sink.

Run:  PYTHONPATH=src python examples/batch_service.py
"""

import tempfile
from pathlib import Path

from repro.core.builder import MappingRuleBuilder
from repro.core.oracle import ScriptedOracle
from repro.core.repository import RuleRepository
from repro.service import (
    ClusterRouter,
    IterablePageSource,
    JsonlSink,
    StreamingRuntime,
)
from repro.sites.imdb import generate_imdb_site


def build_repository(site) -> RuleRepository:
    """The offline phase: semi-automatic rule building + validation."""
    repository = RuleRepository()
    oracle = ScriptedOracle()
    MappingRuleBuilder(
        site.pages_with_hint("imdb-movies")[:8], oracle,
        repository=repository, cluster_name="imdb-movies", seed=1,
    ).build_all(["title", "rating", "genres"])
    MappingRuleBuilder(
        site.pages_with_hint("imdb-actors")[:6], oracle,
        repository=repository, cluster_name="imdb-actors", seed=1,
    ).build_all(["actor-name", "born"])
    return repository


def main() -> None:
    site = generate_imdb_site(n_movies=60, n_actors=20, n_search=10, seed=7)
    workdir = Path(tempfile.mkdtemp(prefix="repro-service-"))

    # ---- offline: build once, save the artifact ----------------------- #
    artifact = workdir / "rules.json"
    build_repository(site).save(artifact)
    print(f"artifact saved: {artifact}")

    # ---- online: load, compile, route, serve -------------------------- #
    repository = RuleRepository.load(artifact)
    router = ClusterRouter.fit({
        "imdb-movies": site.pages_with_hint("imdb-movies")[:6],
        "imdb-actors": site.pages_with_hint("imdb-actors")[:6],
        "imdb-search": site.pages_with_hint("imdb-search")[:4],
    })
    runtime = StreamingRuntime(
        repository, router=router, workers=2, chunk_size=16
    )
    out = workdir / "records.jsonl"
    with JsonlSink(out) as sink:
        report = runtime.run(IterablePageSource(site), sink)

    print(report.summary())
    print(f"records: {out}")
    wrapper = repository.compile_cluster("imdb-movies")
    print(
        f"compiled imdb-movies wrapper: {wrapper.stats.rules} rules, "
        f"{wrapper.stats.automaton_steps_saved} DOM steps/page saved by "
        f"the single-pass automaton"
    )


if __name__ == "__main__":
    main()
