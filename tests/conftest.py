"""Shared fixtures: the paper's working sample, small sites, oracles."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

# Allow running the tests without installing the package.
_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.core.oracle import ScriptedOracle
from repro.html import parse_html
from repro.sites.imdb import ImdbOptions, generate_imdb_site, make_paper_sample


@pytest.fixture(scope="session", autouse=True)
def no_leaked_child_processes():
    """Fail the session if any test left a child process behind.

    The in-process supervisor tests fork serve fleets from this very
    process, so a leaked child carries pytest's command line and
    escapes CI's ``pgrep repro.cli`` step.  Linux lists each thread's
    children under ``/proc/self/task/*/children``; where that file is
    missing the check is skipped.
    """
    yield
    listings = list(Path("/proc/self/task").glob("*/children"))
    if not listings:
        return
    leaked = set()
    for listing in listings:
        try:
            leaked.update(listing.read_text().split())
        except OSError:
            continue  # that thread ended after the glob
    assert not leaked, f"child process(es) left running: {sorted(leaked)}"


@pytest.fixture(scope="session")
def paper_sample():
    """The four pages of the paper's working sample (Tables 1/3)."""
    return make_paper_sample()


@pytest.fixture(scope="session")
def imdb_site():
    """A 24-page movie cluster with all discrepancy classes present."""
    return generate_imdb_site(options=ImdbOptions(n_pages=24, seed=7))


@pytest.fixture(scope="session")
def movie_pages(imdb_site):
    return imdb_site.pages_with_hint("imdb-movies")


@pytest.fixture()
def oracle():
    return ScriptedOracle()


@pytest.fixture(scope="session")
def service_site():
    """A ≥500-page, three-cluster site for the serving-layer tests."""
    return generate_imdb_site(n_movies=350, n_actors=100, n_search=50, seed=11)


@pytest.fixture(scope="session")
def service_repository(service_site):
    """Rules for two of the three clusters, built offline (Figure 1)."""
    from repro.core.builder import MappingRuleBuilder
    from repro.core.repository import RuleRepository

    movies = service_site.pages_with_hint("imdb-movies")
    actors = service_site.pages_with_hint("imdb-actors")
    repository = RuleRepository()
    oracle = ScriptedOracle()
    report = MappingRuleBuilder(
        movies[:8], oracle, repository=repository,
        cluster_name="imdb-movies", seed=1,
    ).build_all(["title", "rating", "genres"])
    assert report.failed_components == []
    report = MappingRuleBuilder(
        actors[:6], oracle, repository=repository,
        cluster_name="imdb-actors", seed=1,
    ).build_all(["actor-name", "born"])
    assert report.failed_components == []
    return repository


@pytest.fixture()
def simple_doc():
    """A small document exercising tables, lists and inline markup."""
    return parse_html(
        """<html><head><title>T</title></head><body>
        <div id="a"><h1>Header</h1></div>
        <div id="b">
          <table>
            <tr><td><b>Runtime:</b> 108 min</td></tr>
            <tr><td><b>Country:</b> USA</td></tr>
          </table>
          <ul><li>one</li><li>two</li><li>three</li></ul>
          <p>Plain <i>styled</i> tail</p>
        </div>
        </body></html>"""
    )


@pytest.fixture()
def simple_root(simple_doc):
    return simple_doc.document_element
