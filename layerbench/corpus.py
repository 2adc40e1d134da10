"""The benchmark's inputs: five site families, the served artifact, pages.

Everything here is deterministic.  Rules are induced once from a fixed
training sample of every family (the same sample sizes
``tools/lint_rule_families.py`` uses) and published, with a router
fitted on the same sample, to an :class:`ArtifactRegistry`.  The pages
a workload serves are generated from the workload seed with other
generator seeds, so they are never the training pages.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

from repro.core.builder import MappingRuleBuilder
from repro.core.oracle import ScriptedOracle
from repro.core.repository import RuleRepository
from repro.service import ArtifactRegistry
from repro.service.router import ClusterRouter
from repro.sites import (
    generate_imdb_site,
    generate_news_site,
    generate_shop_site,
    generate_stocks_site,
)
from repro.sites.page import WebPage
from repro.sites.variation import DEPTH_COMPONENTS, generate_depth_cluster

from pages import Page

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent

#: Training sample: generator seed and pages per family the rules are
#: induced from and the router is fitted on.
TRAIN_SEED = 4
TRAIN_PAGES = 8
#: The ``serve``/``batch`` CLI default routing threshold.
ROUTER_THRESHOLD = 0.5


@dataclass(frozen=True)
class Family:
    """One generator family: its cluster name, components and pages."""

    name: str
    components: tuple[str, ...]
    generate: Callable[[int, int], list[WebPage]]


FAMILIES: tuple[Family, ...] = (
    Family(
        "imdb-movies", ("title", "rating", "genres"),
        lambda n, seed: generate_imdb_site(
            n_movies=n, n_actors=0, n_search=0, seed=seed
        ).pages_with_hint("imdb-movies"),
    ),
    Family(
        "shop-products", ("product-name", "price", "old-price", "features"),
        lambda n, seed: generate_shop_site(n, seed=seed).pages_with_hint(
            "shop-products"
        ),
    ),
    Family(
        "news-articles", ("headline", "byline", "date"),
        lambda n, seed: generate_news_site(n, seed=seed).pages_with_hint(
            "news-articles"
        ),
    ),
    Family(
        "stock-quotes", ("company", "last-price", "change", "intraday-prices"),
        lambda n, seed: generate_stocks_site(n, seed=seed).pages_with_hint(
            "stock-quotes"
        ),
    ),
    Family(
        "depth-1", tuple(DEPTH_COMPONENTS),
        lambda n, seed: generate_depth_cluster(1, n_pages=n, seed=seed),
    ),
)
FAMILY_BY_NAME = {family.name: family for family in FAMILIES}


def _page(page: WebPage, family: Family, html: str = "", size: str = "1x"):
    truth = {name: list(page.ground_truth.get(name, []))
             for name in family.components}
    return Page(page.url, html or page.html, family.name, truth, size)


def _generator_seed(seed: int, family_index: int, salt: int) -> int:
    # Disjoint from TRAIN_SEED for every benchmark seed >= 0.
    return 1000 + 97 * seed + 13 * family_index + salt


# --------------------------------------------------------------------- #
# The served artifact
# --------------------------------------------------------------------- #


def induce_artifact() -> tuple[RuleRepository, ClusterRouter]:
    """Rules for every family plus a router fitted on the same sample."""
    repository = RuleRepository()
    exemplars = {}
    for family in FAMILIES:
        pages = family.generate(TRAIN_PAGES, TRAIN_SEED)
        report = MappingRuleBuilder(
            pages, ScriptedOracle(), repository=repository,
            cluster_name=family.name, seed=1,
        ).build_all(list(family.components))
        if report.failed_components:
            raise RuntimeError(
                f"{family.name}: rule induction failed for "
                f"{report.failed_components}"
            )
        exemplars[family.name] = pages
    return repository, ClusterRouter.fit(
        exemplars, threshold=ROUTER_THRESHOLD
    )


def publish_artifact(registry_dir: Path, rules_path: Path) -> str:
    """Publish and pin the artifact (the lint gate runs on publish)."""
    repository, router = induce_artifact()
    registry = ArtifactRegistry(registry_dir)
    manifest = registry.publish(repository, router, source="benchmark")
    registry.pin(manifest.version)
    repository.save(rules_path)
    return manifest.version


# --------------------------------------------------------------------- #
# Workload corpora
# --------------------------------------------------------------------- #


def balanced_rounds(
    seed: int, rounds: int, per_family: int, salt: int = 0
) -> list[list[Page]]:
    """``rounds`` rounds of ``per_family`` fresh pages from every family.

    Every round has the same family mix, so round rates differ by the
    program's speed rather than by which pages a round drew; the order inside a
    round is shuffled by ``seed``.
    """
    rng = random.Random(seed)
    by_family = [
        [_page(page, family) for page in family.generate(
            rounds * per_family, _generator_seed(seed, index, salt)
        )]
        for index, family in enumerate(FAMILIES)
    ]
    out = []
    for r in range(rounds):
        chunk = [
            page
            for pages in by_family
            for page in pages[r * per_family:(r + 1) * per_family]
        ]
        rng.shuffle(chunk)
        out.append(chunk)
    return out


#: Filler vocabulary for padding: lower-case words only, so no padding
#: text can equal a contextual anchor label ("Price:", "Catalog", ...).
PAD_WORDS = (
    "amber basin cedar delta ember fjord grove harbor inlet juniper "
    "kestrel lagoon meadow nectar orchard pebble quarry ridge summit "
    "thicket upland valley willow yarrow zephyr"
).split()


def pad_html(html: str, size: int, rng: random.Random) -> str:
    """``html`` grown to at least ``size`` characters.

    The padding goes after the page's own content, just before
    ``</body>``, so the positional locations (``BODY[1]/DIV[2]/...``)
    still select the same nodes.  It is built from the tags the
    contextual locations test (H1, SPAN, UL/LI, TABLE/TD), in a fixed
    rotation so that pages of one size hold the same number of
    candidates.  It opens with a paragraph, so the nearest preceding
    text of every padding candidate is padding text, and padding text
    is lower-case filler that never equals an anchor label.
    """
    if size <= len(html):
        return html

    def words(k: int) -> str:
        return " ".join(rng.choice(PAD_WORDS) for _ in range(k))

    blocks = [f'<div class="pad"><p>{words(4)}</p>\n']
    grown = len(html) + len(blocks[0])
    while grown < size:
        kind = len(blocks) % 4
        if kind == 0:
            block = f"<h1>{words(3)}</h1>"
        elif kind == 1:
            block = f"<p>{words(3)} <span>{words(2)}</span></p>"
        elif kind == 2:
            block = "<ul>" + "".join(
                f"<li>{words(2)}</li>" for _ in range(3)
            ) + "</ul>"
        else:
            block = "<table>" + "".join(
                f"<tr><td>{words(2)}</td><td>{words(1)}</td></tr>"
                for _ in range(2)
            ) + "</table>"
        blocks.append(block + "\n")
        grown += len(block) + 1
    blocks.append("</div>\n")
    cut = html.rfind("</body>")
    if cut < 0:
        cut = len(html)
    return html[:cut] + "".join(blocks) + html[cut:]


#: Padded corpus: size classes as (label, factor, pages per family).
SIZE_CLASSES = (("1x", 1, 2), ("4x", 4, 2), ("16x", 16, 1))


def reference_size(family: Family) -> int:
    """Median size of the family's training pages, in characters.

    Padded pages grow to a multiple of this, not of their own size:
    contextual locations cost time quadratic in page size, so sizes
    that varied with the seed would move ms/KB more than the program
    does.
    """
    sizes = sorted(len(page.html)
                   for page in family.generate(TRAIN_PAGES, TRAIN_SEED))
    return sizes[len(sizes) // 2]


def padded_corpus(seed: int) -> list[Page]:
    """Every family at 1x/4x/16x, size classes interleaved by ``seed``."""
    rng = random.Random(seed)
    pages: list[Page] = []
    for index, family in enumerate(FAMILIES):
        reference = reference_size(family)
        count = sum(n for _, _, n in SIZE_CLASSES)
        generated = family.generate(count, _generator_seed(seed, index, 7))
        for label, factor, n in SIZE_CLASSES:
            for page in generated[:n]:
                html = page.html
                if factor > 1:
                    html = pad_html(html, factor * reference, random.Random(
                        f"{seed}/{page.url}/{factor}"
                    ))
                pages.append(_page(page, family, html, label))
            generated = generated[n:]
    rng.shuffle(pages)
    return pages


# --------------------------------------------------------------------- #
# Cache
# --------------------------------------------------------------------- #


def source_key(roots: Sequence[Path] = (REPO_ROOT / "src", BENCH_DIR)) -> str:
    """Hash of the program and benchmark sources the cache depends on."""
    digest = hashlib.sha256()
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]
