"""Synthetic web substrate.

The paper works on live pages of data-intensive web sites (its running
example is imdb.com as of 2006).  Offline, this package provides the
equivalent substrate:

* :mod:`repro.sites.page` / :mod:`repro.sites.site` — the page and site
  model (a site is an addressable collection of pages, i.e. an offline
  stand-in for crawling);
* :mod:`repro.sites.imdb` — the `imdb-movies` cluster generator.  It
  reproduces the paper's exact worked artifacts (the four sample pages
  of Tables 1/3 with their URIs and runtime values, the Figure-4
  fragments where an optional "Also Known As:" shifts the runtime row)
  and scales to arbitrarily many pages with controlled structural
  discrepancies;
* :mod:`repro.sites.shop`, :mod:`repro.sites.news`,
  :mod:`repro.sites.stocks` — additional page-cluster families for the
  motivating applications (price monitoring, data integration,
  migration);
* :mod:`repro.sites.variation` — reusable structural-discrepancy and
  wrapper-drift injectors.

All generators are deterministic given a seed, so tests and benchmarks
are reproducible.
"""

from repro._exports import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "page": ("WebPage",),
    "site": ("WebSite",),
    "imdb": ("PAPER_SAMPLE_IDS", "generate_imdb_site", "make_paper_sample"),
    "shop": ("generate_shop_site",),
    "news": ("generate_news_site",),
    "stocks": ("generate_stocks_site",),
})

__all__ = [
    "WebPage",
    "WebSite",
    "generate_imdb_site",
    "make_paper_sample",
    "PAPER_SAMPLE_IDS",
    "generate_shop_site",
    "generate_news_site",
    "generate_stocks_site",
]
