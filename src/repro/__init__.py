"""repro — reproduction of *Semi-Automated Extraction of Targeted Data
from Web Pages* (Estiévenart, Meurisse, Hainaut, Thiran; IEEE ICDE
Workshops 2006).

The library implements the paper's full stack, bottom-up:

* :mod:`repro.dom` / :mod:`repro.html` — a tolerant HTML parser and DOM
  (the role Mozilla's engine plays for the original Retrozilla);
* :mod:`repro.xpath` — an XPath 1.0 engine (location formalism);
* :mod:`repro.core` — the contribution: page components, mapping rules,
  the semi-automated candidate/check/refine/record scenario, oracles,
  and the rule repository;
* :mod:`repro.clustering` — the page-cluster heuristics of Section 2.1;
* :mod:`repro.extraction` — extraction towards XML + XML Schema;
* :mod:`repro.sites` — deterministic synthetic web sites (the offline
  stand-in for imdb.com and the motivating applications);
* :mod:`repro.baselines` — RoadRunner-, EXALG- and LR-style comparators;
* :mod:`repro.evaluation` — metrics, convergence/drift/depth studies,
  and the Table-4 feature audit;
* :mod:`repro.workbench` — the GUI-equivalent session API;
* :mod:`repro.cli` — the ``retrozilla`` command-line tool.

Quickstart:
    >>> from repro import WorkbenchSession, make_paper_sample
    >>> session = WorkbenchSession(make_paper_sample(), cluster_name="imdb-movies")
    >>> rule = session.define_component("runtime", 0, "108 min")
    >>> rule.component.name
    'runtime'
"""

from repro._exports import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "core": (
        "Format",
        "MappingRule",
        "MappingRuleBuilder",
        "Multiplicity",
        "Optionality",
        "PageComponent",
        "RuleRepository",
        "ScriptedOracle",
    ),
    "extraction": (
        "ExtractionPipeline",
        "ExtractionProcessor",
        "PostProcessor",
        "generate_xml_schema",
        "write_cluster_xml",
    ),
    "clustering": ("PageClusterer",),
    "html": ("parse_html",),
    "sites": (
        "WebPage",
        "WebSite",
        "generate_imdb_site",
        "make_paper_sample",
    ),
    "workbench": ("WorkbenchSession",),
    "xpath": ("select", "select_one"),
})

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "PageComponent",
    "MappingRule",
    "MappingRuleBuilder",
    "RuleRepository",
    "ScriptedOracle",
    "Optionality",
    "Multiplicity",
    "Format",
    # substrates
    "parse_html",
    "select",
    "select_one",
    # clustering + extraction
    "PageClusterer",
    "ExtractionPipeline",
    "ExtractionProcessor",
    "PostProcessor",
    "write_cluster_xml",
    "generate_xml_schema",
    # sites
    "WebPage",
    "WebSite",
    "generate_imdb_site",
    "make_paper_sample",
    # workbench
    "WorkbenchSession",
]
