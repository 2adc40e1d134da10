"""The paper's primary contribution: semi-automated mapping rules.

A *mapping rule* (Section 2.3) formalises the properties of a *page
component* — an information unit recurring across the pages of a *page
cluster*:

=============  =======================================================
Property       Meaning
=============  =======================================================
name           semantic interpretation, supplied by the human operator
optionality    ``mandatory`` / ``optional``
multiplicity   ``single-valued`` / ``multivalued``
format         ``text`` / ``mixed`` (text interleaved with markup)
location       one or more XPath expressions locating component values
=============  =======================================================

This package implements the whole Figure-3 scenario:

* :mod:`repro.core.xpath_builder` — generation of *precise* positional
  XPaths from a selected node, contextual (anchor-based) rewrites, and
  multiplicity broadening;
* :mod:`repro.core.checking` — applying a candidate rule to every page
  of the working sample and classifying the outcome per page (the
  Table-1 view);
* :mod:`repro.core.refinement` — the four refinement strategies of
  Section 3.4;
* :mod:`repro.core.builder` — the semi-automated driver loop
  (candidate → check → refine → record);
* :mod:`repro.core.oracle` — the "human operator" abstraction:
  scripted (ground truth) or interactive (console);
* :mod:`repro.core.repository` — persistent rule repository.
"""

from repro._exports import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "builder": ("BuildReport", "MappingRuleBuilder"),
    "checking": (
        "CheckOutcome",
        "CheckReport",
        "CheckRow",
        "check_rule",
        "render_check_table",
    ),
    "component": (
        "Format",
        "Multiplicity",
        "Optionality",
        "PageComponent",
        "validate_component_name",
    ),
    "oracle": (
        "InteractiveOracle",
        "Oracle",
        "ScriptedOracle",
        "Selection",
    ),
    "refinement": ("RefinementEngine", "RefinementTrace"),
    "repository": ("Aggregation", "RuleRepository"),
    "rule": ("MappingRule", "MatchResult"),
    "schema_guided": (
        "ComponentSpec",
        "SchemaGuidedBuilder",
        "SchemaTemplate",
    ),
    "xpath_builder": (
        "broaden_multiplicity",
        "build_contextual_xpath",
        "build_precise_xpath",
        "deduce_repetitive_tag",
    ),
})

__all__ = [
    "Aggregation",
    "ComponentSpec",
    "SchemaTemplate",
    "SchemaGuidedBuilder",
    "PageComponent",
    "Optionality",
    "Multiplicity",
    "Format",
    "validate_component_name",
    "MappingRule",
    "MatchResult",
    "RuleRepository",
    "build_precise_xpath",
    "build_contextual_xpath",
    "broaden_multiplicity",
    "deduce_repetitive_tag",
    "check_rule",
    "render_check_table",
    "CheckReport",
    "CheckRow",
    "CheckOutcome",
    "RefinementEngine",
    "RefinementTrace",
    "MappingRuleBuilder",
    "BuildReport",
    "Oracle",
    "ScriptedOracle",
    "InteractiveOracle",
    "Selection",
]
