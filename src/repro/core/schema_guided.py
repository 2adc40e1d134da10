"""Schema-guided rule building (the paper's Section-7 future work).

> "In the near future we will also explore the opportunity to build
> mapping rules according to a pre-existing data structure (XML Schema,
> RDF, OWL).  Such an improvement would allow schema reusability and
> sharing, and would make it easier to integrate data coming from
> various Web sites."

A :class:`SchemaTemplate` declares the components a user expects — with
their optionality/multiplicity — *before* any page is opened.  The
guided builder then runs the ordinary Figure-3 scenario for each
declared component and **validates the learned properties against the
declared ones**: a component the schema calls mandatory must not come
out optional, a single-valued one must not come out multivalued, and so
on.  Templates round-trip through the XSD subset this library itself
generates, so a schema produced on one site can guide rule building on
another — the "integration of data coming from various Web sites".
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.errors import RuleValidationError
from repro.core.builder import BuildOutcome, MappingRuleBuilder
from repro.core.component import (
    Format,
    Multiplicity,
    Optionality,
    PageComponent,
    validate_component_name,
)
from repro.core.repository import Aggregation


@dataclass(frozen=True)
class ComponentSpec:
    """A declared component: name plus the cardinalities the schema fixes.

    ``None`` for a property means the schema does not constrain it and
    the learned value is accepted as-is.
    """

    name: str
    optionality: Optional[Optionality] = None
    multiplicity: Optional[Multiplicity] = None
    format: Optional[Format] = None

    def __post_init__(self) -> None:
        validate_component_name(self.name)

    def conflicts_with(self, component: PageComponent) -> list[str]:
        """Property names where the learned component contradicts the spec."""
        conflicts: list[str] = []
        if self.optionality is not None and component.optionality is not self.optionality:
            conflicts.append("optionality")
        if (
            self.multiplicity is not None
            and component.multiplicity is not self.multiplicity
        ):
            conflicts.append("multiplicity")
        if self.format is not None and component.format is not self.format:
            conflicts.append("format")
        return conflicts


@dataclass
class SchemaTemplate:
    """A pre-existing target structure for a page cluster."""

    cluster: str
    components: list[ComponentSpec] = field(default_factory=list)
    aggregations: list[Aggregation] = field(default_factory=list)

    def component_names(self) -> list[str]:
        return [spec.name for spec in self.components]

    def spec_for(self, name: str) -> Optional[ComponentSpec]:
        for spec in self.components:
            if spec.name == name:
                return spec
        return None

    # ------------------------------------------------------------------ #
    # XSD round-trip (the subset repro.extraction.schema emits)
    # ------------------------------------------------------------------ #

    @classmethod
    def from_xsd(cls, xsd_text: str) -> "SchemaTemplate":
        """Parse a template from the library's own XSD output.

        Only the generated subset is understood: one root element (the
        cluster), one page element, and leaf/aggregation elements with
        ``minOccurs``/``maxOccurs``.  ``mixed="true"`` complex types map
        to the ``mixed`` format.

        Raises:
            RuleValidationError: when the document lacks the expected
                root/page structure.
        """
        elements = _scan_xsd_elements(xsd_text)
        if len(elements) < 2:
            raise RuleValidationError("XSD lacks root/page element structure")
        cluster = elements[0].name
        template = cls(cluster=cluster)
        # elements[1] is the page element; deeper ones are components or
        # aggregation containers.
        depth_of_page = elements[1].depth
        current_aggregation: Optional[tuple[str, int, list[str]]] = None
        for entry in elements[2:]:
            if current_aggregation is not None and entry.depth <= current_aggregation[1]:
                name, _, members = current_aggregation
                template.aggregations.append(Aggregation(name, tuple(members)))
                current_aggregation = None
            if entry.is_container:
                current_aggregation = (entry.name, entry.depth, [])
                continue
            spec = ComponentSpec(
                name=entry.name,
                optionality=(
                    Optionality.OPTIONAL
                    if entry.min_occurs == "0"
                    else Optionality.MANDATORY
                ),
                multiplicity=(
                    Multiplicity.MULTIVALUED
                    if entry.max_occurs == "unbounded"
                    else Multiplicity.SINGLE_VALUED
                ),
                format=Format.MIXED if entry.mixed else Format.TEXT,
            )
            template.components.append(spec)
            if current_aggregation is not None:
                current_aggregation[2].append(entry.name)
        if current_aggregation is not None:
            name, _, members = current_aggregation
            template.aggregations.append(Aggregation(name, tuple(members)))
        if not template.components:
            raise RuleValidationError("XSD declares no leaf components")
        return template


@dataclass
class _XsdElement:
    name: str
    depth: int
    min_occurs: str
    max_occurs: str
    mixed: bool
    is_container: bool


_ELEMENT_RE = re.compile(
    r'<xs:element\s+name="(?P<name>[^"]+)"(?P<attrs>[^>]*?)(?P<selfclose>/?)>'
)
_MIN_RE = re.compile(r'minOccurs="([^"]+)"')
_MAX_RE = re.compile(r'maxOccurs="([^"]+)"')


def _scan_xsd_elements(xsd_text: str) -> list[_XsdElement]:
    """Linear scan of xs:element declarations with their nesting depth."""
    entries: list[_XsdElement] = []
    for match in _ELEMENT_RE.finditer(xsd_text):
        name = match.group("name")
        attrs = match.group("attrs")
        line_start = xsd_text.rfind("\n", 0, match.start()) + 1
        indent = match.start() - line_start
        body_start = match.end()
        # A leaf either self-closes with type="xs:string" or wraps a
        # mixed complexType; containers wrap a plain complexType with a
        # sequence of further elements.
        self_closing = bool(match.group("selfclose"))
        mixed = False
        is_container = False
        if not self_closing:
            closer = xsd_text.find("</xs:element>", body_start)
            body = xsd_text[body_start : closer if closer >= 0 else None]
            inner_element = "<xs:element" in body
            # A container wraps further element declarations; a mixed
            # LEAF wraps only a mixed complexType (a container whose
            # descendants happen to be mixed is still a container).
            is_container = inner_element
            mixed = not inner_element and 'mixed="true"' in body
        min_match = _MIN_RE.search(attrs)
        max_match = _MAX_RE.search(attrs)
        entries.append(
            _XsdElement(
                name=name,
                depth=indent,
                min_occurs=min_match.group(1) if min_match else "1",
                max_occurs=max_match.group(1) if max_match else "1",
                mixed=mixed,
                is_container=is_container,
            )
        )
    return entries


@dataclass
class GuidedOutcome:
    """Result of schema-guided building for one component."""

    spec: ComponentSpec
    outcome: BuildOutcome
    conflicts: list[str]

    @property
    def conforms(self) -> bool:
        return self.outcome.recorded and not self.conflicts


class SchemaGuidedBuilder:
    """Runs the Figure-3 scenario under a pre-existing structure.

    Args:
        builder: an ordinary :class:`MappingRuleBuilder` over the
            working sample.
        template: the declared target structure.
    """

    def __init__(self, builder: MappingRuleBuilder, template: SchemaTemplate):
        self.builder = builder
        self.template = template

    def build(self) -> list[GuidedOutcome]:
        """Build every declared component and validate its properties.

        Conforming rules are recorded under the template's cluster name
        together with its aggregations; non-conforming ones are left in
        the outcome for the user to inspect (the schema, being the
        contract, wins over the learned properties).
        """
        results: list[GuidedOutcome] = []
        for spec in self.template.components:
            outcome = self.builder.build_rule(spec.name)
            conflicts: list[str] = []
            if outcome.rule is not None:
                conflicts = spec.conflicts_with(outcome.rule.component)
            results.append(GuidedOutcome(spec=spec, outcome=outcome,
                                         conflicts=conflicts))
        if all(result.conforms for result in results):
            for aggregation in self.template.aggregations:
                self.builder.repository.record_aggregation(
                    self.template.cluster, aggregation
                )
        return results

    def summary(self, results: Sequence[GuidedOutcome]) -> str:
        lines = []
        for result in results:
            status = "conforms" if result.conforms else (
                f"CONFLICTS: {', '.join(result.conflicts)}"
                if result.conflicts
                else "FAILED to build"
            )
            lines.append(f"{result.spec.name:<20} {status}")
        return "\n".join(lines)
