"""Mapping rules: a page component paired with XPath locations.

"A mapping rule is the formalization of the properties of a page
component.  Each mapping rule addresses exactly one page component, and,
conversely, a page component can be mapped by exactly one mapping rule"
(Section 2.3).

A rule carries an ordered tuple of location XPaths.  The first is the
primary location; later entries are *alternative paths* appended during
refinement ("a component value is selected in a page where it could not
be located to produce a new XPath expression that is appended to the
mapping rule", Section 3.4).  Application tries locations in order and
returns the first non-empty match.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.dom.node import Element, Node, Text
from repro.dom.serialize import to_xml
from repro.errors import RuleValidationError
from repro.core.component import Format, PageComponent
from repro.xpath.engine import compile_xpath


def normalize_value(text: str) -> str:
    """Whitespace-normalised form used for value comparison and export."""
    return " ".join(text.split())


@dataclass(frozen=True)
class ComponentValue:
    """One extracted component value.

    Attributes:
        text: whitespace-normalised string content.
        nodes: the DOM nodes the value is made of (one text node for a
            ``text`` component; several, interleaved with markup, for a
            ``mixed`` one).
    """

    text: str
    nodes: tuple[Node, ...]

    def as_xml(self) -> str:
        """XML serialisation of the value, preserving inline markup.

        For a pure-text value this is just the escaped text; for a
        mixed value, the markup between the text nodes is preserved by
        serialising every node of the value.
        """
        return "".join(to_xml(node) for node in self.nodes).strip()


@dataclass(frozen=True)
class MatchResult:
    """Result of applying one rule to one page."""

    nodes: tuple[Node, ...]
    values: tuple[ComponentValue, ...]
    location_used: Optional[str]  # which XPath produced the match

    @property
    def is_void(self) -> bool:
        return not self.nodes

    @property
    def texts(self) -> list[str]:
        return [value.text for value in self.values]


@dataclass(frozen=True)
class MappingRule:
    """A page component plus its location(s) in the cluster's pages.

    Attributes:
        component: the model-independent properties.
        locations: ordered XPath expressions; evaluation context is the
            page's ``HTML`` element, so paper-style paths
            (``BODY[1]/DIV[2]/...``) work verbatim.
    """

    component: PageComponent
    locations: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.locations:
            raise RuleValidationError(
                f"rule for {self.component.name!r} needs at least one location"
            )
        for location in self.locations:
            compile_xpath(location)  # validates syntax eagerly

    # -- convenience accessors ------------------------------------------- #

    @property
    def name(self) -> str:
        return self.component.name

    @property
    def primary_location(self) -> str:
        return self.locations[0]

    # -- refinement helpers (immutable updates) ---------------------------- #

    def with_component(self, component: PageComponent) -> "MappingRule":
        return replace(self, component=component)

    def with_locations(self, locations: tuple[str, ...]) -> "MappingRule":
        return replace(self, locations=locations)

    def with_primary_location(self, location: str) -> "MappingRule":
        return replace(self, locations=(location, *self.locations[1:]))

    def with_alternative(self, location: str) -> "MappingRule":
        """Append an alternative path (Section 3.4, last strategy)."""
        if location in self.locations:
            return self
        return replace(self, locations=(*self.locations, location))

    # -- application --------------------------------------------------------#

    def apply(self, context: Node) -> MatchResult:
        """Apply the rule to a page.

        Args:
            context: the page's ``HTML`` element (or any context node
                the locations are meant to be resolved against).

        Returns:
            A :class:`MatchResult`; ``is_void`` when no location
            matched anything.
        """
        for location in self.locations:
            nodes = compile_xpath(location).select(context)
            if nodes:
                return self.match_from_nodes(nodes, location)
        return MatchResult(nodes=(), values=(), location_used=None)

    def match_from_nodes(
        self, nodes: list[Node], location: Optional[str]
    ) -> MatchResult:
        """Build a :class:`MatchResult` from nodes selected elsewhere.

        The compiled-wrapper path (:mod:`repro.service.compiler`)
        evaluates locations in one automaton scan and hands the
        selected nodes back here, so value grouping stays identical to
        :meth:`apply`.
        """
        if not nodes:
            return MatchResult(nodes=(), values=(), location_used=None)
        return MatchResult(
            nodes=tuple(nodes),
            values=tuple(self._group_values(list(nodes))),
            location_used=location,
        )

    def _group_values(self, nodes: list[Node]) -> list[ComponentValue]:
        """Group matched nodes into component values.

        * ``text`` format: every matched text node is one value
          (a single-valued rule is *expected* to match exactly one —
          the checker flags violations, cf. Section 7 on failure
          detection).
        * ``mixed`` format: consecutive matched nodes sharing the same
          parent element form one value — "the component value is a
          list of text nodes separated by HTML tags" (Section 7).
        """
        if self.component.format is Format.TEXT:
            return [
                ComponentValue(normalize_value(_node_text(node)), (node,))
                for node in nodes
            ]
        values: list[ComponentValue] = []
        group: list[Node] = []
        group_parent: Optional[Node] = None

        def flush() -> None:
            nonlocal group, group_parent
            if group:
                values.append(_make_mixed_value(group))
            group, group_parent = [], None

        for node in nodes:
            if isinstance(node, Element):
                # A matched element IS one mixed value (its whole content).
                flush()
                values.append(_make_mixed_value([node]))
                continue
            parent = node.parent
            if group and parent is not group_parent:
                flush()
            group.append(node)
            group_parent = parent
        flush()
        return values

    # -- (de)serialisation ---------------------------------------------------#

    def to_dict(self) -> dict:
        data = self.component.to_dict()
        data["locations"] = list(self.locations)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "MappingRule":
        component = PageComponent.from_dict(data)
        locations = data.get("locations")
        if not locations:
            # Backwards-compatible single-location form.
            single = data.get("location")
            if not single:
                raise RuleValidationError("rule dict has no location(s)")
            locations = [single]
        return cls(component=component, locations=tuple(locations))

    def describe(self) -> str:
        """The paper's rule rendering (Section 2.3 sample)."""
        lines = [
            f"name         : {self.component.name}",
            f"optionality  : {self.component.optionality.value}",
            f"multiplicity : {self.component.multiplicity.value}",
            f"format       : {self.component.format.value}",
        ]
        for index, location in enumerate(self.locations):
            label = "location" if index == 0 else f"location[{index}]"
            lines.append(f"{label:<13}: {location}")
        return "\n".join(lines)


def _node_text(node: Node) -> str:
    if isinstance(node, Text):
        return node.data
    return node.text_content()


def _make_mixed_value(nodes: list[Node]) -> ComponentValue:
    text = normalize_value(" ".join(_node_text(node) for node in nodes))
    return ComponentValue(text, tuple(nodes))
