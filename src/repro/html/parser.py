"""Tolerant HTML tree builder.

Consumes the token stream from :mod:`repro.html.tokenizer` and builds a
:class:`repro.dom.Document`.  The builder guarantees the canonical page
shape the paper's XPaths assume::

    Document
      HTML
        HEAD?    (only when head content exists)
        BODY     (always)

so that a mapping-rule location such as ``BODY[1]/DIV[2]/TABLE[3]/...``
(Section 2.3) evaluates with the ``HTML`` element as context node on any
input, however malformed.

Error-recovery rules implemented (a pragmatic subset of the HTML5
algorithm, matching what 2006-era data-intensive pages need):

* void elements (``<BR>``, ``<IMG>``, ...) never open a scope;
* implied end tags: a new ``<p>`` closes an open ``<p>``, ``<li>`` closes
  ``<li>``, ``<tr>`` closes ``<tr>``/``<td>``/``<th>``, ``<td>``/``<th>``
  close ``<td>``/``<th>``, ``<option>`` closes ``<option>``,
  ``<dt>``/``<dd>`` close each other, table sections close each other;
* stray end tags with no matching open element are dropped;
* an end tag for an ancestor closes every element in between;
* formatting elements are never popped across a table cell boundary.
"""

from __future__ import annotations

from typing import Optional

from repro.dom.node import Comment, Document, Element, Text
from repro.dom.serialize import VOID_ELEMENTS
from repro.html.tokenizer import (
    CommentToken,
    EndTagToken,
    StartTagToken,
    TextToken,
    tokenize,
)

#: Tags that belong in <HEAD> when seen before any body content.
_HEAD_TAGS: frozenset[str] = frozenset(
    {"TITLE", "META", "LINK", "BASE", "STYLE"}
)

#: tag -> set of open tags it implicitly closes when it starts.
_IMPLIED_END: dict[str, frozenset[str]] = {
    "P": frozenset({"P"}),
    "LI": frozenset({"LI"}),
    "DT": frozenset({"DT", "DD"}),
    "DD": frozenset({"DT", "DD"}),
    "TR": frozenset({"TR", "TD", "TH"}),
    "TD": frozenset({"TD", "TH"}),
    "TH": frozenset({"TD", "TH"}),
    "THEAD": frozenset({"THEAD", "TBODY", "TFOOT", "TR", "TD", "TH"}),
    "TBODY": frozenset({"THEAD", "TBODY", "TFOOT", "TR", "TD", "TH"}),
    "TFOOT": frozenset({"THEAD", "TBODY", "TFOOT", "TR", "TD", "TH"}),
    "OPTION": frozenset({"OPTION"}),
    "OPTGROUP": frozenset({"OPTION", "OPTGROUP"}),
    "COLGROUP": frozenset({"COLGROUP"}),
    # Block-level elements implicitly close an open paragraph.
    "UL": frozenset({"P"}),
    "OL": frozenset({"P"}),
    "DL": frozenset({"P"}),
    "TABLE": frozenset({"P"}),
    "DIV": frozenset({"P"}),
    "H1": frozenset({"P"}),
    "H2": frozenset({"P"}),
    "H3": frozenset({"P"}),
    "H4": frozenset({"P"}),
    "H5": frozenset({"P"}),
    "H6": frozenset({"P"}),
    "BLOCKQUOTE": frozenset({"P"}),
    "PRE": frozenset({"P"}),
    "HR": frozenset({"P"}),
    "FORM": frozenset({"P"}),
}

#: Tags whose implied-close search must stop at these boundaries, so a
#: new `<li>` inside a nested `<ul>` does not close the outer `<li>`.
_CLOSE_BOUNDARIES: dict[str, frozenset[str]] = {
    "P": frozenset({"BODY", "TD", "TH", "TABLE", "DIV"}),
    "LI": frozenset({"UL", "OL", "BODY"}),
    "DT": frozenset({"DL", "BODY"}),
    "DD": frozenset({"DL", "BODY"}),
    "TR": frozenset({"TABLE", "THEAD", "TBODY", "TFOOT", "BODY"}),
    "TD": frozenset({"TR", "TABLE", "BODY"}),
    "TH": frozenset({"TR", "TABLE", "BODY"}),
    "THEAD": frozenset({"TABLE", "BODY"}),
    "TBODY": frozenset({"TABLE", "BODY"}),
    "TFOOT": frozenset({"TABLE", "BODY"}),
    "OPTION": frozenset({"SELECT", "BODY"}),
    "OPTGROUP": frozenset({"SELECT", "BODY"}),
    "COLGROUP": frozenset({"TABLE", "BODY"}),
}

#: Boundary set shared by the block elements that implicitly close <P>:
#: the paragraph must be a sibling scope, never one outside the nearest
#: cell/list-item/quote container.
_P_CLOSER_BOUNDARIES = frozenset({"BODY", "TD", "TH", "LI", "CAPTION", "BLOCKQUOTE", "DIV"})
for _tag in (
    "UL", "OL", "DL", "TABLE", "DIV", "H1", "H2", "H3", "H4", "H5", "H6",
    "BLOCKQUOTE", "PRE", "HR", "FORM",
):
    _CLOSE_BOUNDARIES[_tag] = _P_CLOSER_BOUNDARIES

#: End tags never matched across these container boundaries, preventing a
#: stray ``</b>`` from popping a table cell.
_SCOPE_BOUNDARIES: frozenset[str] = frozenset(
    {"BODY", "HTML", "TABLE", "TD", "TH", "CAPTION"}
)


class _TreeBuilder:
    """Incremental builder holding the open-element stack."""

    def __init__(self, url: str) -> None:
        self.document = Document(url)
        self.html: Optional[Element] = None
        self.head: Optional[Element] = None
        self.body: Optional[Element] = None
        self.stack: list[Element] = []

    # -- structure synthesis -------------------------------------------- #

    def ensure_html(self, attrs: Optional[dict[str, str]] = None) -> Element:
        if self.html is None:
            self.html = Element("HTML", attrs)
            self.document.append_child(self.html)
        elif attrs:
            for name, value in attrs.items():
                self.html.attributes.setdefault(name, value)
        return self.html

    def ensure_head(self) -> Element:
        html = self.ensure_html()
        if self.head is None:
            self.head = Element("HEAD")
            # HEAD always precedes BODY.
            html.insert_before(self.head, self.body)
        return self.head

    def ensure_body(self, attrs: Optional[dict[str, str]] = None) -> Element:
        html = self.ensure_html()
        if self.body is None:
            self.body = Element("BODY", attrs)
            html.append_child(self.body)
            self.stack = [self.body]
        elif attrs:
            for name, value in attrs.items():
                self.body.attributes.setdefault(name, value)
        return self.body

    # -- insertion -------------------------------------------------------- #

    @property
    def current(self) -> Element:
        if self.stack:
            return self.stack[-1]
        return self.ensure_body()

    def insert_text(self, data: str) -> None:
        if not data:
            return
        if self.body is None:
            if self.stack:
                # Inside a head element (TITLE/SCRIPT/STYLE content).
                parent = self.stack[-1]
                last = parent.children[-1] if parent.children else None
                if isinstance(last, Text):
                    last.data += data
                else:
                    parent.append_child(Text(data))
                return
            if not data.strip():
                return  # inter-element whitespace before body: drop
            self.ensure_body()
        parent = self.stack[-1]  # the body exists, so the stack is never empty
        children = parent.children
        if children and isinstance(children[-1], Text):
            children[-1].data += data  # merge adjacent text nodes, like browsers
        else:
            # Attached directly rather than by append_child: a fresh
            # node has no parent to detach from, and a tree under
            # construction has no document-order stamps to invalidate.
            text = Text(data)
            text.parent = parent
            children.append(text)

    def insert_comment(self, data: str) -> None:
        if self.body is None and self.html is not None:
            self.html.append_child(Comment(data))
            return
        if self.body is None:
            self.document.append_child(Comment(data))
            return
        self.current.append_child(Comment(data))

    # -- tag handling ------------------------------------------------------ #

    def start_tag(self, token: StartTagToken) -> None:
        tag = token.tag
        if tag == "HTML":
            self.ensure_html(token.attributes)
            return
        if tag == "HEAD":
            self.ensure_head()
            return
        if tag == "BODY":
            self.ensure_body(token.attributes)
            return
        if self.body is None and tag in _HEAD_TAGS:
            head = self.ensure_head()
            element = Element(tag, token.attributes)
            head.append_child(element)
            if tag not in VOID_ELEMENTS and not token.self_closing:
                # TITLE/STYLE content arrives as a following text token.
                self.stack = [element]
            return
        if self.body is None and tag == "SCRIPT":
            head = self.ensure_head()
            element = Element(tag, token.attributes)
            head.append_child(element)
            self.stack = [element]
            return

        if self.body is None:
            self.ensure_body()
        closes = _IMPLIED_END.get(tag)
        if closes:
            self._apply_implied_end_tags(tag, closes)
        element = Element(tag, token.attributes)
        parent = self.stack[-1]  # the body exists, so the stack is never empty
        # Attached directly, as in insert_text.
        element.parent = parent
        parent.children.append(element)
        if tag not in VOID_ELEMENTS and not token.self_closing:
            self.stack.append(element)

    def _apply_implied_end_tags(self, tag: str, closes: frozenset[str]) -> None:
        boundaries = _CLOSE_BOUNDARIES.get(tag, frozenset({"BODY"}))
        # Find the nearest enclosing boundary element (e.g. the TABLE for a
        # new TR, the UL/OL for a new LI), then close the *deepest* open
        # element above it that the new tag implies an end for — together
        # with everything nested inside it.  A new <tr> therefore closes
        # an open <td> AND its row, but never a row of an outer table.
        boundary_index = -1
        for i in range(len(self.stack) - 1, -1, -1):
            if self.stack[i].tag in boundaries:
                boundary_index = i
                break
        for i in range(boundary_index + 1, len(self.stack)):
            if self.stack[i].tag in closes:
                del self.stack[i:]
                return

    def end_tag(self, token: EndTagToken) -> None:
        tag = token.tag
        if tag in ("HTML", "HEAD"):
            # Leaving head scope: subsequent content belongs to body.
            if self.stack and self.body is None:
                self.stack = []
            return
        if tag == "BODY":
            if self.body is not None:
                self.stack = [self.body]
            return
        if tag in VOID_ELEMENTS:
            return  # </br> and friends are ignored
        for i in range(len(self.stack) - 1, -1, -1):
            open_tag = self.stack[i].tag
            if open_tag == tag:
                del self.stack[i:]
                if not self.stack and self.body is not None:
                    self.stack = [self.body]
                return
            if open_tag in _SCOPE_BOUNDARIES and tag not in _SCOPE_BOUNDARIES:
                return  # don't let an inline end tag escape a cell/table
        # No match: stray end tag, dropped.

    # -- finalisation ------------------------------------------------------ #

    def finish(self) -> Document:
        self.ensure_body()
        return self.document


def parse_html(source: str, url: str = "") -> Document:
    """Parse ``source`` into a :class:`repro.dom.Document`.

    Never raises on malformed markup; recovery rules are documented in
    the module docstring.

    Args:
        source: HTML text.
        url: source URL recorded on the document (used in XML export).

    Example:
        >>> doc = parse_html("<p>one<p>two")
        >>> len(doc.document_element.find_all("P"))
        2
    """
    builder = _TreeBuilder(url)
    # The token classes have no subclasses, so the exact type decides;
    # doctype tokens are ignored.
    for token in tokenize(source):
        kind = type(token)
        if kind is TextToken:
            builder.insert_text(token.data)
        elif kind is StartTagToken:
            builder.start_tag(token)
        elif kind is EndTagToken:
            builder.end_tag(token)
        elif kind is CommentToken:
            builder.insert_comment(token.data)
    return builder.finish()
