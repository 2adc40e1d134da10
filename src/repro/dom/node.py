"""Core DOM node classes.

The tree model intentionally follows the W3C DOM vocabulary used by the
paper (Section 2.3 relies on "DOM-compliant documents"): a
:class:`Document` root owns a tree of :class:`Element`, :class:`Text` and
:class:`Comment` nodes.  Only the features the extraction approach needs
are implemented, but those are implemented carefully:

* stable child lists and parent pointers,
* 1-based *parent-relative positions among same-tag siblings*, which is
  exactly the information a "precise XPath" step like ``TABLE[3]`` encodes
  (Section 3.2),
* total *document order* (depth-first pre-order), required both by XPath
  axis semantics and by the contextual-anchor refinement of Section 3.4.
"""

from __future__ import annotations

import itertools
import sys
from enum import Enum
from typing import Iterable, Iterator, Optional


class NodeType(Enum):
    """Kinds of nodes the DOM distinguishes (subset of W3C node types)."""

    DOCUMENT = "document"
    ELEMENT = "element"
    TEXT = "text"
    COMMENT = "comment"


_node_counter = itertools.count(1)


class _OrderEpoch:
    """One preorder stamping of a tree, shared by every node it numbers.

    :meth:`Node.document_order` stamps a whole tree at once.  A
    structural mutation inside the tree clears ``valid``, and the
    stamps also lapse once ``root`` gains a parent (the tree was
    attached under another), so no stamp is trusted after the tree it
    numbers has changed.
    """

    __slots__ = ("valid", "root")

    def __init__(self, root: "Node") -> None:
        self.valid = True
        self.root = root


class Node:
    """Base class of all DOM nodes.

    Nodes form a tree: every node except the :class:`Document` root has a
    ``parent``; element and document nodes have an ordered ``children``
    list.  Structural mutation goes through :meth:`append_child`,
    :meth:`insert_before` and :meth:`remove_child` so parent pointers
    never go stale.
    """

    node_type: NodeType = NodeType.ELEMENT

    # Slots, not an instance dict: a page is tens of thousands of small
    # objects, built once and then only read.
    __slots__ = ("parent", "children", "_uid", "_order", "_order_epoch")

    def __init__(self) -> None:
        self.parent: Optional[Node] = None
        self.children: list[Node] = []
        # Monotonically increasing creation id; used only as a stable
        # tie-breaker for hashing and debugging, never for document order.
        self._uid = next(_node_counter)
        # The stamping that numbered this node's ``_order`` (its preorder
        # index; see document_order).  A node starts unstamped.
        self._order_epoch: Optional[_OrderEpoch] = None

    # ------------------------------------------------------------------ #
    # Structure mutation
    # ------------------------------------------------------------------ #

    def append_child(self, child: "Node") -> "Node":
        """Attach ``child`` as the last child of this node and return it."""
        if child.parent is not None:
            child.parent.remove_child(child)
        if self._order_epoch is not None:
            self._order_epoch.valid = False
        child.parent = self
        self.children.append(child)
        return child

    def insert_before(self, new_child: "Node", reference: Optional["Node"]) -> "Node":
        """Insert ``new_child`` immediately before ``reference``.

        If ``reference`` is ``None`` the call is equivalent to
        :meth:`append_child` (mirroring the W3C behaviour).
        """
        if reference is None:
            return self.append_child(new_child)
        try:
            index = self.children.index(reference)
        except ValueError:
            raise ValueError("reference node is not a child of this node") from None
        if new_child.parent is not None:
            new_child.parent.remove_child(new_child)
        if self._order_epoch is not None:
            self._order_epoch.valid = False
        new_child.parent = self
        self.children.insert(index, new_child)
        return new_child

    def remove_child(self, child: "Node") -> "Node":
        """Detach ``child`` from this node and return it."""
        try:
            self.children.remove(child)
        except ValueError:
            raise ValueError("node is not a child of this node") from None
        if self._order_epoch is not None:
            self._order_epoch.valid = False
        child.parent = None
        return child

    # ------------------------------------------------------------------ #
    # Navigation
    # ------------------------------------------------------------------ #

    @property
    def owner_document(self) -> Optional["Document"]:
        """The :class:`Document` at the root of this node's tree, if any."""
        node: Optional[Node] = self
        while node is not None:
            if isinstance(node, Document):
                return node
            node = node.parent
        return None

    @property
    def root(self) -> "Node":
        """The topmost ancestor (the node itself when it has no parent)."""
        node: Node = self
        while node.parent is not None:
            node = node.parent
        return node

    @property
    def index_in_parent(self) -> int:
        """0-based index of this node within its parent's children.

        Raises ValueError for a detached node.
        """
        if self.parent is None:
            raise ValueError("node has no parent")
        return self.parent.children.index(self)

    @property
    def previous_sibling(self) -> Optional["Node"]:
        if self.parent is None:
            return None
        index = self.index_in_parent
        if index == 0:
            return None
        return self.parent.children[index - 1]

    @property
    def next_sibling(self) -> Optional["Node"]:
        if self.parent is None:
            return None
        index = self.index_in_parent
        if index + 1 >= len(self.parent.children):
            return None
        return self.parent.children[index + 1]

    def ancestors(self) -> Iterator["Node"]:
        """Yield ancestors from the parent up to (and including) the root."""
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def descendants(self) -> Iterator["Node"]:
        """Yield all descendants in document (depth-first, pre-) order."""
        stack = list(reversed(self.children))
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def self_and_descendants(self) -> Iterator["Node"]:
        """Yield this node followed by its descendants in document order."""
        yield self
        yield from self.descendants()

    def preceding(self) -> Iterator["Node"]:
        """Yield nodes strictly before this one in document order.

        Matches the XPath ``preceding`` axis: ancestors are excluded.
        The paper's contextual-anchor strategy (Section 3.4) looks for a
        constant label text node along exactly this axis (plus preceding
        siblings of ancestors), "trees being traversed according to a
        Depth First Search".

        Lazy, nearest node first, and without recursion: a node nested
        thousands of levels deep walks this axis like any other.
        """
        node: Node = self
        while node.parent is not None:
            siblings = node.parent.children
            for index in range(node.index_in_parent - 1, -1, -1):
                yield from _reverse_document_order(siblings[index])
            node = node.parent

    def following(self) -> Iterator["Node"]:
        """Yield nodes strictly after this subtree in document order.

        Matches the XPath ``following`` axis: descendants are excluded.
        """
        node: Node = self
        while node.parent is not None:
            parent = node.parent
            index = node.index_in_parent
            for sibling in parent.children[index + 1 :]:
                yield from sibling.self_and_descendants()
            node = parent

    # ------------------------------------------------------------------ #
    # Document order
    # ------------------------------------------------------------------ #

    def document_order(self) -> int:
        """This node's preorder index in its tree (the root is 0).

        The first call stamps the whole tree in one walk; later calls
        are O(1) until a mutation (:meth:`append_child`,
        :meth:`insert_before`, :meth:`remove_child`) anywhere in the
        tree invalidates the stamps, and the next call retakes them.
        """
        epoch = self._order_epoch
        if epoch is None or not epoch.valid or epoch.root.parent is not None:
            _stamp_document_order(self.root)
        return self._order

    def compare_document_order(self, other: "Node") -> int:
        """Return -1, 0 or 1 as this node is before, equal to, or after
        ``other`` in their (shared) tree."""
        mine, theirs = self.document_order(), other.document_order()
        return (mine > theirs) - (mine < theirs)

    def contains(self, other: "Node") -> bool:
        """True when ``other`` is this node or one of its descendants."""
        node: Optional[Node] = other
        while node is not None:
            if node is self:
                return True
            node = node.parent
        return False

    # ------------------------------------------------------------------ #
    # Content
    # ------------------------------------------------------------------ #

    def text_content(self) -> str:
        """Concatenation of all descendant text node data, in document order.

        This is the XPath *string-value* of an element node.
        """
        parts: list[str] = []
        for node in self.self_and_descendants():
            if isinstance(node, Text):
                parts.append(node.data)
        return "".join(parts)

    def child_elements(self) -> list["Element"]:
        """The element children, in order."""
        return [child for child in self.children if isinstance(child, Element)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} #{self._uid}>"


def _reverse_document_order(node: Node) -> Iterator[Node]:
    """Yield ``node``'s subtree in reverse document order (node last).

    An explicit stack, so subtree depth is bounded by memory, not by
    the interpreter's recursion limit.
    """
    stack = [(node, False)]
    while stack:
        current, expanded = stack.pop()
        if expanded or not current.children:
            yield current
        else:
            stack.append((current, True))
            stack.extend((child, False) for child in current.children)


def _stamp_document_order(root: Node) -> None:
    """Number ``root``'s tree in preorder under one fresh epoch."""
    epoch = _OrderEpoch(root)
    order = 0
    stack = [root]
    while stack:
        node = stack.pop()
        node._order = order
        node._order_epoch = epoch
        order += 1
        if node.children:
            stack.extend(reversed(node.children))


class Document(Node):
    """The root of a parsed page.

    Carries the source URL (used by the extraction step, which stamps each
    exported page element with its URI, cf. Figure 5 of the paper).
    """

    node_type = NodeType.DOCUMENT

    __slots__ = ("url",)

    def __init__(self, url: str = "") -> None:
        super().__init__()
        self.url = url

    @property
    def document_element(self) -> Optional["Element"]:
        """The single top-level element (``<HTML>`` for parsed pages)."""
        for child in self.children:
            if isinstance(child, Element):
                return child
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Document url={self.url!r}>"


class Element(Node):
    """An element node with a tag name and attributes.

    Tag names are normalised to upper case at construction time.  The
    paper displays XPaths with upper-case HTML tags
    (``BODY[1]/DIV[2]/TABLE[3]/...``), and HTML tag names are
    case-insensitive, so a single canonical case keeps XPath matching
    simple and faithful to the paper's notation.

    Tag and attribute *names* are interned: a parsed corpus repeats the
    same handful of strings millions of times, and interning both cuts
    that memory and turns the automaton's tag comparisons into pointer
    checks.  Attribute *values* and text content stay as-is — they are
    high-cardinality page data.
    """

    node_type = NodeType.ELEMENT

    __slots__ = ("tag", "attributes")

    def __init__(self, tag: str, attributes: Optional[dict[str, str]] = None) -> None:
        super().__init__()
        self.tag = sys.intern(tag.upper())
        self.attributes: dict[str, str] = (
            {sys.intern(name): value for name, value in attributes.items()}
            if attributes
            else {}
        )

    # -- attributes ----------------------------------------------------- #

    def get_attribute(self, name: str) -> Optional[str]:
        """Attribute value by case-insensitive name, or ``None``."""
        return self.attributes.get(name.lower())

    def set_attribute(self, name: str, value: str) -> None:
        self.attributes[sys.intern(name.lower())] = value

    def has_attribute(self, name: str) -> bool:
        return name.lower() in self.attributes

    # -- positions (XPath support) --------------------------------------- #

    def position_among_same_tag(self) -> int:
        """1-based position among siblings with the same tag name.

        This is the number a *precise XPath* step records: in
        ``.../TABLE[3]/...`` the element is the third ``TABLE`` child of
        its parent (Section 3.2 of the paper).
        Detached elements report position 1.
        """
        if self.parent is None:
            return 1
        position = 0
        for sibling in self.parent.children:
            if isinstance(sibling, Element) and sibling.tag == self.tag:
                position += 1
                if sibling is self:
                    return position
        raise ValueError("element not found among its parent's children")

    def same_tag_sibling_count(self) -> int:
        """Number of siblings (including self) sharing this tag name."""
        if self.parent is None:
            return 1
        return sum(
            1
            for sibling in self.parent.children
            if isinstance(sibling, Element) and sibling.tag == self.tag
        )

    # -- convenience ----------------------------------------------------- #

    def find_all(self, tag: str) -> list["Element"]:
        """All descendant elements with the given tag, in document order."""
        wanted = tag.upper()
        return [
            node
            for node in self.descendants()
            if isinstance(node, Element) and node.tag == wanted
        ]

    def find_first(self, tag: str) -> Optional["Element"]:
        """First descendant element with the given tag, or ``None``."""
        wanted = tag.upper()
        for node in self.descendants():
            if isinstance(node, Element) and node.tag == wanted:
                return node
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        attrs = "".join(f" {k}={v!r}" for k, v in self.attributes.items())
        return f"<Element {self.tag}{attrs}>"


class CharacterData(Node):
    """Common base of nodes that carry character data (text, comments)."""

    __slots__ = ("data",)

    def __init__(self, data: str) -> None:
        super().__init__()
        self.data = data

    def text_content(self) -> str:
        return self.data


class Text(CharacterData):
    """A text node.

    Text nodes are the leaves the paper's *component values* live in:
    "each component value is currently a text node, i.e., a leaf node in
    the HTML hierarchical structure" (Section 7).
    """

    node_type = NodeType.TEXT

    __slots__ = ()

    def position_among_text_siblings(self) -> int:
        """1-based position among this node's text siblings.

        This is the index in a trailing ``text()[n]`` step of a precise
        XPath, e.g. ``.../TD[1]/text()[1]``.
        """
        if self.parent is None:
            return 1
        position = 0
        for sibling in self.parent.children:
            if isinstance(sibling, Text):
                position += 1
                if sibling is self:
                    return position
        raise ValueError("text node not found among its parent's children")

    def is_whitespace(self) -> bool:
        """True when the node contains only whitespace characters."""
        return not self.data.strip()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        preview = self.data if len(self.data) <= 40 else self.data[:37] + "..."
        return f"<Text {preview!r}>"


class Comment(CharacterData):
    """An HTML/XML comment node.  Invisible to ``text_content``."""

    node_type = NodeType.COMMENT

    __slots__ = ()

    def text_content(self) -> str:
        return ""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Comment {self.data!r}>"


def sort_document_order(nodes: Iterable[Node]) -> list[Node]:
    """Sort ``nodes`` into document order, removing duplicates.

    All nodes must belong to the same tree.  This is the normalisation
    XPath applies to node-sets before returning them.
    """
    unique: dict[int, Node] = {}
    for node in nodes:
        unique[id(node)] = node
    return sorted(unique.values(), key=Node.document_order)
