"""Tree traversal helpers and structural summaries.

Besides generic iteration, this module provides the structural summaries
used by the clustering subsystem (Section 2.1 of the paper partitions a
site's pages by "close HTML structure"):

* :func:`tag_sequence` — the DFS sequence of tag names, input to the
  tag-periodicity/sequence-similarity heuristics;
* :func:`tag_path` — the root-to-node path of tag names (a *tag path
  profile* is the multiset of these over a page);
* :func:`tree_signature` — a stable structural hash for grouping
  identically shaped pages cheaply.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.dom.node import Document, Element, Node, Text


def iter_dfs(root: Node) -> Iterator[Node]:
    """Iterate ``root`` and all descendants in document order."""
    yield from root.self_and_descendants()


def iter_elements(root: Node, tag: Optional[str] = None) -> Iterator[Element]:
    """Iterate descendant-or-self elements, optionally filtered by tag."""
    wanted = tag.upper() if tag else None
    for node in root.self_and_descendants():
        if isinstance(node, Element) and (wanted is None or node.tag == wanted):
            yield node


def iter_text_nodes(root: Node, skip_whitespace: bool = False) -> Iterator[Text]:
    """Iterate descendant text nodes in document order."""
    for node in root.self_and_descendants():
        if isinstance(node, Text):
            if skip_whitespace and node.is_whitespace():
                continue
            yield node


def find_text_node(root: Node, needle: str) -> Optional[Text]:
    """First text node whose stripped data contains ``needle``.

    This is the programmatic stand-in for the user *selecting* a value in
    the rendered page (Section 3.2): instead of a mouse click we locate
    the visible string.
    """
    for text in iter_text_nodes(root):
        if needle in text.data:
            return text
    return None


def find_text_node_exact(root: Node, value: str) -> Optional[Text]:
    """First text node whose stripped data equals ``value`` stripped."""
    wanted = value.strip()
    for text in iter_text_nodes(root):
        if text.data.strip() == wanted:
            return text
    return None


def tag_path(node: Node) -> tuple[str, ...]:
    """Root-to-node tuple of element tag names.

    Text/comment leaves contribute a pseudo-tag ``#text`` / ``#comment``
    so that paths of different node kinds remain distinguishable.
    """
    parts: list[str] = []
    current: Optional[Node] = node
    while current is not None and not isinstance(current, Document):
        if isinstance(current, Element):
            parts.append(current.tag)
        elif isinstance(current, Text):
            parts.append("#text")
        else:
            parts.append("#comment")
        current = current.parent
    return tuple(reversed(parts))


def tag_sequence(root: Node) -> list[str]:
    """DFS sequence of element tag names (open events only)."""
    return [node.tag for node in root.self_and_descendants() if isinstance(node, Element)]


def tag_path_profile(root: Node) -> dict[tuple[str, ...], int]:
    """Multiset of root-to-element tag paths, as a path -> count mapping."""
    profile: dict[tuple[str, ...], int] = {}
    for element in iter_elements(root):
        path = tag_path(element)
        profile[path] = profile.get(path, 0) + 1
    return profile


def tree_signature(root: Node) -> int:
    """Stable structural hash of a subtree (tags and shape, not text).

    Two pages with identical element structure but different text content
    hash equal, which is what a page-cluster pre-grouping wants.
    """

    def signature(node: Node) -> int:
        if isinstance(node, Element):
            child_sig = tuple(
                signature(child)
                for child in node.children
                if not isinstance(child, Text) or not child.is_whitespace()
            )
            return hash((node.tag, child_sig))
        if isinstance(node, Text):
            return hash("#text")
        if isinstance(node, Document):
            return hash(("#document", tuple(signature(c) for c in node.children)))
        return hash("#comment")

    return signature(root)


def tree_size(root: Node) -> int:
    """Number of nodes in the subtree rooted at ``root`` (inclusive)."""
    return sum(1 for _ in root.self_and_descendants())


def max_depth(root: Node) -> int:
    """Depth of the deepest node under ``root`` (``root`` itself = 0).

    Section 7 observes the approach is "empirically more effective on
    fine-grained HTML structures (i.e., highly nested documents)"; the
    nesting-depth ablation benchmark quantifies this using this measure.
    """
    best = 0

    def walk(node: Node, depth: int) -> None:
        nonlocal best
        if depth > best:
            best = depth
        for child in node.children:
            walk(child, depth + 1)

    walk(root, 0)
    return best


def depth_of(node: Node) -> int:
    """Number of ancestors of ``node``."""
    return sum(1 for _ in node.ancestors())

