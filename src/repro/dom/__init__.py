"""A small DOM implementation for HTML and XML documents.

This package provides the tree model on which the whole library operates:
the HTML parser (:mod:`repro.html`) builds these trees, the XPath engine
(:mod:`repro.xpath`) selects nodes in them, and the mapping-rule machinery
(:mod:`repro.core`) records locations of nodes as XPath expressions.

It deliberately mirrors the subset of the W3C DOM that the paper's
Mozilla-based tool relies on: element/text/comment nodes, parent/child and
sibling navigation, and a stable *document order* (depth-first, the
"most natural way of reading a document" per Section 3.4 of the paper).

Example:
    >>> from repro.dom import Document, Element, Text
    >>> doc = Document()
    >>> body = Element("BODY")
    >>> doc.append_child(body)
    <Element BODY>
    >>> body.append_child(Text("hello"))
    <Text 'hello'>
    >>> body.text_content()
    'hello'
"""

from repro.dom.node import (
    Comment,
    Document,
    Element,
    Node,
    NodeType,
    Text,
)
from repro.dom.serialize import to_html, to_xml
from repro.dom.traversal import (
    depth_of,
    iter_dfs,
    iter_elements,
    iter_text_nodes,
    max_depth,
    tag_path,
    tag_sequence,
    tree_size,
    tree_signature,
)

__all__ = [
    "Comment",
    "Document",
    "Element",
    "Node",
    "NodeType",
    "Text",
    "to_html",
    "to_xml",
    "iter_dfs",
    "iter_elements",
    "iter_text_nodes",
    "tag_path",
    "tag_sequence",
    "tree_signature",
    "tree_size",
    "max_depth",
    "depth_of",
]
