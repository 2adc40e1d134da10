"""Spans around the calls into each layer, and the per-page decompositions.

The traced run splits each page's work by calling the program's public
layer functions itself, in the order the program calls them:

* ``parse``: :func:`repro.html.parse_html`, installed as the page's DOM;
* ``signature``: :func:`repro.clustering.features.page_signature`;
* ``route``: :meth:`ClusterRouter.route_signature`;
* ``extract``: :meth:`CompiledWrapper.extract_page`;
* ``serialize``: ``json.dumps(record, sort_keys=True)``.

Each page gets a ``request`` span with those spans as children.  The
decomposed record must equal the record the real path produced byte
for byte; otherwise the split would describe some other computation.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Callable, Optional

from repro.clustering.features import page_signature
from repro.html import parse_html
from repro.service import PageRecord
from repro.sites.page import WebPage

LAYERS = ("parse", "signature", "route", "extract", "serialize")


@dataclass(frozen=True)
class Span:
    """One timed call: ``parent`` is a span id, ``request`` a page id."""

    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    request: int

    def to_dict(self) -> dict:
        """JSON form, for the span file written when the run ends."""
        return {"id": self.span_id, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent,
                "request": self.request}


class Tracer:
    """Keeps spans in memory; ``enabled=False`` records nothing."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self._next_id = 0

    def open(self) -> tuple[int, float]:
        """Reserve a span id and read its start time."""
        self._next_id += 1
        return self._next_id, time.perf_counter()

    def close(self, opened: tuple[int, float], name: str,
              parent: Optional[int], request: int) -> int:
        """Record the span ``open`` started; returns its id."""
        span_id, start = opened
        if self.enabled:
            self.spans.append(Span(span_id, name, start,
                                   time.perf_counter(), parent, request))
        return span_id

    def call(self, name: str, parent: Optional[int], request: int,
             fn: Callable, *args):
        """``fn(*args)`` inside a span (plain call when disabled)."""
        if not self.enabled:
            return fn(*args)
        opened = self.open()
        result = fn(*args)
        self.close(opened, name, parent, request)
        return result


def self_times(spans: list[Span]) -> dict[int, dict[str, float]]:
    """Per request, each layer's summed self time in seconds.

    A span's self time is its duration minus the part its children
    cover; children here are sequential calls, so that part is the sum
    of their durations.
    """
    children: dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            children[span.parent] = (
                children.get(span.parent, 0.0) + span.end - span.start
            )
    out: dict[int, dict[str, float]] = {}
    for span in spans:
        own = span.end - span.start - children.get(span.span_id, 0.0)
        layers = out.setdefault(span.request, {})
        layers[span.name] = layers.get(span.name, 0.0) + own
    return out


def _parse(page: WebPage) -> None:
    page.document = parse_html(page.html, url=page.url)


def _record_line(url: str, cluster: str, extracted, failures,
                 index: Optional[int]) -> str:
    """The record as the real path serializes it.

    Serve answers are the four-key record ``ServeHandler`` writes; batch
    answers are the sink's ``PageRecord.to_dict()`` line (with index).
    """
    pairs = [(f.component_name, f.reason) for f in failures]
    if index is None:
        payload = {"url": url, "cluster": cluster,
                   "values": extracted.values,
                   "failures": [list(pair) for pair in pairs]}
    else:
        payload = PageRecord(url=url, cluster=cluster,
                             values=extracted.values, failures=pairs,
                             index=index).to_dict()
    return json.dumps(payload, sort_keys=True)


def decompose(
    tracer: Tracer,
    request: int,
    url: str,
    html: str,
    router,
    wrapper_for: Callable,
    hint: str = "",
    index: Optional[int] = None,
    reparse: bool = False,
) -> tuple[Optional[str], Optional[str]]:
    """One page through the layers; returns ``(cluster, record line)``.

    With a ``router`` the page is parsed, signed and routed first (the
    serve and batch paths); without one it goes to ``hint``'s wrapper
    (``--route hint``).  ``reparse`` parses again before extracting,
    as a process worker does with the HTML it is sent.  An unroutable
    page yields ``(None, None)``.
    """
    root_opened = tracer.open()
    root = root_opened[0]
    page = WebPage(url=url, html=html)
    tracer.call("parse", root, request, _parse, page)
    if router is not None:
        signature = tracer.call("signature", root, request,
                                page_signature, page)
        decision = tracer.call("route", root, request,
                               router.route_signature, signature)
        cluster = decision.cluster
    else:
        cluster = hint
    line = None
    wrapper = wrapper_for(cluster)  # None for the unroutable bucket
    if wrapper is not None:
        if reparse:
            page = WebPage(url=url, html=html)
            tracer.call("parse", root, request, _parse, page)
        failures: list = []
        extracted = tracer.call("extract", root, request,
                                wrapper.extract_page, page, failures)
        line = tracer.call("serialize", root, request, _record_line,
                           url, cluster, extracted, failures, index)
    tracer.close(root_opened, "request", None, request)
    return (cluster if wrapper is not None else None), line
