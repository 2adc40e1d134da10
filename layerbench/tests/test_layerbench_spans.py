"""The traced decomposition: self times, and records equal the real path's."""

import io

import pytest

import corpus
from spans import LAYERS, Span, Tracer, decompose, self_times

from repro.service import (
    IterablePageSource,
    JsonlSink,
    ServeHandler,
    StreamingRuntime,
)
from repro.service.metrics import NULL_METRICS
from repro.sites.page import WebPage


@pytest.fixture(scope="module")
def artifact():
    return corpus.induce_artifact()


def test_self_time_subtracts_child_spans():
    spans = [
        Span(2, "parse", 1.0, 3.0, 1, 7),
        Span(3, "extract", 4.0, 9.0, 1, 7),
        Span(1, "request", 0.0, 10.0, None, 7),
        Span(4, "handle_line", 20.0, 24.0, None, 8),
    ]
    assert self_times(spans) == {
        7: {"parse": 2.0, "extract": 5.0, "request": 3.0},
        8: {"handle_line": 4.0},
    }


def test_decomposed_record_is_the_served_record(artifact):
    repository, router = artifact
    handler = ServeHandler(repository, router=router, metrics=NULL_METRICS)
    tracer = Tracer()
    pages = corpus.balanced_rounds(2, rounds=1, per_family=1)[0]
    for request, page in enumerate(pages):
        cluster, line = decompose(tracer, request, page.url, page.html,
                                  router, handler.runtime.wrapper_for)
        assert cluster == page.family
        assert line == handler.handle_line(page.request_line())[0]
    names = [span.name for span in tracer.spans if span.request == 0]
    assert names == [*LAYERS, "request"]
    root = [s for s in tracer.spans if s.request == 0 and s.parent is None]
    assert len(root) == 1
    assert all(s.parent == root[0].span_id for s in tracer.spans
               if s.request == 0 and s is not root[0])


def test_hint_routed_decomposition_matches_the_runtime_sink(artifact):
    repository, _ = artifact
    runtime = StreamingRuntime(repository, executor="inline", workers=1,
                               chunk_size=1, metrics=NULL_METRICS)
    quiet = Tracer(enabled=False)
    for index, page in enumerate(corpus.padded_corpus(4)[:6]):
        if page.size == "16x":
            continue
        buffer = io.StringIO()
        with JsonlSink(buffer) as sink:
            runtime.run(IterablePageSource(
                [WebPage(url=page.url, html=page.html,
                         cluster_hint=page.family)], start=index), sink)
        _, line = decompose(quiet, index, page.url, page.html, None,
                            runtime.wrapper_for, hint=page.family,
                            index=index)
        assert line + "\n" == buffer.getvalue()
    assert quiet.spans == []
