"""The traced run: the workload's corpus split by layer.

Tracing is off in the timed runs; this run is separate.  It calls each
layer's public function around spans (:mod:`spans`), checks that the
decomposed record equals the real path's record byte for byte, and
reports each layer's self time per page (the median over pages of each
page's fastest pass).

batch_mix's traced run also takes the padded corpus
(:func:`corpus.padded_corpus`) through the ``batch --route hint``
composition, for extraction cost per KB at 1x/4x/16x and for what the
fitted router makes of enlarged pages.

A workload sets only the metrics it exercises; ``run.py`` reports the
others as 0 and lists them.
"""

from __future__ import annotations

import io
import json
import os
import time
from pathlib import Path

from corpus import FAMILIES, SIZE_CLASSES
from estimators import median_of
from harness import build
from pages import batch_file, load_pages
from spans import LAYERS, Tracer, decompose, self_times
from workloads import (
    SETUP_STARTS,
    Client,
    Outcome,
    Server,
    harness_ready,
    judge_http,
    run_harness,
)

from repro.clustering.features import page_signature
from repro.dom.traversal import tree_size
from repro.service import IterablePageSource, JsonlSink, StreamingRuntime
from repro.service.metrics import NULL_METRICS
from repro.sites.page import WebPage


class PageTimes:
    """Each page's fastest observation of each quantity, in seconds."""

    def __init__(self) -> None:
        self.best: dict[int, dict[str, float]] = {}

    def note(self, page: int, name: str, seconds: float) -> None:
        """Keep ``seconds`` if it is this page's fastest ``name``."""
        row = self.best.setdefault(page, {})
        if name not in row or seconds < row[name]:
            row[name] = seconds

    def median_ms(self, name: str, pages=None) -> float:
        """Median over ``pages`` (default all) of the fastest, in ms."""
        rows = self.best.values() if pages is None else [
            self.best[p] for p in pages if p in self.best
        ]
        return median_of([row[name] * 1000 for row in rows if name in row])


class TracedRun:
    """State shared by the workloads' traced runs."""

    def __init__(self, ctx, seconds: float) -> None:
        self.ctx = ctx
        self.deadline = time.perf_counter() + seconds
        self.outcome = Outcome(metrics={})
        self.times = PageTimes()
        self.tracer = Tracer()
        self.quiet = Tracer(enabled=False)
        self.spans_out: list[dict] = []
        self.page_of: dict[int, tuple[PageTimes, int]] = {}
        self.decisions: dict[int, str] = {}
        self.mismatches = 0
        self._requests = 0

    def request_id(self, page: int, times: PageTimes = None) -> int:
        """A fresh request id for one pass over ``page``."""
        self._requests += 1
        self.page_of[self._requests] = (times or self.times, page)
        return self._requests

    def passes(self, share: float = 1.0):
        """Pass numbers: at least one, more while ``share`` of the
        remaining time is not used up."""
        until = time.perf_counter() + share * max(
            self.deadline - time.perf_counter(), 0.0
        )
        n = 0
        while n == 0 or time.perf_counter() < until:
            yield n
            n += 1

    def decompose_twice(self, page: int, *args, **kwargs):
        """Traced and untraced decomposition of one page."""
        started = time.perf_counter()
        cluster, line = decompose(self.tracer, self.request_id(page),
                                  *args, **kwargs)
        traced = time.perf_counter() - started
        started = time.perf_counter()
        decompose(self.quiet, 0, *args, **kwargs)
        self.times.note(page, "untraced", time.perf_counter() - started)
        self.times.note(page, "traced", traced)
        self.decisions[page] = cluster
        return line

    def flush_spans(self) -> None:
        """Fold recorded spans into the per-page times."""
        self.spans_out.extend(span.to_dict() for span in self.tracer.spans)
        for request, layers in self_times(self.tracer.spans).items():
            times, page = self.page_of.pop(request)
            for name, seconds in layers.items():
                times.note(page, name, seconds)
            if "request" in layers:
                times.note(page, "layers",
                           sum(layers.get(name, 0.0) for name in LAYERS))
        self.tracer.spans.clear()

    def same(self, decomposed, served) -> None:
        """Count a decomposed record that differs from the served one."""
        if decomposed != served:
            self.mismatches += 1

    def setup(self, kind: str, sample_html: str) -> dict:
        """Median set-up phases over the cold starts a timed run takes."""
        sample = self.ctx.work / "sample.html"
        sample.write_text(sample_html, encoding="utf-8")
        probes = [harness_ready(self.ctx, kind, sample)[1]
                  for _ in range(SETUP_STARTS)]
        return {f"setup.{key}": median_of([p[key] for p in probes])
                for key in probes[0]}


def _automaton_frac(repository, wrapper_for) -> float:
    slots = locations = 0
    for cluster in repository.clusters():
        slots += wrapper_for(cluster).stats.automaton_slots
        locations += sum(len(rule.locations)
                         for rule in repository.rules(cluster))
    return slots / locations


def _layer_metrics(run: TracedRun, pages: list, repository,
                   wrapper_for) -> dict:
    """Per-layer metrics of the workload's own (routed) pages."""
    times = run.times
    by_page = times.best
    metrics = {
        "html.parse_ms": times.median_ms("parse"),
        "html.parse_ms_per_kb": median_of([
            row["parse"] * 1000 / pages[p].kb
            for p, row in by_page.items()
        ]),
        "html.nodes_per_page": median_of([
            tree_size(WebPage(url=page.url, html=page.html).document)
            for page in pages
        ]),
        "signature.ms": times.median_ms("signature"),
        "router.score_ms": times.median_ms("route"),
        "router.routed_frac": sum(
            run.decisions.get(i) == page.family
            for i, page in enumerate(pages)
        ) / len(pages),
        "extract.automaton_location_frac": _automaton_frac(
            repository, wrapper_for
        ),
        "serialize.ms": times.median_ms("serialize"),
        "trace.overhead_ms": median_of([
            (row["traced"] - row["untraced"]) * 1000
            for row in by_page.values()
        ]),
    }
    for family in FAMILIES:
        metrics[f"extract.ms.{family.name}"] = times.median_ms(
            "extract",
            [i for i, p in enumerate(pages) if p.family == family.name],
        )
    return metrics


# --------------------------------------------------------------------- #
# serve_mix
# --------------------------------------------------------------------- #


def _serve(run: TracedRun, inputs: Path) -> dict:
    pages = [page for chunk in load_pages(inputs) for page in chunk]
    metrics = run.setup("serve", pages[0].html)
    repository, router, handler, _ = build(
        "serve", str(run.ctx.registry), str(run.ctx.rules)
    )
    wrapper_for = handler.runtime.wrapper_for
    lines = [page.request_line() for page in pages]
    served: dict[int, tuple[int, bytes]] = {}
    server = Server(run.ctx)
    try:
        client = Client(server.port)
        try:
            for _ in run.passes(share=0.5):
                for i, line in enumerate(lines):
                    body = line.encode("utf-8")
                    cpu = time.thread_time()
                    started = time.perf_counter()
                    answer = client.extract(body)
                    run.times.note(i, "round_trip",
                                   time.perf_counter() - started)
                    run.times.note(i, "client", time.thread_time() - cpu)
                    served.setdefault(i, answer)
        finally:
            client.close()
    finally:
        server.stop()
    for i, page in enumerate(pages):
        judge_http(run.outcome.tally, page, *served[i])
    for _ in run.passes():
        for i, (page, line) in enumerate(zip(pages, lines)):
            decomposed = run.decompose_twice(
                i, page.url, page.html, router, wrapper_for
            )
            real, _ = run.tracer.call("handle_line", None,
                                      run.request_id(i),
                                      handler.handle_line, line)
            run.same(decomposed, real)
            run.same((real + "\n").encode("utf-8"), served[i][1])
        run.flush_spans()
    metrics.update(_layer_metrics(run, pages, repository, wrapper_for))
    by_page = run.times.best
    metrics["serve.glue_ms"] = median_of([
        (row["handle_line"] - row["layers"]) * 1000
        for row in by_page.values()
    ])
    metrics["client.ms"] = run.times.median_ms("client")
    metrics["http.overhead_ms"] = median_of([
        (row["round_trip"] - row["handle_line"] - row["client"]) * 1000
        for row in by_page.values()
    ])
    return metrics


# --------------------------------------------------------------------- #
# batch_mix
# --------------------------------------------------------------------- #


def _padded(run: TracedRun, pages: list, repository, router) -> dict:
    """The padded corpus through ``batch --route hint``, decomposed.

    The real path is one inline ``run()`` over every padded page,
    routed by its hint; each page is then decomposed by hint.  The
    fitted router is asked about each page outside the served path.
    """
    runtime = StreamingRuntime(repository, router=None, workers=1,
                               executor="inline", chunk_size=1,
                               ordered=True, metrics=NULL_METRICS)
    buffer = io.StringIO()
    with JsonlSink(buffer) as sink:
        runtime.run(IterablePageSource(
            WebPage(url=page.url, html=page.html, cluster_hint=page.family)
            for page in pages
        ), sink)
    served = {json.loads(line)["index"]: line
              for line in buffer.getvalue().splitlines()}
    times = PageTimes()
    routed = 0
    for i, page in enumerate(pages):
        real = served.get(i)
        run.outcome.tally.judge(page, json.loads(real) if real else None)
        _, decomposed = decompose(
            run.tracer, run.request_id(i, times), page.url, page.html,
            None, runtime.wrapper_for, hint=page.family, index=i,
        )
        run.same(decomposed, real)
        decision = router.route_signature(
            page_signature(WebPage(url=page.url, html=page.html))
        )
        routed += decision.cluster == page.family
    run.flush_spans()
    metrics = {"router.routed_frac.padded": routed / len(pages)}
    for label, _, _ in SIZE_CLASSES:
        metrics[f"extract.ms_per_kb.{label}"] = median_of([
            row["extract"] * 1000 / pages[p].kb
            for p, row in times.best.items() if pages[p].size == label
        ])
    return metrics


def _batch(run: TracedRun, inputs: Path) -> dict:
    rounds = load_pages(inputs / "rounds.json")
    pages = [page for chunk in rounds for page in chunk]
    size = len(rounds[0])
    paths = [batch_file(inputs, *divmod(p, size)) for p in range(len(pages))]
    metrics = run.setup("batch", pages[0].html)
    repository, router, runtime, _ = build(
        "batch", str(run.ctx.registry), str(run.ctx.rules)
    )
    # The real path: one pass of the batch composition, in a process of
    # its own as in the timed runs.
    result = run_harness(run.ctx, "batch", inputs, 0, "--keep-records")
    run.outcome.tally.merge(result["verdict"])
    wall, cpu_self, cpu_children = result["busy"]
    metrics["runtime.parent_busy_frac"] = cpu_self / wall
    metrics["runtime.worker_busy_frac"] = cpu_children / (
        wall * result["workers"]
    )
    records = Path(result["records"])
    served = {json.loads(line)["index"]: line
              for line in records.read_text(encoding="utf-8").splitlines()}
    records.unlink()
    for position, (page, path) in enumerate(zip(pages, paths)):
        real = served.get(position)
        decomposed = run.decompose_twice(
            position, path.resolve().as_uri(),
            path.read_text(encoding="utf-8"), router,
            runtime.wrapper_for, index=position, reparse=True,
        )
        run.same(decomposed, real)
        if position % size == size - 1:
            run.flush_spans()
    metrics.update(_layer_metrics(run, pages, repository,
                                  runtime.wrapper_for))
    metrics.update(_padded(run, load_pages(inputs / "padded.json"),
                           repository, router))
    return metrics


def traced(workload: str, ctx, inputs: Path, seconds: float) -> Outcome:
    """The traced run of ``workload``; spans go to ``ctx.work``."""
    run = TracedRun(ctx, seconds)
    run.outcome.metrics = {"serve_mix": _serve,
                           "batch_mix": _batch}[workload](run, inputs)
    spans_path = ctx.work / f"spans-{workload}.jsonl"
    with open(spans_path, "w", encoding="utf-8") as handle:
        for span in run.spans_out:
            handle.write(json.dumps(span) + "\n")
    run.outcome.details = {
        "byte_identical": run.mismatches == 0,
        "mismatches": run.mismatches,
        "pages": len(run.times.best),
        "spans": len(run.spans_out),
        "spans_file": os.path.relpath(spans_path, ctx.root),
    }
    return run.outcome
