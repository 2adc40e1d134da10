"""HTTP serve front-end throughput — sockets vs the stdin loop.

Measures requests/second (one page per request line) over a paced
client for the two ``serve`` front-ends:

* the asyncio stdin front-end;
* the HTTP front-end (``serve --http``): one keep-alive connection,
  one ``POST /batch`` whose NDJSON body arrives at the paced rate
  while the chunked NDJSON response streams back concurrently —
  the socket twin of the paced-stdin scenario.

Pacing models a real upstream feed (:data:`PRODUCER_LATENCY` per
line): the front-ends win exactly by overlapping that production
latency with extraction, and the HTTP layer must not squander the win
on framing.

Acceptance bar (failing the run — this file is CI's regression gate
for the socket ingress): HTTP throughput must stay within
:data:`MIN_HTTP_VS_ASYNC` of the asyncio stdin loop on the same paced
corpus.  Results merge into the ``$BENCH_RESULTS`` JSON artifact next
to the other service measurements.

This measures *one* serve process — the baseline the multi-worker
supervisor is gated against (``bench_multiworker_serve`` asserts the
2-worker gateway fleet clears 1.8x of it, byte-identically).
"""

import asyncio
import io
import json
import time

from repro.core.builder import MappingRuleBuilder
from repro.core.oracle import ScriptedOracle
from repro.core.repository import RuleRepository
from repro.service.http import HttpFrontEnd
from repro.service.serve import ServeHandler, serve_async
from repro.sites.imdb import generate_imdb_site

from conftest import emit, write_results

#: Pages fed through each front-end.
SERVE_PAGES = 120

#: Seconds the paced producer spends per line — the modelled cost of
#: the upstream pipe/network filling the input.
PRODUCER_LATENCY = 0.001

#: Regression floor: HTTP must sustain at least this fraction of the
#: asyncio stdin front-end's throughput on the paced corpus.
MIN_HTTP_VS_ASYNC = 0.9


def _serve_corpus() -> tuple[ServeHandler, list[str]]:
    site = generate_imdb_site(n_movies=160, n_actors=40, seed=17)
    movies = site.pages_with_hint("imdb-movies")
    repository = RuleRepository()
    MappingRuleBuilder(
        movies[:8], ScriptedOracle(), repository=repository,
        cluster_name="imdb-movies", seed=1,
    ).build_all(["title", "rating", "genres"])
    handler = ServeHandler(repository, cluster="imdb-movies")
    lines = [
        json.dumps({"url": page.url, "html": page.html})
        for page in movies[:SERVE_PAGES]
    ]
    for page in movies[:SERVE_PAGES]:  # parse once; measure the front-ends
        page.document
    return handler, lines


class _PacedStdin:
    """A stdin whose producer needs ~1 ms per line, like a real pipe."""

    def __init__(self, lines: list[str]) -> None:
        self._lines = iter(lines)

    def readline(self) -> str:
        time.sleep(PRODUCER_LATENCY)
        return next(self._lines, "")


def _async_stdin_seconds(handler, lines: list[str]) -> float:
    stdin = _PacedStdin([line + "\n" for line in lines])
    out = io.StringIO()
    started = time.perf_counter()
    stats = asyncio.run(serve_async(handler, stdin, out, max_inflight=8))
    elapsed = time.perf_counter() - started
    assert stats.served == len(lines)
    return elapsed


async def _paced_batch_round(handler, lines: list[str]) -> float:
    """One paced client, one keep-alive ``POST /batch``, full drain."""
    front = HttpFrontEnd(handler, "127.0.0.1", 0, max_inflight=8)
    await front.start()
    reader, writer = await asyncio.open_connection("127.0.0.1", front.port)
    payload = [(line + "\n").encode("utf-8") for line in lines]
    total_bytes = sum(len(data) for data in payload)
    started = time.perf_counter()
    writer.write((
        f"POST /batch HTTP/1.1\r\nHost: bench\r\n"
        f"Connection: close\r\nContent-Length: {total_bytes}\r\n\r\n"
    ).encode("latin-1"))

    async def _produce() -> None:
        for data in payload:
            await asyncio.sleep(PRODUCER_LATENCY)  # the paced upstream
            writer.write(data)
            await writer.drain()

    async def _consume() -> int:
        head = await reader.readuntil(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200"), head
        records = 0
        while True:
            size = int((await reader.readline()).strip(), 16)
            if size == 0:
                await reader.readline()
                return records
            body = await reader.readexactly(size)
            await reader.readexactly(2)
            records += body.count(b"\n")

    _, records = await asyncio.gather(_produce(), _consume())
    elapsed = time.perf_counter() - started
    writer.close()
    stats = await front.shutdown()
    assert records == len(lines)
    assert stats.served == len(lines)
    return elapsed


def _http_seconds(handler, lines: list[str]) -> float:
    return asyncio.run(_paced_batch_round(handler, lines))


def test_http_serve_throughput(benchmark):
    handler, lines = _serve_corpus()
    total = len(lines)

    async_seconds = _async_stdin_seconds(handler, lines)
    http_seconds = benchmark.pedantic(
        lambda: _http_seconds(handler, lines), rounds=1, iterations=1,
    )

    def pps(seconds: float) -> float:
        return total / seconds

    http_vs_async = async_seconds / http_seconds
    emit(
        "HTTP serve front-end (requests/second, higher is better)",
        "\n".join([
            f"pages: {total}, producer latency: "
            f"{PRODUCER_LATENCY * 1000:.1f} ms/line, 8 in flight",
            f"async stdin loop     : {pps(async_seconds):9.1f} req/s",
            f"http /batch stream   : {pps(http_seconds):9.1f} req/s"
            f"  ({http_vs_async:.2f}x async stdin)",
        ]),
    )
    results_path = write_results({
        "http_serve": {
            "pages": total,
            "producer_latency_seconds": PRODUCER_LATENCY,
            "requests_per_second": {
                "async_stdin_paced": pps(async_seconds),
                "http_batch_paced": pps(http_seconds),
            },
            "http_vs_async_stdin": http_vs_async,
            "min_http_vs_async": MIN_HTTP_VS_ASYNC,
        },
    })
    print(f"results written to {results_path}")

    # Regression gate: the socket ingress must not squander the async
    # overlap win on HTTP framing.
    assert http_vs_async >= MIN_HTTP_VS_ASYNC, (
        f"HTTP serve is only {http_vs_async:.2f}x the async stdin loop "
        f"(regression floor: {MIN_HTTP_VS_ASYNC}x)"
    )
