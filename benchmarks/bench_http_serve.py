"""HTTP serve front-end throughput — sockets vs the stdin loop.

Measures requests/second (one page per request line) over a paced
client for the two ``serve`` front-ends:

* the asyncio stdin front-end;
* the HTTP front-end (``serve --http``): one connection, one
  ``POST /batch`` whose NDJSON body arrives at the paced rate while
  the chunked NDJSON response streams back concurrently — the socket
  twin of the paced-stdin scenario.

Pacing models a real upstream feed (:data:`PRODUCER_LATENCY` per
line): the front-ends win exactly by overlapping that production
latency with extraction, and the HTTP layer must not squander the win
on framing.  On both sides the producer runs on a thread of its own,
off the server's event loop: the stdin loop's reader thread reads a
:class:`_PacedStdin`, and the HTTP client is a blocking socket on its
own thread that sleeps as long per line and then reads the chunked
response.

The two front-ends alternate over :data:`ROUNDS` rounds, each going
first equally often, and each is scored by its best pass, so the ratio
does not rest on one unpaired pass of a host whose speed drifts.

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
import socket
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

#: Timed rounds; each times one pass per front-end, and the one that
#: goes first alternates (an even count: each leads equally often).
ROUNDS = 6

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


def _paced_client(port: int, lines: list[str]) -> tuple[float, int]:
    """One paced ``POST /batch`` over a blocking socket, full drain.

    Sends the head, then one line per :data:`PRODUCER_LATENCY` as
    :class:`_PacedStdin` yields them, then reads the chunked response
    (which the kernel's receive buffer holds meanwhile).  Returns the
    seconds from the first byte sent to the last chunk read, and the
    records received.
    """
    payload = [(line + "\n").encode("utf-8") for line in lines]
    total_bytes = sum(len(data) for data in payload)
    with socket.create_connection(("127.0.0.1", port)) as sock:
        started = time.perf_counter()
        sock.sendall((
            f"POST /batch HTTP/1.1\r\nHost: bench\r\n"
            f"Connection: close\r\nContent-Length: {total_bytes}\r\n\r\n"
        ).encode("latin-1"))
        for data in payload:
            time.sleep(PRODUCER_LATENCY)  # the paced upstream
            sock.sendall(data)
        response = sock.makefile("rb")
        head = b""
        while not head.endswith(b"\r\n\r\n"):
            head += response.readline()
        assert head.startswith(b"HTTP/1.1 200"), head
        records = 0
        while True:
            size = int(response.readline().strip(), 16)
            if size == 0:
                response.readline()
                break
            records += response.read(size).count(b"\n")
            response.read(2)
        elapsed = time.perf_counter() - started
    return elapsed, records


async def _paced_batch_round(handler, lines: list[str]) -> float:
    """One paced client thread against a started HTTP front-end."""
    front = HttpFrontEnd(handler, "127.0.0.1", 0, max_inflight=8)
    await front.start()
    elapsed, records = await asyncio.to_thread(
        _paced_client, front.port, lines
    )
    stats = await front.shutdown()
    assert records == len(lines)
    assert stats.served == len(lines)
    return elapsed


def _http_seconds(handler, lines: list[str]) -> float:
    return asyncio.run(_paced_batch_round(handler, lines))


def _paired(handler, lines: list[str]) -> tuple[float, float]:
    """Best stdin and best HTTP seconds over :data:`ROUNDS` rounds.

    Each round times one pass of each front-end, the one that goes
    first alternating, so a drift in host speed lands on both sides
    instead of on whichever ran second.
    """
    sides = (_async_stdin_seconds, _http_seconds)
    best = [float("inf"), float("inf")]
    for round_index in range(ROUNDS):
        order = (0, 1) if round_index % 2 == 0 else (1, 0)
        for side in order:
            best[side] = min(best[side], sides[side](handler, lines))
    return best[0], best[1]


def test_http_serve_throughput(benchmark):
    handler, lines = _serve_corpus()
    total = len(lines)

    async_seconds, http_seconds = benchmark.pedantic(
        lambda: _paired(handler, lines), rounds=1, iterations=1,
    )

    def pps(seconds: float) -> float:
        return total / seconds

    http_vs_async = async_seconds / http_seconds
    emit(
        "HTTP serve front-end (requests/second, higher is better)",
        "\n".join([
            f"pages: {total}, producer latency: "
            f"{PRODUCER_LATENCY * 1000:.1f} ms/line, 8 in flight, "
            f"best of {ROUNDS} alternating rounds",
            f"async stdin loop     : {pps(async_seconds):9.1f} req/s",
            f"http /batch stream   : {pps(http_seconds):9.1f} req/s"
            f"  ({http_vs_async:.2f}x async stdin)",
        ]),
    )
    results_path = write_results({
        "http_serve": {
            "pages": total,
            "producer_latency_seconds": PRODUCER_LATENCY,
            "rounds": ROUNDS,
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
