"""HTTP serve front-end throughput — sockets vs the stdin loop.

Measures requests/second (one page per request line) over a paced
producer for the two ``serve`` front-ends:

* the stdin front-end (:func:`~repro.service.serve.serve_lines`),
  reading an OS pipe;
* the HTTP front-end (``serve --http``): one connection, one
  ``POST /batch`` whose NDJSON body arrives at the paced rate while
  the chunked NDJSON response streams back — the socket twin of the
  piped-stdin scenario.

Pacing models a real upstream feed (:data:`PRODUCER_LATENCY` per
line): the front-ends win by answering each line while the producer
prepares the next, and the HTTP layer must not squander that on
framing.  On both sides the producer is a thread of its own that
sleeps that long per line: it writes into the stdin loop's pipe, or
into the HTTP client's socket, whose chunked response it then reads.
Both sides are timed over the same span, from the producer's first
byte to the last record; starting and stopping a front-end is not in
it.

The two front-ends alternate over :data:`ROUNDS` rounds, each going
first equally often, and each is scored by its best pass, so the ratio
does not rest on one unpaired pass of a host whose speed drifts.

Acceptance bar (failing the run — this file is CI's regression gate
for the socket ingress): HTTP throughput must stay within
:data:`MIN_HTTP_VS_STDIN` of the stdin loop on the same paced
corpus.  Results merge into the ``$BENCH_RESULTS`` JSON artifact next
to the other service measurements.

This measures *one* serve process — the baseline the multi-worker
supervisor is gated against (``bench_multiworker_serve`` asserts the
2-worker gateway fleet clears 1.8x of it, byte-identically).
"""

import asyncio
import io
import json
import os
import socket
import threading
import time

from repro.core.builder import MappingRuleBuilder
from repro.core.oracle import ScriptedOracle
from repro.core.repository import RuleRepository
from repro.service.http import HttpFrontEnd
from repro.service.serve import ServeHandler, serve_lines
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
#: stdin front-end's throughput on the paced corpus.
MIN_HTTP_VS_STDIN = 0.9


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


def _stdin_seconds(handler, lines: list[str]) -> float:
    """One paced producer thread writing into the stdin loop's pipe.

    Returns the seconds from the producer's first byte to the last
    record: the loop writes that record, then reads the EOF the
    producer left after its last line.
    """
    payload = [(line + "\n").encode("utf-8") for line in lines]
    read_fd, write_fd = os.pipe()
    started = []

    def produce() -> None:
        with os.fdopen(write_fd, "wb") as pipe:
            started.append(time.perf_counter())
            for data in payload:
                time.sleep(PRODUCER_LATENCY)  # the paced upstream
                pipe.write(data)
                pipe.flush()

    producer = threading.Thread(target=produce)
    with os.fdopen(read_fd, "r", encoding="utf-8") as stdin:
        producer.start()
        stats = serve_lines(handler, stdin, io.StringIO())
        elapsed = time.perf_counter() - started[0]
    producer.join()
    assert stats.served == len(lines)
    return elapsed


def _paced_client(port: int, lines: list[str]) -> tuple[float, int]:
    """One paced ``POST /batch`` over a blocking socket, full drain.

    Sends the head, then one line per :data:`PRODUCER_LATENCY` as the
    stdin side's producer does, then reads the chunked response (which
    the kernel's receive buffer holds meanwhile).  Returns the
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
    front = HttpFrontEnd(handler, "127.0.0.1", 0)
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
    sides = (_stdin_seconds, _http_seconds)
    best = [float("inf"), float("inf")]
    for round_index in range(ROUNDS):
        order = (0, 1) if round_index % 2 == 0 else (1, 0)
        for side in order:
            best[side] = min(best[side], sides[side](handler, lines))
    return best[0], best[1]


def test_http_serve_throughput(benchmark):
    handler, lines = _serve_corpus()
    total = len(lines)

    stdin_seconds, http_seconds = benchmark.pedantic(
        lambda: _paired(handler, lines), rounds=1, iterations=1,
    )

    def pps(seconds: float) -> float:
        return total / seconds

    http_vs_stdin = stdin_seconds / http_seconds
    emit(
        "HTTP serve front-end (requests/second, higher is better)",
        "\n".join([
            f"pages: {total}, producer latency: "
            f"{PRODUCER_LATENCY * 1000:.1f} ms/line, "
            f"best of {ROUNDS} alternating rounds",
            f"stdin loop (pipe)    : {pps(stdin_seconds):9.1f} req/s",
            f"http /batch stream   : {pps(http_seconds):9.1f} req/s"
            f"  ({http_vs_stdin:.2f}x stdin)",
        ]),
    )
    results_path = write_results({
        "http_serve": {
            "pages": total,
            "producer_latency_seconds": PRODUCER_LATENCY,
            "rounds": ROUNDS,
            "requests_per_second": {
                "stdin_paced": pps(stdin_seconds),
                "http_batch_paced": pps(http_seconds),
            },
            "http_vs_stdin": http_vs_stdin,
            "min_http_vs_stdin": MIN_HTTP_VS_STDIN,
        },
    })
    print(f"results written to {results_path}")

    # Regression gate: the socket ingress must not squander the stdin
    # loop's throughput on HTTP framing.
    assert http_vs_stdin >= MIN_HTTP_VS_STDIN, (
        f"HTTP serve is only {http_vs_stdin:.2f}x the stdin loop "
        f"(regression floor: {MIN_HTTP_VS_STDIN}x)"
    )
