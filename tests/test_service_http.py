"""The HTTP front-end: protocol layer, byte-identity, shutdown."""

import asyncio
import io
import json
import threading

import pytest

from repro.service.http import HttpFrontEnd
from repro.service.serve import ServeHandler, ServePolicy, serve_async
from repro.service.runtime import IterablePageSource, StreamingRuntime
from repro.service.sink import JsonlSink


@pytest.fixture(scope="module")
def handler(service_repository):
    return ServeHandler(service_repository, cluster="imdb-movies")


def _line(page) -> str:
    return json.dumps({"url": page.url, "html": page.html})


def _sync_stdin_loop_output(handler, lines: list[str]) -> str:
    """What the stdin front-end writes, one page in flight at a time."""
    stdout = io.StringIO()
    asyncio.run(serve_async(
        handler, io.StringIO("".join(line + "\n" for line in lines)), stdout,
        max_inflight=1,
    ))
    return stdout.getvalue()


# --------------------------------------------------------------------- #
# A tiny HTTP/1.1 client (asyncio streams, chunked-aware)
# --------------------------------------------------------------------- #


def _post(path: str, body: bytes, headers: dict = None) -> bytes:
    lines = [f"POST {path} HTTP/1.1", "Host: test"]
    sent = {"content-length": str(len(body))}
    if headers:
        sent.update({name.lower(): value for name, value in headers.items()})
    lines.extend(f"{name}: {value}" for name, value in sent.items())
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


async def _read_response(reader) -> tuple[int, dict, bytes]:
    status_line = await reader.readline()
    assert status_line.startswith(b"HTTP/1.1 "), status_line
    status = int(status_line.split()[1])
    headers = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n"):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    if headers.get("transfer-encoding") == "chunked":
        body = b""
        while True:
            size = int((await reader.readline()).strip(), 16)
            if size == 0:
                await reader.readline()
                return status, headers, body
            body += await reader.readexactly(size)
            await reader.readexactly(2)
    length = int(headers.get("content-length", 0))
    return status, headers, await reader.readexactly(length)


async def _roundtrip(port: int, raw: bytes) -> tuple[int, dict, bytes]:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(raw)
    await writer.drain()
    response = await _read_response(reader)
    writer.close()
    return response


def _with_front_end(handler, scenario, **front_kwargs):
    """Start a front-end, run the scenario coroutine, shut down."""
    async def _main():
        front = HttpFrontEnd(handler, "127.0.0.1", 0, **front_kwargs)
        await front.start()
        try:
            result = await scenario(front)
        finally:
            await front.shutdown()
        return result, front
    return asyncio.run(_main())


def http_batch_lines(handler, lines: list[str],
                     **front_kwargs) -> list[str]:
    """POST lines to ``/batch``; the response's NDJSON lines.

    Shared with the cross-front-end parametrization in
    ``test_service_serve.py`` — this *is* the HTTP analogue of feeding
    a line stream to a stdin loop.
    """
    body = "".join(line + "\n" for line in lines).encode("utf-8")

    async def scenario(front):
        status, headers, payload = await _roundtrip(
            front.port, _post("/batch", body)
        )
        assert status == 200
        assert headers["content-type"].startswith("application/x-ndjson")
        return payload.decode("utf-8").splitlines()

    result, _ = _with_front_end(handler, scenario, **front_kwargs)
    return result


# --------------------------------------------------------------------- #
# Byte identity with the other front-ends
# --------------------------------------------------------------------- #


class TestByteIdentity:
    def test_extract_matches_sync_stdin_loop_bytes(
        self, handler, service_site
    ):
        page = service_site.pages_with_hint("imdb-movies")[0]
        expected = _sync_stdin_loop_output(handler, [_line(page)])

        async def scenario(front):
            return await _roundtrip(
                front.port, _post("/extract", _line(page).encode("utf-8"))
            )

        (status, headers, body), front = _with_front_end(handler, scenario)
        assert status == 200
        assert body == expected.encode("utf-8")
        assert front.stats.served == 1
        record = json.loads(body)
        assert record["cluster"] == "imdb-movies"
        assert record["values"]["title"]

    def test_batch_stream_matches_sync_stdin_loop_bytes(
        self, handler, service_site
    ):
        pages = service_site.pages_with_hint("imdb-movies")[:12]
        lines = [_line(page) for page in pages]
        lines.insert(5, "{not json")  # an error record mid-stream
        lines.insert(8, "   ")       # blank lines are skipped, as on stdin
        out_lines = http_batch_lines(handler, lines)
        assert out_lines == _sync_stdin_loop_output(
            handler, lines
        ).splitlines()
        assert len(out_lines) == 13  # 12 pages + 1 error, no blank slot
        assert "error" in json.loads(out_lines[5])

    def test_batch_final_unterminated_line_is_served(
        self, handler, service_site
    ):
        # EOF parity with the stdin loops: a body whose last line has
        # no trailing newline still serves that line.
        page = service_site.pages_with_hint("imdb-movies")[0]
        body = (_line(page) + "\n" + _line(page)).encode("utf-8")

        async def scenario(front):
            status, _, payload = await _roundtrip(
                front.port, _post("/batch", body)
            )
            assert status == 200
            return payload.decode("utf-8").splitlines()

        out_lines, front = _with_front_end(handler, scenario)
        assert len(out_lines) == 2
        assert out_lines[0] == out_lines[1]
        assert front.stats.served == 2

    def test_batch_values_match_batch_runtime_output(
        self, handler, service_site, service_repository
    ):
        # Acceptance: HTTP records carry exactly what a ``batch`` run
        # writes for the same pages — same fields, same values — minus
        # the stream position (online records carry no index).
        pages = service_site.pages_with_hint("imdb-movies")[:8]
        runtime = StreamingRuntime(
            service_repository, workers=1, executor="inline", ordered=True
        )
        buffer = io.StringIO()
        runtime.run(IterablePageSource(pages), JsonlSink(buffer))
        batch_lines = buffer.getvalue().splitlines()
        out_lines = http_batch_lines(handler, [_line(p) for p in pages])
        assert len(out_lines) == len(batch_lines)
        for http_line, batch_line in zip(out_lines, batch_lines):
            batch_record = json.loads(batch_line)
            batch_record.pop("index")
            assert json.loads(http_line) == batch_record


# --------------------------------------------------------------------- #
# Protocol layer
# --------------------------------------------------------------------- #


class TestProtocol:
    def _refused(self, handler, raw: bytes) -> tuple[int, dict, bytes]:
        async def scenario(front):
            return await _roundtrip(front.port, raw)
        (status, headers, body), front = _with_front_end(handler, scenario)
        assert front.stats.protocol_errors == 1
        assert headers["connection"] == "close"
        assert "error" in json.loads(body)  # rejections stay parseable
        return status, headers, body

    def test_unknown_endpoint_is_404(self, handler):
        status, _, body = self._refused(
            handler, b"GET /nope HTTP/1.1\r\nHost: t\r\n\r\n"
        )
        assert status == 404
        assert "/nope" in json.loads(body)["error"]

    def test_wrong_method_is_405_with_allow(self, handler):
        raw = b"GET /extract HTTP/1.1\r\nHost: t\r\n\r\n"
        async def scenario(front):
            return await _roundtrip(front.port, raw)
        (status, headers, _), _ = _with_front_end(handler, scenario)
        assert status == 405
        assert headers["allow"] == "POST"

    def test_healthz_rejects_post(self, handler):
        status, _, _ = self._refused(
            handler, _post("/healthz", b"{}")
        )
        assert status == 405

    def test_malformed_request_line_is_400(self, handler):
        status, _, _ = self._refused(handler, b"NONSENSE\r\n\r\n")
        assert status == 400

    def test_overlong_request_line_is_431(self, handler):
        status, _, _ = self._refused(
            handler,
            b"GET /" + b"x" * 9000 + b" HTTP/1.1\r\n\r\n",
        )
        assert status == 431

    def test_malformed_header_is_400(self, handler):
        status, _, _ = self._refused(
            handler,
            b"GET /healthz HTTP/1.1\r\nHost: t\r\nnot-a-header\r\n\r\n",
        )
        assert status == 400

    def test_eof_mid_headers_is_400(self, handler):
        async def scenario(front):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", front.port
            )
            writer.write(b"GET /healthz HTTP/1.1\r\nHost: t\r\n")
            writer.write_eof()  # half-close: headers never finish
            response = await _read_response(reader)
            writer.close()
            return response
        (status, _, _), front = _with_front_end(handler, scenario)
        assert status == 400
        assert front.stats.protocol_errors == 1

    def test_eof_mid_body_is_400(self, handler):
        async def scenario(front):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", front.port
            )
            writer.write(
                b"POST /extract HTTP/1.1\r\nHost: t\r\n"
                b"Content-Length: 1000\r\n\r\n"
                b'{"url": "http://x/"'
            )
            writer.write_eof()
            response = await _read_response(reader)
            writer.close()
            return response
        (status, _, _), _ = _with_front_end(handler, scenario)
        assert status == 400

    def test_malformed_content_length_is_400(self, handler):
        status, _, _ = self._refused(
            handler,
            b"POST /extract HTTP/1.1\r\nHost: t\r\n"
            b"Content-Length: banana\r\n\r\n",
        )
        assert status == 400

    def test_unsupported_transfer_encoding_is_501(self, handler):
        status, _, _ = self._refused(
            handler,
            b"POST /extract HTTP/1.1\r\nHost: t\r\n"
            b"Transfer-Encoding: gzip\r\n\r\n",
        )
        assert status == 501

    def test_malformed_chunk_size_is_400(self, handler):
        status, _, _ = self._refused(
            handler,
            b"POST /extract HTTP/1.1\r\nHost: t\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n"
            b"zz\r\ndata\r\n0\r\n\r\n",
        )
        assert status == 400

    def test_malformed_chunk_terminator_is_400(self, handler):
        status, _, _ = self._refused(
            handler,
            b"POST /extract HTTP/1.1\r\nHost: t\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n"
            b"4\r\ndataXX0\r\n\r\n",
        )
        assert status == 400

    def test_chunked_body_over_the_cap_is_413(self, handler):
        piece = b"x" * 40
        chunked = (
            b"%x\r\n" % len(piece) + piece + b"\r\n"
        ) * 3 + b"0\r\n\r\n"
        raw = (
            b"POST /extract HTTP/1.1\r\nHost: t\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n" + chunked
        )
        async def scenario(front):
            return await _roundtrip(front.port, raw)
        (status, _, _), _ = _with_front_end(
            handler, scenario, max_body_bytes=100
        )
        assert status == 413

    def test_empty_extract_body_is_an_error_record(self, handler):
        async def scenario(front):
            return await _roundtrip(front.port, _post("/extract", b""))
        (status, _, body), _ = _with_front_end(handler, scenario)
        assert status == 200
        assert "error" in json.loads(body)

    def test_unsupported_version_is_400(self, handler):
        status, _, _ = self._refused(
            handler, b"POST /extract HTTP/2.0\r\nHost: t\r\n\r\n"
        )
        assert status == 400

    def test_post_without_length_is_411(self, handler):
        status, _, _ = self._refused(
            handler, b"POST /extract HTTP/1.1\r\nHost: t\r\n\r\n"
        )
        assert status == 411

    def test_oversized_body_is_413(self, handler):
        raw = _post("/extract", b"x" * 200)
        async def scenario(front):
            return await _roundtrip(front.port, raw)
        (status, headers, body), front = _with_front_end(
            handler, scenario, max_body_bytes=100
        )
        assert status == 413
        assert front.stats.protocol_errors == 1
        assert headers["connection"] == "close"
        assert "error" in json.loads(body)

    def test_header_block_too_large_is_431(self, handler):
        filler = "".join(
            f"X-Pad-{i}: {'v' * 1000}\r\n" for i in range(40)
        ).encode("latin-1")
        status, _, _ = self._refused(
            handler,
            b"GET /healthz HTTP/1.1\r\nHost: t\r\n" + filler + b"\r\n",
        )
        assert status == 431

    def test_blank_line_flood_before_request_is_400(self, handler):
        status, _, _ = self._refused(
            handler, b"\r\n" * 100 + b"GET /healthz HTTP/1.1\r\n\r\n"
        )
        assert status == 400

    def test_trailer_flood_is_431(self, handler):
        filler = b"".join(
            b"X-Trail-%d: %s\r\n" % (i, b"v" * 1000) for i in range(40)
        )
        status, _, _ = self._refused(
            handler,
            b"POST /extract HTTP/1.1\r\nHost: t\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n"
            b"1\r\nx\r\n0\r\n" + filler + b"\r\n",
        )
        assert status == 431

    def test_both_framings_rejected_as_smuggling_vector(self, handler):
        # RFC 9112 §6.3: Content-Length + Transfer-Encoding together
        # is how requests get smuggled past a fronting proxy.
        status, _, _ = self._refused(
            handler,
            b"POST /extract HTTP/1.1\r\nHost: t\r\n"
            b"Content-Length: 10\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n"
            b"0\r\n\r\n",
        )
        assert status == 400

    def test_healthz_with_a_body_keeps_the_connection_in_sync(
        self, handler
    ):
        # curl -d sends a body even with -X GET; its bytes must not
        # prefix the next request line on the keep-alive connection.
        async def scenario(front):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", front.port
            )
            for _ in range(2):
                writer.write(
                    b"GET /healthz HTTP/1.1\r\nHost: t\r\n"
                    b"Content-Length: 5\r\n\r\nhello"
                )
                await writer.drain()
                status, _, body = await _read_response(reader)
                assert status == 200
                assert json.loads(body)["status"] == "ok"
            writer.close()

        _, front = _with_front_end(handler, scenario)
        assert front.stats.requests == 2
        assert front.stats.protocol_errors == 0

    def test_expect_100_continue_is_answered(self, handler, service_site):
        # curl adds the expectation to large POSTs and stalls a full
        # second if nothing answers it.
        page = service_site.pages_with_hint("imdb-movies")[0]
        body = _line(page).encode("utf-8")

        async def scenario(front):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", front.port
            )
            writer.write((
                f"POST /extract HTTP/1.1\r\nHost: t\r\n"
                f"Expect: 100-continue\r\n"
                f"Content-Length: {len(body)}\r\n\r\n"
            ).encode("latin-1"))
            await writer.drain()
            interim = await asyncio.wait_for(reader.readline(), timeout=5)
            assert interim == b"HTTP/1.1 100 Continue\r\n"
            assert await reader.readline() == b"\r\n"
            writer.write(body)  # only now does the client send the body
            await writer.drain()
            response = await _read_response(reader)
            writer.close()
            return response

        (status, _, payload), _ = _with_front_end(handler, scenario)
        assert status == 200
        assert json.loads(payload)["cluster"] == "imdb-movies"

    def test_expect_is_not_answered_on_a_refused_request(self, handler):
        # A request refused outright gets its final status, not an
        # interim 100 that would invite a doomed body upload.
        raw = (
            b"POST /extract HTTP/1.1\r\nHost: t\r\n"
            b"Expect: 100-continue\r\n"
            b"Content-Length: 1000\r\n\r\n"
        )
        async def scenario(front):
            return await _roundtrip(front.port, raw)
        (status, _, _), _ = _with_front_end(
            handler, scenario, max_body_bytes=100
        )
        assert status == 413

    def test_healthz_reports_counters(self, handler, service_site):
        page = service_site.pages_with_hint("imdb-movies")[0]

        async def scenario(front):
            await _roundtrip(
                front.port, _post("/extract", _line(page).encode("utf-8"))
            )
            _, _, body = await _roundtrip(
                front.port, b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"
            )
            return json.loads(body)

        health, _ = _with_front_end(handler, scenario)
        assert health["status"] == "ok"
        assert health["served"] == 1
        assert health["pages"] == 1
        assert health["connections"] == 2
        assert health["drift_events"] == 0

    def test_undecodable_extract_body_is_an_error_record(self, handler):
        async def scenario(front):
            return await _roundtrip(
                front.port, _post("/extract", b"\xff\xfe{bad")
            )
        (status, _, body), _ = _with_front_end(handler, scenario)
        assert status == 200  # records are the protocol
        assert "undecodable input" in json.loads(body)["error"]


class TestKeepAlive:
    def test_one_connection_serves_many_requests(
        self, handler, service_site
    ):
        pages = service_site.pages_with_hint("imdb-movies")[:2]

        async def scenario(front):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", front.port
            )
            bodies = []
            for page in pages:
                writer.write(
                    _post("/extract", _line(page).encode("utf-8"))
                )
                await writer.drain()
                status, headers, body = await _read_response(reader)
                assert status == 200
                assert headers["connection"] == "keep-alive"
                bodies.append(body)
            writer.close()
            return bodies

        bodies, front = _with_front_end(handler, scenario)
        assert front.stats.connections == 1
        assert front.stats.requests == 2
        assert [json.loads(b)["url"] for b in bodies] == [
            page.url for page in pages
        ]

    def test_connection_close_is_honoured(self, handler, service_site):
        page = service_site.pages_with_hint("imdb-movies")[0]

        async def scenario(front):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", front.port
            )
            writer.write(_post(
                "/extract", _line(page).encode("utf-8"),
                {"Connection": "close"},
            ))
            await writer.drain()
            status, headers, _ = await _read_response(reader)
            assert status == 200
            assert headers["connection"] == "close"
            assert await reader.read() == b""  # server hung up
            writer.close()

        _with_front_end(handler, scenario)

    def test_http10_defaults_to_close(self, handler, service_site):
        page = service_site.pages_with_hint("imdb-movies")[0]
        body = _line(page).encode("utf-8")
        raw = (
            f"POST /extract HTTP/1.0\r\nHost: t\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("latin-1") + body

        async def scenario(front):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", front.port
            )
            writer.write(raw)
            await writer.drain()
            status, headers, _ = await _read_response(reader)
            assert status == 200
            assert headers["connection"] == "close"
            assert await reader.read() == b""
            writer.close()

        _with_front_end(handler, scenario)


class TestBatchStreaming:
    def test_chunked_request_body_is_accepted(self, handler, service_site):
        pages = service_site.pages_with_hint("imdb-movies")[:3]
        payload = "".join(_line(p) + "\n" for p in pages).encode("utf-8")
        # Split at awkward boundaries: mid-line, mid-multibyte is fine
        # too (lines are reassembled before decoding).
        pieces = [payload[:10], payload[10:999], payload[999:]]
        chunked = b"".join(
            b"%x\r\n" % len(piece) + piece + b"\r\n"
            for piece in pieces if piece
        ) + b"0\r\n\r\n"
        head = (
            "POST /batch HTTP/1.1\r\nHost: t\r\n"
            "Transfer-Encoding: chunked\r\n\r\n"
        ).encode("latin-1")

        async def scenario(front):
            return await _roundtrip(front.port, head + chunked)

        (status, _, body), front = _with_front_end(handler, scenario)
        assert status == 200
        lines = body.decode("utf-8").splitlines()
        assert [json.loads(line)["url"] for line in lines] == [
            page.url for page in pages
        ]
        assert front.stats.served == 3

    def test_undecodable_lines_inherit_the_policy_cap(
        self, service_repository
    ):
        capped = ServeHandler(
            service_repository, cluster="imdb-movies",
            policy=ServePolicy(max_decode_failures=2),
        )
        lines = ["\xff-this-will-not-roundtrip"] * 4
        body = "".join(line + "\n" for line in lines).encode("latin-1")

        async def scenario(front):
            status, _, payload = await _roundtrip(
                front.port, _post("/batch", body)
            )
            assert status == 200
            return payload.decode("utf-8").splitlines()

        out_lines, front = _with_front_end(capped, scenario)
        # Two error records, then an explicit give-up marker — the
        # client must never mistake a truncated batch for a complete
        # one — and not four records.
        assert len(out_lines) == 3
        assert all(
            "undecodable input" in json.loads(line)["error"]
            for line in out_lines[:2]
        )
        assert "giving up" in json.loads(out_lines[2])["error"]

    def test_batch_holds_max_inflight_pages_concurrently(self):
        barrier = threading.Barrier(4)

        class BarrierHandler:
            def handle_line(self, line):
                barrier.wait(timeout=10)
                return line, True

        lines = [f"page-{i}" for i in range(4)]
        out_lines = http_batch_lines(
            BarrierHandler(), lines, max_inflight=4
        )
        assert out_lines == lines

    def test_mid_stream_framing_error_marker_comes_last(
        self, handler, service_site
    ):
        # A chunked /batch body that lies about a chunk size after two
        # good lines: both records must precede the terminal error
        # marker (the marker is the abort point, so nothing may trail
        # it out of order).
        pages = service_site.pages_with_hint("imdb-movies")[:2]
        good = "".join(_line(p) + "\n" for p in pages).encode("utf-8")
        raw = (
            b"POST /batch HTTP/1.1\r\nHost: t\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n"
            + b"%x\r\n" % len(good) + good + b"\r\n"
            + b"zz\r\n"
        )

        async def scenario(front):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", front.port
            )
            writer.write(raw)
            await writer.drain()
            status, _, payload = await _read_response(reader)
            writer.close()
            return status, payload.decode("utf-8").splitlines()

        (status, lines), front = _with_front_end(handler, scenario)
        assert status == 200  # the head was already streaming
        assert len(lines) == 3
        assert [json.loads(line)["url"] for line in lines[:2]] == [
            page.url for page in pages
        ]
        assert "400" in json.loads(lines[2])["error"]
        assert front.stats.protocol_errors == 1

    def test_http10_batch_gets_raw_ndjson_not_chunked(
        self, handler, service_site
    ):
        # HTTP/1.0 predates chunked framing: the stream goes out raw,
        # delimited by connection close — and still byte-matches the
        # stdin loops' output.
        pages = service_site.pages_with_hint("imdb-movies")[:3]
        body = "".join(_line(p) + "\n" for p in pages).encode("utf-8")
        raw = (
            f"POST /batch HTTP/1.0\r\nHost: t\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("latin-1") + body

        async def scenario(front):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", front.port
            )
            writer.write(raw)
            await writer.drain()
            status_line = await reader.readline()
            assert b"200" in status_line
            headers = {}
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n"):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
            payload = await reader.read()  # until the server closes
            writer.close()
            return headers, payload

        (headers, payload), front = _with_front_end(handler, scenario)
        assert "transfer-encoding" not in headers
        assert headers["connection"] == "close"
        lines = payload.decode("utf-8").splitlines()
        assert [json.loads(line)["url"] for line in lines] == [
            page.url for page in pages
        ]
        assert front.stats.served == 3

    def test_client_abort_mid_batch_leaves_server_healthy(
        self, handler, service_site
    ):
        page = service_site.pages_with_hint("imdb-movies")[0]

        async def scenario(front):
            # A client that promises 1 MB, sends half a line, and
            # vanishes must not take the listener down with it.
            _, writer = await asyncio.open_connection(
                "127.0.0.1", front.port
            )
            writer.write(
                b"POST /batch HTTP/1.1\r\nHost: t\r\n"
                b"Content-Length: 1048576\r\n\r\n"
                b'{"url": "http://x/"'
            )
            await writer.drain()
            writer.close()
            await asyncio.sleep(0.05)
            # The next client is served normally.
            status, _, body = await _roundtrip(
                front.port, _post("/extract", _line(page).encode("utf-8"))
            )
            return status, body

        (status, body), _ = _with_front_end(handler, scenario)
        assert status == 200
        assert json.loads(body)["cluster"] == "imdb-movies"


# --------------------------------------------------------------------- #
# Graceful shutdown
# --------------------------------------------------------------------- #


class TestShutdown:
    def test_shutdown_drains_inflight_batch_then_refuses(self):
        release = threading.Event()
        entered = threading.Event()

        class SlowHandler:
            def handle_line(self, line):
                entered.set()
                release.wait(timeout=10)
                return line, True

        lines = [f"page-{i}" for i in range(4)]
        body = "".join(line + "\n" for line in lines).encode("utf-8")

        async def _main():
            front = HttpFrontEnd(SlowHandler(), "127.0.0.1", 0,
                                 max_inflight=2)
            await front.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", front.port
            )
            writer.write(_post("/batch", body))
            await writer.drain()
            await asyncio.get_running_loop().run_in_executor(
                None, entered.wait, 10
            )
            # Shut down while pages are mid-extraction; the response
            # must still complete in full, never truncated mid-record.
            shutdown = asyncio.ensure_future(front.shutdown())
            await asyncio.sleep(0.05)
            release.set()
            status, _, payload = await _read_response(reader)
            stats = await shutdown
            writer.close()
            refused = False
            try:
                await asyncio.open_connection("127.0.0.1", front.port)
            except OSError:
                refused = True
            return status, payload.decode("utf-8").splitlines(), \
                stats, refused

        status, out_lines, stats, refused = asyncio.run(_main())
        assert status == 200
        assert out_lines == lines  # all in-flight work drained, in order
        assert stats.served == 4
        assert refused  # the listener is gone

    def test_shutdown_force_closes_a_client_that_stopped_reading(self):
        # A /batch client that never reads its response flow-controls
        # the connection task inside writer.drain(); the drain timeout
        # must force the connection closed rather than wedge SIGTERM.
        class LoudHandler:
            def handle_line(self, line):
                return "x" * 200_000, True  # far past the high-water mark

        lines = [f"page-{i}" for i in range(8)]
        body = "".join(line + "\n" for line in lines).encode("utf-8")

        async def _main():
            front = HttpFrontEnd(LoudHandler(), "127.0.0.1", 0,
                                 max_inflight=2, drain_timeout=0.3)
            await front.start()
            _, writer = await asyncio.open_connection(
                "127.0.0.1", front.port
            )
            writer.write(_post("/batch", body))
            await writer.drain()
            await asyncio.sleep(0.2)  # let responses jam the socket
            await asyncio.wait_for(front.shutdown(), timeout=10)
            writer.close()
            return True

        assert asyncio.run(_main())

    def test_shutdown_hangs_up_idle_keepalive_connections(self, handler):
        async def _main():
            front = HttpFrontEnd(handler, "127.0.0.1", 0)
            await front.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", front.port
            )
            _, _, _ = await _roundtrip(
                front.port, b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"
            )
            # ``reader``'s connection sits idle (keep-alive, no request
            # in flight); shutdown must not wait on it forever.
            await asyncio.wait_for(front.shutdown(), timeout=5)
            eof = await asyncio.wait_for(reader.read(), timeout=5)
            writer.close()
            return eof

        assert asyncio.run(_main()) == b""

    def test_shutdown_is_idempotent(self, handler):
        async def _main():
            front = HttpFrontEnd(handler, "127.0.0.1", 0)
            await front.start()
            first = await front.shutdown()
            second = await front.shutdown()
            return first is second

        assert asyncio.run(_main())

    def test_stop_releases_wait_stopped_from_another_thread(self, handler):
        async def _main():
            front = HttpFrontEnd(handler, "127.0.0.1", 0)
            await front.start()
            threading.Timer(0.05, front.stop).start()
            await asyncio.wait_for(front.wait_stopped(), timeout=5)
            await front.shutdown()
            return True

        assert asyncio.run(_main())


def test_invalid_inflight_rejected(handler):
    with pytest.raises(ValueError):
        HttpFrontEnd(handler, max_inflight=0)


def test_stop_before_start_is_a_noop(handler):
    HttpFrontEnd(handler).stop()  # must not raise


def test_stop_after_the_session_ended_is_a_noop(handler):
    # "Safe from any thread" includes a stop() that arrives after the
    # event loop is gone (a supervising thread racing session exit).
    async def _main():
        front = HttpFrontEnd(handler, "127.0.0.1", 0)
        await front.start()
        await front.shutdown()
        return front

    front = asyncio.run(_main())
    front.stop()  # loop closed; must not raise


def test_adaptive_drift_counters_reach_stats_and_healthz(
    service_site, service_repository
):
    from repro.service import make_adapter
    from repro.service.router import ClusterRouter

    router = ClusterRouter.fit({
        hint: service_site.pages_with_hint(hint)[:8]
        for hint in ("imdb-movies", "imdb-actors")
    })
    adaptive = ServeHandler(
        service_repository, adapter=make_adapter(router)
    )
    pages = service_site.pages_with_hint("imdb-movies")[:3]

    async def scenario(front):
        for page in pages:
            status, _, _ = await _roundtrip(
                front.port, _post("/extract", _line(page).encode("utf-8"))
            )
            assert status == 200
        _, _, body = await _roundtrip(
            front.port, b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"
        )
        return json.loads(body)

    health, front = _with_front_end(adaptive, scenario)
    assert health["served"] == 3
    assert health["drift_events"] == 0  # drift-free corpus
    assert front.stats.drift_events == 0
    assert front.stats.refits == 0
