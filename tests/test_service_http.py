"""The HTTP front-end: protocol layer, byte-identity, shutdown."""

import asyncio
import http.client
import io
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.service.http import INLINE_LINE_BYTES, HttpFrontEnd
from repro.service.metrics import MetricsRegistry, parse_exposition
from repro.service.serve import ServeHandler, ServePolicy, serve_lines
from repro.service.runtime import IterablePageSource, StreamingRuntime
from repro.service.sink import JsonlSink


@pytest.fixture(scope="module")
def handler(service_repository):
    return ServeHandler(service_repository, cluster="imdb-movies")


def _line(page) -> str:
    return json.dumps({"url": page.url, "html": page.html})


def _sync_stdin_loop_output(handler, lines: list[str]) -> str:
    """What the stdin front-end writes for the same lines."""
    stdout = io.StringIO()
    serve_lines(
        handler, io.StringIO("".join(line + "\n" for line in lines)), stdout
    )
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


def http_batch_lines(handler, lines: list[str]) -> list[str]:
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

    result, _ = _with_front_end(handler, scenario)
    return result


def http_extract_lines(handler, lines: list[str]) -> list[str]:
    """POST each line to ``/extract`` on one keep-alive connection.

    The records, in order: the per-request counterpart of
    :func:`http_batch_lines`, shared with the same parametrization.
    """
    async def scenario(front):
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", front.port
        )
        records = []
        for line in lines:
            writer.write(_post("/extract", line.encode("utf-8")))
            await writer.drain()
            status, _, payload = await _read_response(reader)
            assert status == 200
            records.extend(payload.decode("utf-8").splitlines())
        writer.close()
        return records

    result, _ = _with_front_end(handler, scenario)
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

    @pytest.mark.parametrize("endpoint", ("/extract", "/batch"))
    def test_undecodable_body_matches_the_stdin_record(
        self, endpoint, handler
    ):
        # Every front-end words a line that is not UTF-8 the same way,
        # down to the byte.
        raw = b"\xff\xfe{bad"
        with pytest.raises(UnicodeDecodeError) as caught:
            raw.decode("utf-8")

        class UndecodableOnce:
            def __init__(self):
                self.reads = 0

            def readline(self):
                self.reads += 1
                if self.reads == 1:
                    raise caught.value
                return ""

        expected = io.StringIO()
        serve_lines(handler, UndecodableOnce(), expected)

        async def scenario(front):
            return await _roundtrip(front.port, _post(endpoint, raw))

        (status, _, body), _ = _with_front_end(handler, scenario)
        assert status == 200
        assert body.decode("utf-8") == expected.getvalue()
        assert "undecodable input" in expected.getvalue()


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

    @pytest.mark.parametrize("separator", [b"\x1c", b"\x85", b"\xa0"],
                             ids=["file-separator", "nel", "nbsp"])
    def test_request_line_splits_only_on_rfc_9112_whitespace(
        self, handler, separator
    ):
        # RFC 9112 §3: SP separates the parts (HTAB, VT, FF and bare
        # CR leniently); bytes Python's str.split() also takes do not.
        status, _, _ = self._refused(
            handler,
            b"GET" + separator + b"/healthz" + separator
            + b"HTTP/1.1\r\nHost: t\r\n\r\n",
        )
        assert status == 400

    def test_request_line_tolerates_lenient_whitespace(self, handler):
        raw = b"GET\t/healthz \x0b\x0cHTTP/1.1 \r\nHost: t\r\n\r\n"
        async def scenario(front):
            return await _roundtrip(front.port, raw)
        (status, _, body), front = _with_front_end(handler, scenario)
        assert status == 200
        assert json.loads(body)["status"] == "ok"
        assert front.stats.protocol_errors == 0

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

    @pytest.mark.parametrize("length", [b"+55", b"5_5", b"-0"])
    def test_content_length_is_digits_only(self, handler, length):
        # RFC 9112: 1*DIGIT.  int() reads each of these as a number
        # (the first two as the length of the body sent).
        status, _, _ = self._refused(
            handler,
            b"POST /extract HTTP/1.1\r\nHost: t\r\n"
            b"Content-Length: " + length + b"\r\n\r\n" + b"x" * 55,
        )
        assert status == 400

    @pytest.mark.parametrize("size", [b"0x37", b"+37", b"3_7"])
    def test_chunk_size_is_hex_digits_only(self, handler, size):
        # RFC 9112: 1*HEXDIG.  int(size, 16) reads each of these as
        # 0x37, the length of the chunk sent.
        status, _, _ = self._refused(
            handler,
            b"POST /extract HTTP/1.1\r\nHost: t\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n"
            + size + b"\r\n" + b"x" * 0x37 + b"\r\n0\r\n\r\n",
        )
        assert status == 400

    def test_negative_chunk_size_cannot_lift_the_body_cap(self, handler):
        # A size of -1 lowers a lenient parser's byte count and makes
        # its next read a read(-1): to EOF, past the cap.
        body = b"".join(
            b'{"url": "http://x/%d", "html": "<body><h1>T</h1></body>"}\n'
            % i for i in range(20)
        )
        raw = (
            b"POST /batch HTTP/1.1\r\nHost: t\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n-1\r\n" + body
        )

        async def scenario(front):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", front.port
            )
            writer.write(raw)
            writer.write_eof()
            status, _, payload = await _read_response(reader)
            writer.close()
            return status, payload.decode("utf-8").splitlines()

        (status, lines), front = _with_front_end(
            handler, scenario, max_body_bytes=100
        )
        assert len(body) > 1000
        assert status == 200  # /batch streams its head before the body
        assert len(lines) == 1  # the terminal error marker, no record
        assert "malformed chunk size" in json.loads(lines[0])["error"]
        assert front.stats.protocol_errors == 1

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

    @pytest.mark.parametrize("field, body, expected", [
        # RFC 9112 §5.1: no whitespace between a field name and colon.
        (b"Content-Length : 5", b"hello", 400),
        # §5.2: a line starting with SP or HTAB is obsolete folding.
        (b" Content-Length: 5", b"hello", 400),
        (b"\tContent-Length: 5", b"hello", 400),
        # Only SP and HTAB pad a value; other bytes belong to it.
        (b"Content-Length: \x1f5", b"hello", 400),
        (b"Content-Length: 5\xa0", b"hello", 400),
        (b"Transfer-Encoding: chunked\x85", b"5\r\nhello\r\n0\r\n\r\n",
         501),
    ], ids=["space-before-colon", "folded-sp", "folded-tab",
            "control-byte", "nbsp", "nel"])
    def test_field_lines_outside_rfc_9112_are_refused(
        self, handler, field, body, expected
    ):
        status, _, _ = self._refused(
            handler,
            b"POST /extract HTTP/1.1\r\nHost: t\r\n" + field
            + b"\r\n\r\n" + body,
        )
        assert status == expected

    @pytest.mark.parametrize("field", [
        b"Content-Length:7", b"Content-Length: \t7 \t",
    ])
    def test_optional_whitespace_still_frames_the_body(self, handler, field):
        async def scenario(front):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", front.port
            )
            # Exactly 7 body bytes, then the next request: a framing
            # off by one byte would garble the second request line.
            writer.write(
                b"POST /extract HTTP/1.1\r\nHost: t\r\n" + field
                + b'\r\n\r\n{"a":1}GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n'
            )
            await writer.drain()
            first = await _read_response(reader)
            second = await _read_response(reader)
            writer.close()
            return first, second
        (first, second), front = _with_front_end(handler, scenario)
        assert first[0] == 200
        assert "error" in json.loads(first[2])  # no url/html: a record
        assert second[0] == 200
        assert json.loads(second[2])["status"] == "ok"
        assert front.stats.protocol_errors == 0

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
        # Either hex case, and extensions after optional spaces or
        # tabs, are valid chunk-size lines (RFC 9112 §7.1).
        size_lines = [b"%x\r\n", b"%X;name=value\r\n", b"%x \t;ext\r\n"]
        chunked = b"".join(
            size_line % len(piece) + piece + b"\r\n"
            for size_line, piece in zip(size_lines, pieces) if piece
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

        request = _post("/batch", body)
        # The head and the first two lines now, the rest after the
        # shutdown has begun: the batch is mid-stream when it does.
        split = len(request) - len(body) + len("page-0\npage-1\n")

        async def _main():
            front = HttpFrontEnd(SlowHandler(), "127.0.0.1", 0)
            await front.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", front.port
            )
            writer.write(request[:split])
            await writer.drain()
            # page-0 holds the event loop it is answered on, so only
            # another thread can release it.
            threading.Timer(0.2, release.set).start()
            await asyncio.get_running_loop().run_in_executor(
                None, entered.wait, 10
            )
            # Shut down while the batch is mid-stream; the response
            # must still complete in full, never truncated mid-record.
            shutdown = asyncio.ensure_future(front.shutdown())
            await asyncio.sleep(0.05)
            assert not shutdown.done()  # held open by the busy batch
            writer.write(request[split:])
            await writer.drain()
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
                                 drain_timeout=0.3)
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


# --------------------------------------------------------------------- #
# One execution model: short lines on the loop, long ones off it
# --------------------------------------------------------------------- #


async def _until(condition, timeout: float = 5.0) -> None:
    """Yield to the loop until ``condition()`` holds (or fail)."""
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        await asyncio.sleep(0.01)


class _ThreadRecordingHandler:
    """Echoes each line as a record, noting the thread that answered."""

    def __init__(self):
        self.threads = []

    def handle_line(self, line):
        self.threads.append(threading.get_ident())
        return json.dumps({"line": line}), True


def _get(path: str) -> bytes:
    return f"GET {path} HTTP/1.1\r\nHost: t\r\n\r\n".encode("latin-1")


class TestExecutionModel:
    @pytest.mark.parametrize("endpoint", ("/extract", "/batch"))
    def test_a_short_line_runs_on_the_loop_thread(self, endpoint):
        recorder = _ThreadRecordingHandler()
        lines = ["x" * INLINE_LINE_BYTES]  # at the bound, still inline
        if endpoint == "/batch":
            lines.append("page-1")
        body = "\n".join(lines).encode("utf-8")

        async def scenario(front):
            status, _, payload = await _roundtrip(
                front.port, _post(endpoint, body)
            )
            assert front._extractor is None
            return status, payload, threading.get_ident()

        (status, payload, loop_thread), _ = _with_front_end(
            recorder, scenario
        )
        assert status == 200
        assert [json.loads(line)["line"]
                for line in payload.decode("utf-8").splitlines()] == lines
        assert recorder.threads == [loop_thread] * len(lines)

    @pytest.mark.parametrize("line", (
        "x" * (INLINE_LINE_BYTES + 1),
        # Fewer characters than the bound, but more UTF-8 bytes.
        "\u00e9" * (INLINE_LINE_BYTES // 2 + 1),
    ), ids=("ascii", "multibyte"))
    def test_a_line_over_the_bound_runs_off_the_loop(self, line):
        recorder = _ThreadRecordingHandler()

        async def scenario(front):
            answers = [
                await _roundtrip(
                    front.port, _post(endpoint, line.encode("utf-8"))
                )
                for endpoint in ("/extract", "/batch")
            ]
            return answers, threading.get_ident()

        (answers, loop_thread), _ = _with_front_end(recorder, scenario)
        for status, _, payload in answers:
            assert status == 200
            assert json.loads(payload) == {"line": line}
        first, second = recorder.threads
        assert first == second != loop_thread  # one extraction thread

    def test_a_long_line_leaves_the_loop_free(self):
        release = threading.Event()
        entered = []

        class BlockingHandler:
            def handle_line(self, line):
                entered.append(time.perf_counter())
                release.wait(timeout=5)
                return json.dumps({"bytes": len(line)}), True

        long_line = "x" * (INLINE_LINE_BYTES + 1)

        async def scenario(front):
            long_request = asyncio.ensure_future(_roundtrip(
                front.port, _post("/extract", long_line.encode("utf-8"))
            ))
            while not entered:
                await asyncio.sleep(0.01)
            try:
                health = await asyncio.wait_for(
                    _roundtrip(front.port, _get("/healthz")), timeout=5
                )
                answered = time.perf_counter()
            finally:
                release.set()
            return health, answered - entered[0], await long_request

        ((status, _, health), seconds, (long_status, _, record)), _ = \
            _with_front_end(BlockingHandler(), scenario)
        assert status == 200 and json.loads(health)["status"] == "ok"
        assert seconds < 1  # answered while the long line was blocked
        assert long_status == 200
        assert json.loads(record) == {"bytes": INLINE_LINE_BYTES + 1}

    def test_a_long_line_answers_the_same_bytes(self, handler, service_site):
        page = service_site.pages_with_hint("imdb-movies")[0]
        padded = json.dumps({
            "url": page.url,
            "html": page.html + "<!-- " + "x" * INLINE_LINE_BYTES + " -->",
        })
        lines = [padded, _line(page), padded]
        expected = _sync_stdin_loop_output(handler, lines)
        assert http_batch_lines(handler, lines) == expected.splitlines()

        async def scenario(front):
            return await _roundtrip(
                front.port, _post("/extract", padded.encode("utf-8"))
            )

        (status, _, body), _ = _with_front_end(handler, scenario)
        assert status == 200
        assert body.decode("utf-8") == expected.splitlines()[0] + "\n"

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                        reason="needs /proc/<pid>/task")
    def test_a_serve_process_runs_one_thread_until_a_long_line(
        self, service_repository, service_site, tmp_path
    ):
        repo_path = tmp_path / "rules.json"
        service_repository.save(str(repo_path))
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH", "")) if p
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--repository", str(repo_path), "--cluster", "imdb-movies",
             "--http", "127.0.0.1:0"],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, env=env,
        )
        watchdog = threading.Timer(60, proc.kill)
        watchdog.start()
        page = service_site.pages_with_hint("imdb-movies")[0]
        short = _line(page).encode("utf-8")
        long = json.dumps({
            "url": page.url,
            "html": page.html + "<!-- " + "x" * INLINE_LINE_BYTES + " -->",
        }).encode("utf-8")

        def threads() -> int:
            return len(os.listdir(f"/proc/{proc.pid}/task"))

        try:
            banner = proc.stderr.readline().decode("utf-8")
            assert banner.startswith("serving HTTP on "), banner
            port = int(banner.rsplit(":", 1)[1])
            connection = http.client.HTTPConnection("127.0.0.1", port,
                                                    timeout=30)
            for path, body in (("/extract", short), ("/batch", short * 2),
                               ("/healthz", None)):
                connection.request("GET" if body is None else "POST",
                                   path, body=body)
                response = connection.getresponse()
                response.read()
                assert response.status == 200
            before = threads()
            connection.request("POST", "/extract", body=long)
            response = connection.getresponse()
            assert json.loads(response.read())["url"] == page.url
            after = threads()
            connection.close()
            proc.send_signal(signal.SIGTERM)
            returncode = proc.wait(timeout=30)
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stderr.close()
        assert (before, after) == (1, 2)
        assert returncode == 0

    def test_a_batch_keeps_input_order_across_inline_and_long_lines(self):
        # Long lines hop to the extraction thread and take longer than
        # the short lines after them; every record still comes back
        # where its line was.
        class SlowLongLines(_ThreadRecordingHandler):
            def handle_line(self, line):
                if len(line) > INLINE_LINE_BYTES:
                    time.sleep(0.05)
                return super().handle_line(line)

        recorder = SlowLongLines()
        long_a = "a" * (INLINE_LINE_BYTES + 1)
        long_b = "b" * (INLINE_LINE_BYTES + 1)
        lines = ["page-0", long_a, "page-2", long_b, "page-4"]
        out_lines = http_batch_lines(recorder, lines)
        assert [json.loads(line)["line"] for line in out_lines] == lines
        loop_thread = threading.get_ident()
        threads = recorder.threads
        assert [threads[0], threads[2], threads[4]] == [loop_thread] * 3
        assert threads[1] == threads[3] != loop_thread

    def test_a_short_line_is_answered_while_a_long_line_is_blocked(self):
        # An inline line and a long line may run at the same time: a
        # short /extract on another connection is answered on the loop
        # while the extraction thread is still inside the handler.
        release = threading.Event()
        blocked = threading.Event()

        class BlockingLongLines:
            def handle_line(self, line):
                if len(line) > INLINE_LINE_BYTES:
                    blocked.set()
                    release.wait(timeout=5)
                return json.dumps({"bytes": len(line)}), True

        long_line = "x" * (INLINE_LINE_BYTES + 1)

        async def scenario(front):
            long_request = asyncio.ensure_future(_roundtrip(
                front.port, _post("/extract", long_line.encode("utf-8"))
            ))
            try:
                await _until(blocked.is_set)
                short = await asyncio.wait_for(_roundtrip(
                    front.port, _post("/extract", b"page-1")
                ), timeout=5)
                overlapped = not long_request.done()
            finally:
                release.set()
            return short, overlapped, await long_request

        ((status, _, record), overlapped, (long_status, _, long_record)), \
            _ = _with_front_end(BlockingLongLines(), scenario)
        assert status == 200
        assert json.loads(record) == {"bytes": len("page-1")}
        assert overlapped
        assert long_status == 200
        assert json.loads(long_record) == {"bytes": INLINE_LINE_BYTES + 1}

    def test_metrics_answer_while_a_long_line_is_blocked(self):
        release = threading.Event()
        blocked = threading.Event()

        class BlockingHandler:
            metrics = MetricsRegistry()

            def handle_line(self, line):
                blocked.set()
                release.wait(timeout=5)
                return json.dumps({"bytes": len(line)}), True

        long_line = "x" * (INLINE_LINE_BYTES + 1)

        async def scenario(front):
            long_request = asyncio.ensure_future(_roundtrip(
                front.port, _post("/extract", long_line.encode("utf-8"))
            ))
            try:
                await _until(blocked.is_set)
                scrape = await asyncio.wait_for(
                    _roundtrip(front.port, _get("/metrics")), timeout=5
                )
            finally:
                release.set()
            return scrape, await long_request

        ((status, headers, text), (long_status, _, _)), _ = \
            _with_front_end(BlockingHandler(), scenario)
        assert status == 200
        assert headers["content-type"].startswith("text/plain")
        gauge = parse_exposition(text.decode("utf-8"))[
            "repro_http_open_connections"
        ]
        # The blocked request's connection, and the scrape's own.
        assert gauge["repro_http_open_connections"] == 2.0
        assert long_status == 200

    def test_concurrent_long_lines_share_one_extraction_thread(self):
        lock = threading.Lock()
        active, peak, threads = [0], [0], []

        class CountingHandler:
            def handle_line(self, line):
                with lock:
                    active[0] += 1
                    peak[0] = max(peak[0], active[0])
                    threads.append(threading.get_ident())
                time.sleep(0.05)
                with lock:
                    active[0] -= 1
                return json.dumps({"line": line[0]}), True

        long_lines = [c * (INLINE_LINE_BYTES + 1) for c in "abc"]

        async def scenario(front):
            answers = await asyncio.gather(*(
                _roundtrip(front.port, _post("/extract", line.encode()))
                for line in long_lines
            ))
            return answers, threading.get_ident()

        (answers, loop_thread), _ = _with_front_end(
            CountingHandler(), scenario
        )
        assert [json.loads(body)["line"] for _, _, body in answers] == [
            "a", "b", "c"
        ]
        assert peak[0] == 1  # one at a time, on one thread
        assert len(set(threads)) == 1
        assert loop_thread not in threads

    def test_shutdown_stops_the_extraction_thread(self):
        recorder = _ThreadRecordingHandler()
        long_line = "x" * (INLINE_LINE_BYTES + 1)

        async def scenario(front):
            await _roundtrip(
                front.port, _post("/extract", long_line.encode("utf-8"))
            )
            (extraction_thread,) = recorder.threads
            return [
                thread for thread in threading.enumerate()
                if thread.ident == extraction_thread
            ]

        (running, front) = _with_front_end(recorder, scenario)
        assert len(running) == 1  # alive until the shutdown...
        assert not running[0].is_alive()  # ...and joined by it
        assert front._extractor is None

    @pytest.mark.parametrize("endpoint", ("/extract", "/batch"))
    def test_whitespace_around_a_line_does_not_count_toward_the_bound(
        self, endpoint
    ):
        # The bound applies to the line as answered, after the same
        # strip the stdin loop applies.
        recorder = _ThreadRecordingHandler()
        line = "x" * INLINE_LINE_BYTES
        body = ("  " + line + " \t\r\n").encode("utf-8")

        async def scenario(front):
            status, _, payload = await _roundtrip(
                front.port, _post(endpoint, body)
            )
            return status, payload, threading.get_ident()

        (status, payload, loop_thread), front = _with_front_end(
            recorder, scenario
        )
        assert status == 200
        assert json.loads(payload) == {"line": line}
        assert recorder.threads == [loop_thread]
        assert front._extractor is None

    def test_a_crash_on_the_extraction_thread_becomes_an_error_record(self):
        # Containment holds off the loop too, and the thread that
        # caught the crash answers the next long line.
        class CrashesOnce(_ThreadRecordingHandler):
            crashed = False

            def handle_line(self, line):
                if not self.crashed:
                    self.crashed = True
                    self.threads.append(threading.get_ident())
                    raise RecursionError("pathological page")
                return super().handle_line(line)

        recorder = CrashesOnce()
        long_line = "x" * (INLINE_LINE_BYTES + 1)

        async def scenario(front):
            answers = [
                await _roundtrip(
                    front.port, _post("/extract", long_line.encode("utf-8"))
                )
                for _ in range(2)
            ]
            return answers, threading.get_ident()

        (answers, loop_thread), front = _with_front_end(recorder, scenario)
        (status, _, crashed), (again, _, answered) = answers
        assert status == again == 200
        assert "RecursionError: pathological page" in (
            json.loads(crashed)["error"]
        )
        assert json.loads(answered) == {"line": long_line}
        first, second = recorder.threads
        assert first == second != loop_thread
        assert (front.stats.pages, front.stats.served) == (2, 1)

    def test_long_and_short_lines_count_in_the_same_request_series(
        self, service_repository, service_site
    ):
        # contained_handle is the one chokepoint on either thread.
        registry = MetricsRegistry()
        handler = ServeHandler(
            service_repository, cluster="imdb-movies", metrics=registry
        )
        page = service_site.pages_with_hint("imdb-movies")[0]
        padded = json.dumps({
            "url": page.url,
            "html": page.html + "<!-- " + "x" * INLINE_LINE_BYTES + " -->",
        })

        async def scenario(front):
            for line in (_line(page), padded):
                status, _, _ = await _roundtrip(
                    front.port, _post("/extract", line.encode("utf-8"))
                )
                assert status == 200
            return front._extractor is not None

        hopped, _ = _with_front_end(handler, scenario)
        assert hopped
        parsed = parse_exposition(registry.render())
        assert parsed["repro_requests_total"][
            'repro_requests_total{outcome="served"}'
        ] == 2.0
        assert parsed["repro_request_seconds"][
            "repro_request_seconds_count"
        ] == 2.0


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
