"""Online serving: the shared handler and its two front-ends."""

import asyncio
import io
import json
import os
import threading

import pytest

from repro.extraction.extractor import ExtractionProcessor
from repro.service.compiler import CompiledWrapper
from repro.service.router import ClusterRouter
from repro.service.serve import ServeHandler, ServePolicy, serve_async


@pytest.fixture(scope="module")
def handler(service_repository):
    return ServeHandler(service_repository, cluster="imdb-movies")


@pytest.fixture(scope="module")
def routed_handler(service_site, service_repository):
    router = ClusterRouter.fit({
        hint: service_site.pages_with_hint(hint)[:8]
        for hint in ("imdb-movies", "imdb-actors", "imdb-search")
    })
    return ServeHandler(service_repository, router=router)


def _line(page) -> str:
    return json.dumps({"url": page.url, "html": page.html})


class TestServeHandler:
    def test_served_record_matches_batch_values(
        self, handler, service_site, service_repository
    ):
        page = service_site.pages_with_hint("imdb-movies")[0]
        payload, served = handler.handle_line(_line(page))
        assert served is True
        record = json.loads(payload)
        expected = ExtractionProcessor(
            service_repository, "imdb-movies"
        ).extract_page(page)
        assert record["values"] == expected.values
        assert record["cluster"] == "imdb-movies"
        assert record["url"] == page.url
        assert "index" not in record  # online records carry no stream position

    def test_malformed_requests_become_error_records(self, handler):
        for line in (
            "{not json",
            json.dumps({"url": "http://x/"}),             # html missing
            json.dumps({"url": "http://x/", "html": None}),
            json.dumps({"url": 3, "html": "<p/>"}),
        ):
            payload, served = handler.handle_line(line)
            assert served is False
            assert "error" in json.loads(payload)

    def test_router_unroutable_page_gets_gap_record(self, routed_handler):
        payload, served = routed_handler.handle_line(json.dumps({
            "url": "http://elsewhere/", "html": "<body><p>x</p></body>",
        }))
        assert served is False
        assert json.loads(payload) == {
            "url": "http://elsewhere/", "cluster": "unroutable",
            "values": {}, "failures": [],
        }

    def test_no_rules_cluster_gets_gap_record(
        self, routed_handler, service_site
    ):
        # Search pages route fine but the repository has no rules.
        page = service_site.pages_with_hint("imdb-search")[0]
        payload, served = routed_handler.handle_line(_line(page))
        assert served is False
        assert json.loads(payload)["cluster"] == "unroutable"

    def test_extraction_crash_becomes_error_record(
        self, service_repository, monkeypatch
    ):
        def boom(self, page, failures=None):
            raise RuntimeError("wrapper exploded")

        monkeypatch.setattr(CompiledWrapper, "extract_page", boom)
        crashing = ServeHandler(service_repository, cluster="imdb-movies")
        payload, served = crashing.handle_line(json.dumps({
            "url": "http://x/", "html": "<body><p>x</p></body>",
        }))
        assert served is False
        record = json.loads(payload)
        assert record["url"] == "http://x/"
        assert "wrapper exploded" in record["error"]

    def test_handler_requires_router_or_cluster(self, service_repository):
        with pytest.raises(ValueError):
            ServeHandler(service_repository)

    def test_handler_rejects_router_plus_adapter(self, service_repository):
        class FakeAdapter:
            pass

        with pytest.raises(ValueError):
            ServeHandler(
                service_repository,
                router=object(),
                adapter=FakeAdapter(),
            )


class TestServePolicy:
    def test_rejects_non_positive_limits(self):
        with pytest.raises(ValueError):
            ServePolicy(max_decode_failures=0)
        with pytest.raises(ValueError):
            ServePolicy(max_inflight=0)

    def test_defaults_match_the_module_constants(self):
        from repro.service.serve import (
            DEFAULT_MAX_INFLIGHT,
            MAX_DECODE_FAILURES,
        )

        policy = ServePolicy()
        assert policy.max_decode_failures == MAX_DECODE_FAILURES
        assert policy.max_inflight == DEFAULT_MAX_INFLIGHT


class _CountingHandler:
    """A stub handler that records its peak concurrency."""

    def __init__(self, hold_seconds: float = 0.0) -> None:
        self.hold_seconds = hold_seconds
        self.active = 0
        self.peak = 0
        self._lock = threading.Lock()
        self._wake = threading.Event()

    def handle_line(self, line: str) -> tuple:
        with self._lock:
            self.active += 1
            self.peak = max(self.peak, self.active)
        if self.hold_seconds:
            self._wake.wait(self.hold_seconds)
        with self._lock:
            self.active -= 1
        return line, True


class TestAsyncServe:
    def _run(self, handler, text, **kwargs):
        stdout = io.StringIO()
        stats = asyncio.run(serve_async(
            handler, io.StringIO(text), stdout, **kwargs
        ))
        return stats, stdout.getvalue()

    def test_output_order_matches_input_order(self, handler, service_site):
        pages = service_site.pages_with_hint("imdb-movies")[:20]
        lines = [_line(page) for page in pages]
        lines.insert(10, "{not json")  # an error record mid-stream
        stats, output = self._run(handler, "\n".join(lines) + "\n")
        assert stats.served == 20
        assert not stats.gave_up
        out_lines = output.strip().splitlines()
        assert len(out_lines) == 21
        assert "error" in json.loads(out_lines[10])
        served_urls = [
            json.loads(line)["url"]
            for position, line in enumerate(out_lines) if position != 10
        ]
        assert served_urls == [page.url for page in pages]

    def test_stream_equivalent_to_sequential_handler(
        self, handler, service_site
    ):
        # The async front-end must emit exactly what one-line-at-a-time
        # processing emits: same records, same order, same bytes.
        pages = service_site.pages_with_hint("imdb-movies")[:12]
        text = "".join(_line(page) + "\n" for page in pages)
        _, output = self._run(handler, text, max_inflight=5)
        expected = "".join(
            handler.handle_line(_line(page))[0] + "\n" for page in pages
        )
        assert output == expected

    def test_handles_eight_pages_in_flight(self):
        # A barrier only 8 concurrent workers can clear: if the
        # front-end held fewer than 8 pages in flight, this would
        # BrokenBarrierError out on the timeout instead of passing.
        barrier = threading.Barrier(8)

        class BarrierHandler:
            def handle_line(self, line):
                barrier.wait(timeout=10)
                return line, True

        text = "".join(f"page-{i}\n" for i in range(8))
        stats, output = self._run(BarrierHandler(), text, max_inflight=8)
        assert stats.served == 8
        assert output.splitlines() == [f"page-{i}" for i in range(8)]

    def test_backpressure_caps_inflight_pages(self):
        counting = _CountingHandler(hold_seconds=0.02)
        text = "".join(f"page-{i}\n" for i in range(30))
        stats, _ = self._run(counting, text, max_inflight=4)
        assert stats.served == 30
        assert 1 <= counting.peak <= 4

    def test_slow_head_of_line_page_bounds_the_reorder_buffer(self):
        # The first page stalls in extraction; admission must stop at
        # the in-flight window, not let completed later outcomes pile
        # up in the reorder buffer while the window "recycles".
        release = threading.Event()

        class SlowFirstHandler:
            def __init__(self):
                self.admitted_during_stall = 0

            def handle_line(self, line):
                if line == "page-0":
                    release.wait(timeout=10)
                elif not release.is_set():
                    self.admitted_during_stall += 1
                return line, True

        handler = SlowFirstHandler()
        threading.Timer(0.2, release.set).start()
        text = "".join(f"page-{i}\n" for i in range(20))
        stats, output = self._run(handler, text, max_inflight=4)
        assert stats.served == 20
        assert output.splitlines() == [f"page-{i}" for i in range(20)]
        # At most window-minus-blocker pages ever started while page-0
        # held the stream (pre-fix this was ~19: every line admitted).
        assert handler.admitted_during_stall <= 3

    def test_handler_crash_never_dams_the_output_stream(self):
        # handle_line contains its own errors; if something still
        # escapes, that sequence slot must emit an error record, or
        # every later response would be held forever.
        class ExplodingHandler:
            def handle_line(self, line):
                if line == "page-1":
                    raise RecursionError("pathological page")
                return line, True

        text = "".join(f"page-{i}\n" for i in range(4))
        stats, output = self._run(ExplodingHandler(), text, max_inflight=2)
        lines = output.strip().splitlines()
        assert len(lines) == 4
        assert "pathological page" in json.loads(lines[1])["error"]
        assert [lines[0], lines[2], lines[3]] == ["page-0", "page-2",
                                                  "page-3"]
        assert stats.served == 3

    def test_blank_lines_and_final_unterminated_line(self, handler):
        stats, output = self._run(handler, "\n   \n{truncated")
        out_lines = output.strip().splitlines()
        assert len(out_lines) == 1  # blanks skipped, EOF line served
        assert "error" in json.loads(out_lines[0])
        assert stats.served == 0

    def test_persistent_decode_failures_give_up(self, handler):
        class BrokenStdin:
            def readline(self):
                raise UnicodeDecodeError("utf-8", b"\xff", 0, 1, "bad")

        stdout = io.StringIO()
        stats = asyncio.run(serve_async(
            handler, BrokenStdin(), stdout, max_decode_failures=3,
        ))
        assert stats.gave_up
        assert stdout.getvalue().count("undecodable input") == 3

    def test_interleaved_decode_failures_reset_the_cap(self, handler):
        class FlakyStdin:
            def __init__(self, reads):
                self._reads = iter(reads)

            def readline(self):
                item = next(self._reads, "")
                if isinstance(item, Exception):
                    raise item
                return item

        good = json.dumps({"url": "http://x/", "html": "<p>x</p>"})
        reads = []
        for _ in range(5):
            reads.append(UnicodeDecodeError("utf-8", b"\xff", 0, 1, "bad"))
            reads.append(good + "\n")
        stdout = io.StringIO()
        stats = asyncio.run(serve_async(
            handler, FlakyStdin(reads), stdout, max_decode_failures=3,
        ))
        assert not stats.gave_up
        assert stats.served == 5
        assert len(stdout.getvalue().strip().splitlines()) == 10

    def test_consumer_closing_output_stops_cleanly(self, handler,
                                                   service_site):
        closed_after = []

        class ClosingPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        pages = service_site.pages_with_hint("imdb-movies")[:5]
        text = "".join(_line(page) + "\n" for page in pages)
        stats = asyncio.run(serve_async(
            handler, io.StringIO(text), ClosingPipe(),
            on_output_closed=lambda: closed_after.append(True),
        ))
        assert stats.output_closed
        assert stats.served == 0
        assert closed_after == [True]

    def test_invalid_inflight_rejected(self, handler):
        with pytest.raises(ValueError):
            asyncio.run(serve_async(
                handler, io.StringIO(""), io.StringIO(), max_inflight=0,
            ))


# --------------------------------------------------------------------- #
# One page in flight: read, extract, write, then read again
# --------------------------------------------------------------------- #

#: The stdin loop's in-flight windows under test: ``sync`` serves one
#: page at a time, ``async`` uses the policy's default window.
STDIN_WINDOWS = {"sync": 1, "async": None}


def _serve_one_at_a_time(handler, stdin, stdout, **kwargs):
    """Run the stdin loop with a single page in flight."""
    return asyncio.run(serve_async(
        handler, stdin, stdout, max_inflight=1, **kwargs
    ))


class TestServeSyncLoop:
    """The stdin loop at ``max_inflight=1``: strictly sequential serving."""

    def test_stream_identical_to_async_front_end(
        self, handler, service_site
    ):
        pages = service_site.pages_with_hint("imdb-movies")[:10]
        lines = [_line(page) for page in pages]
        lines.insert(4, "{not json")
        text = "".join(line + "\n" for line in lines)
        sync_out = io.StringIO()
        sync_stats = _serve_one_at_a_time(handler, io.StringIO(text),
                                          sync_out)
        async_out = io.StringIO()
        async_stats = asyncio.run(serve_async(
            handler, io.StringIO(text), async_out
        ))
        assert sync_out.getvalue() == async_out.getvalue()
        assert sync_stats.served == async_stats.served == 10

    def test_handler_crash_becomes_an_error_record(self):
        # A crash that escapes containment must not kill the session,
        # even with no other page in flight to keep the stream moving.
        class ExplodingHandler:
            def handle_line(self, line):
                if line == "page-1":
                    raise RecursionError("pathological page")
                return line, True

        text = "".join(f"page-{i}\n" for i in range(4))
        stdout = io.StringIO()
        stats = _serve_one_at_a_time(
            ExplodingHandler(), io.StringIO(text), stdout
        )
        lines = stdout.getvalue().splitlines()
        assert len(lines) == 4
        assert "pathological page" in json.loads(lines[1])["error"]
        assert stats.served == 3

    def test_decode_failure_cap_comes_from_the_handler_policy(
        self, service_repository
    ):
        class BrokenStdin:
            def readline(self):
                raise UnicodeDecodeError("utf-8", b"\xff", 0, 1, "bad")

        capped = ServeHandler(
            service_repository, cluster="imdb-movies",
            policy=ServePolicy(max_decode_failures=3),
        )
        stdout = io.StringIO()
        stats = _serve_one_at_a_time(capped, BrokenStdin(), stdout)
        assert stats.gave_up
        assert stdout.getvalue().count("undecodable input") == 3
        # The same policy object drives the default window to the same end.
        async_out = io.StringIO()
        async_stats = asyncio.run(
            serve_async(capped, BrokenStdin(), async_out)
        )
        assert async_stats.gave_up
        assert async_out.getvalue().count("undecodable input") == 3

    def test_blank_lines_and_final_unterminated_line(self, handler):
        stdout = io.StringIO()
        stats = _serve_one_at_a_time(
            handler, io.StringIO("\n   \n{truncated"), stdout
        )
        (line,) = stdout.getvalue().strip().splitlines()
        assert "error" in json.loads(line)
        assert stats.served == 0

    def test_explicit_cap_argument_overrides_the_policy(
        self, service_repository
    ):
        class BrokenStdin:
            def readline(self):
                raise UnicodeDecodeError("utf-8", b"\xff", 0, 1, "bad")

        lenient = ServeHandler(
            service_repository, cluster="imdb-movies",
            policy=ServePolicy(max_decode_failures=5),
        )
        stdout = io.StringIO()
        stats = _serve_one_at_a_time(
            lenient, BrokenStdin(), stdout, max_decode_failures=2
        )
        assert stats.gave_up
        assert stdout.getvalue().count("undecodable input") == 2

    def test_output_closing_during_decode_error_record(self, handler):
        # The consumer hangs up exactly while an undecodable-input
        # record is being written: output-closed wins over giving up.
        class BrokenStdin:
            def readline(self):
                raise UnicodeDecodeError("utf-8", b"\xff", 0, 1, "bad")

        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        stats = _serve_one_at_a_time(handler, BrokenStdin(), ClosedPipe())
        assert stats.output_closed
        assert not stats.gave_up

    @pytest.mark.parametrize("front_end", ("sync", "async"))
    def test_unencodable_output_fails_loudly_not_as_output_closed(
        self, front_end, handler, service_site
    ):
        # UnicodeEncodeError is a ValueError subclass; treating it as
        # "consumer closed the output" would silently drop every
        # remaining page behind a clean exit.  The loop must surface it
        # on the session's stack, not a worker's — and must not leak
        # the in-flight slot and deadlock admission.
        class NarrowStdout(io.StringIO):
            def write(self, text):
                raise UnicodeEncodeError(
                    "charmap", text, 0, 1, "character maps to <undefined>"
                )

        pages = service_site.pages_with_hint("imdb-movies")[:12]
        text = "".join(_line(page) + "\n" for page in pages)

        async def _main():
            # The timeout is the deadlock regression check: a leaked
            # slot would hang admission forever.
            await asyncio.wait_for(serve_async(
                handler, io.StringIO(text), NarrowStdout(),
                max_inflight=1 if front_end == "sync" else 4,
            ), timeout=30)

        with pytest.raises(UnicodeEncodeError):
            asyncio.run(_main())


# --------------------------------------------------------------------- #
# One policy, one record shape: the front-ends may never drift
# --------------------------------------------------------------------- #


def _drive_front_end(front_end: str, handler, lines: list[str]):
    """Feed the same request lines to any front-end; its output lines."""
    text = "".join(line + "\n" for line in lines)
    if front_end in STDIN_WINDOWS:
        stdout = io.StringIO()
        asyncio.run(serve_async(
            handler, io.StringIO(text), stdout,
            max_inflight=STDIN_WINDOWS[front_end],
        ))
        return stdout.getvalue().splitlines()
    assert front_end == "http"
    from test_service_http import http_batch_lines

    return http_batch_lines(handler, lines)


FRONT_ENDS = ("sync", "async", "http")


class TestFrontEndParity:
    @pytest.mark.parametrize("front_end", FRONT_ENDS)
    def test_error_record_shaping_is_identical(
        self, front_end, handler, service_site
    ):
        # Every failure class, plus a served page and an unroutable
        # one: every front-end must emit byte-identical records.
        page = service_site.pages_with_hint("imdb-movies")[0]
        lines = [
            "{not json",
            json.dumps({"url": "http://x/"}),              # html missing
            json.dumps({"url": "http://x/", "html": None}),
            json.dumps({"url": 3, "html": "<p/>"}),
            json.dumps({"url": page.url, "html": page.html}),
        ]
        expected = [handler.handle_line(line)[0] for line in lines]
        assert _drive_front_end(front_end, handler, lines) == expected

    @pytest.mark.parametrize("front_end", FRONT_ENDS)
    def test_extraction_crash_record_is_identical(
        self, front_end, service_repository, monkeypatch
    ):
        def boom(self, page, failures=None):
            raise RuntimeError("wrapper exploded")

        monkeypatch.setattr(CompiledWrapper, "extract_page", boom)
        crashing = ServeHandler(service_repository, cluster="imdb-movies")
        line = json.dumps({
            "url": "http://x/", "html": "<body><p>x</p></body>",
        })
        (out,) = _drive_front_end(front_end, crashing, [line])
        record = json.loads(out)
        assert record["url"] == "http://x/"
        assert "wrapper exploded" in record["error"]


class TestClosedDownstreamPipe:
    """Regression: a closed consumer pipe, both stdin-loop windows.

    Uses a *real* OS pipe with the read end closed — the write fails
    with ``EPIPE`` exactly as when a ``serve | consumer`` pipeline's
    consumer exits — where the old in-memory stubs only simulated the
    exception type.
    """

    @pytest.mark.parametrize("front_end", STDIN_WINDOWS)
    def test_closed_pipe_exits_cleanly(
        self, front_end, handler, service_site
    ):
        read_fd, write_fd = os.pipe()
        os.close(read_fd)
        stdout = os.fdopen(write_fd, "w")
        closed = []
        pages = service_site.pages_with_hint("imdb-movies")[:4]
        text = "".join(_line(page) + "\n" for page in pages)
        try:
            stats = asyncio.run(serve_async(
                handler, io.StringIO(text), stdout,
                max_inflight=STDIN_WINDOWS[front_end],
                on_output_closed=lambda: closed.append(True),
            ))
        finally:
            try:
                stdout.close()
            except BrokenPipeError:
                pass
        assert stats.output_closed
        assert stats.served == 0
        assert closed == [True]  # fires exactly once


# --------------------------------------------------------------------- #
# Interruption mid-stream: drain, flush, stay line-complete
# --------------------------------------------------------------------- #


class TestInterrupt:
    def test_sync_interrupt_flushes_line_complete_output(
        self, handler, service_site
    ):
        # Ctrl-C raised synchronously out of a read — as opposed to the
        # task cancellation below.
        pages = service_site.pages_with_hint("imdb-movies")[:3]

        class InterruptingStdin:
            """Three good lines, then the operator hits Ctrl-C."""

            def __init__(self, lines):
                self._lines = list(lines)

            def readline(self):
                if not self._lines:
                    raise KeyboardInterrupt
                return self._lines.pop(0)

        stdout = io.StringIO()
        stats = asyncio.run(serve_async(
            handler,
            InterruptingStdin([_line(page) + "\n" for page in pages]),
            stdout,
        ))
        assert stats.interrupted
        assert stats.served == 3
        output = stdout.getvalue()
        assert output.endswith("\n")  # no truncated final record
        lines = output.splitlines()
        assert [json.loads(line)["url"] for line in lines] == [
            page.url for page in pages
        ]

    def test_async_cancellation_drains_inflight_line_complete(self):
        release = threading.Event()

        class SlowHandler:
            def handle_line(self, line):
                release.wait(timeout=10)
                return json.dumps({"line": line}), True

        async def _main():
            text = "".join(f"page-{i}\n" for i in range(20))
            stdout = io.StringIO()
            task = asyncio.ensure_future(serve_async(
                SlowHandler(), io.StringIO(text), stdout, max_inflight=4,
            ))
            # Let the window fill, then interrupt the session while
            # four pages are mid-extraction.
            await asyncio.sleep(0.1)
            task.cancel()
            release.set()
            return await task, stdout

        stats, stdout = asyncio.run(_main())
        assert stats.interrupted
        # The in-flight window drained: its four pages were emitted in
        # order, line-complete, and nothing after them.
        output = stdout.getvalue()
        assert output.endswith("\n")
        assert [json.loads(line)["line"] for line in output.splitlines()] \
            == [f"page-{i}" for i in range(4)]
        assert stats.served == 4

    def test_interrupt_on_quiet_stdin_exits_promptly(self):
        # An operator's Ctrl-C while stdin is silent (a tty, a quiet
        # pipe) must not stall on a blocked readline: the reader is a
        # daemon thread nothing needs to join, so the whole
        # ``asyncio.run`` — teardown included — returns promptly.
        import time as _time

        release = threading.Event()

        class QuietStdin:
            def readline(self):
                release.wait(timeout=30)  # no input is coming
                return ""

        class NeverCalledHandler:
            def handle_line(self, line):  # pragma: no cover
                raise AssertionError("no line should ever arrive")

        async def _main():
            task = asyncio.ensure_future(serve_async(
                NeverCalledHandler(), QuietStdin(), io.StringIO(),
            ))
            await asyncio.sleep(0.1)
            task.cancel()
            return await task

        started = _time.perf_counter()
        try:
            stats = asyncio.run(_main())
        finally:
            release.set()
        assert stats.interrupted
        assert _time.perf_counter() - started < 5
