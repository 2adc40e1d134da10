"""Online serving: the shared handler and its two front-ends."""

import io
import json
import os
import select
import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.extraction.extractor import ExtractionProcessor
from repro.service.compiler import CompiledWrapper
from repro.service.router import ClusterRouter
from repro.service.serve import ServeHandler, ServePolicy, serve_lines


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

    def test_defaults_match_the_module_constants(self):
        from repro.service.serve import MAX_DECODE_FAILURES

        policy = ServePolicy()
        assert policy.max_decode_failures == MAX_DECODE_FAILURES


class _BrokenStdin:
    """Every read fails to decode."""

    def readline(self):
        raise UnicodeDecodeError("utf-8", b"\xff", 0, 1, "bad")


def _capped(service_repository, max_decode_failures: int) -> ServeHandler:
    return ServeHandler(
        service_repository, cluster="imdb-movies",
        policy=ServePolicy(max_decode_failures=max_decode_failures),
    )


class _EchoHandler:
    """Answers each line with itself."""

    def handle_line(self, line):
        return line, True


class _CountingStdout(io.StringIO):
    """Counts the whole records written, and those flushed."""

    def __init__(self):
        super().__init__()
        self.flushed = 0

    @property
    def written(self) -> int:
        return self.getvalue().count("\n")

    def flush(self):
        super().flush()
        self.flushed = self.written


class _WatchedStdin:
    """Hands out its lines, noting at each read what the output held."""

    def __init__(self, lines, stdout: _CountingStdout):
        self._lines = list(lines)
        self._stdout = stdout
        #: ``(records written, records flushed)`` at each read.
        self.seen = []

    def readline(self):
        self.seen.append((self._stdout.written, self._stdout.flushed))
        return self._lines.pop(0) if self._lines else ""


class TestServeLines:
    """The stdin loop: read a line, answer it, write it, read again."""

    def _run(self, handler, text, **kwargs):
        stdout = io.StringIO()
        stats = serve_lines(handler, io.StringIO(text), stdout, **kwargs)
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
        # The loop must emit exactly what calling the handler line by
        # line emits: same records, same order, same bytes.
        pages = service_site.pages_with_hint("imdb-movies")[:12]
        text = "".join(_line(page) + "\n" for page in pages)
        _, output = self._run(handler, text)
        expected = "".join(
            handler.handle_line(_line(page))[0] + "\n" for page in pages
        )
        assert output == expected

    def test_handler_crash_becomes_an_error_record(self):
        # A crash that escapes containment must not kill the session.
        class ExplodingHandler:
            def handle_line(self, line):
                if line == "page-1":
                    raise RecursionError("pathological page")
                return line, True

        text = "".join(f"page-{i}\n" for i in range(4))
        stats, output = self._run(ExplodingHandler(), text)
        lines = output.splitlines()
        assert len(lines) == 4
        assert "pathological page" in json.loads(lines[1])["error"]
        assert [lines[0], lines[2], lines[3]] == ["page-0", "page-2",
                                                  "page-3"]
        assert stats.served == 3

    def test_blank_lines_and_final_unterminated_line(self, handler):
        stats, output = self._run(handler, "\n   \n{truncated")
        (line,) = output.strip().splitlines()  # blanks skipped, EOF line served
        assert "error" in json.loads(line)
        assert stats.served == 0

    def test_decode_failure_cap_comes_from_the_handler_policy(
        self, service_repository
    ):
        stdout = io.StringIO()
        stats = serve_lines(
            _capped(service_repository, 3), _BrokenStdin(), stdout
        )
        assert stats.gave_up
        assert stdout.getvalue().count("undecodable input") == 3

    def test_interleaved_decode_failures_reset_the_cap(
        self, service_repository
    ):
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
        stats = serve_lines(
            _capped(service_repository, 3), FlakyStdin(reads), stdout
        )
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
        stats = serve_lines(
            handler, io.StringIO(text), ClosingPipe(),
            on_output_closed=lambda: closed_after.append(True),
        )
        assert stats.output_closed
        assert stats.served == 0
        assert closed_after == [True]

    def test_output_closing_during_decode_error_record(self, handler):
        # The consumer hangs up exactly while an undecodable-input
        # record is being written: output-closed wins over giving up.
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        stats = serve_lines(handler, _BrokenStdin(), ClosedPipe())
        assert stats.output_closed
        assert not stats.gave_up

    def test_unencodable_output_fails_loudly_not_as_output_closed(
        self, handler, service_site
    ):
        # UnicodeEncodeError is a ValueError subclass; treating it as
        # "consumer closed the output" would silently drop every
        # remaining page behind a clean exit.
        class NarrowStdout(io.StringIO):
            def write(self, text):
                raise UnicodeEncodeError(
                    "charmap", text, 0, 1, "character maps to <undefined>"
                )

        pages = service_site.pages_with_hint("imdb-movies")[:12]
        text = "".join(_line(page) + "\n" for page in pages)
        with pytest.raises(UnicodeEncodeError):
            serve_lines(handler, io.StringIO(text), NarrowStdout())

    def test_reads_the_next_line_only_after_writing_the_record(self):
        # One page in flight: every read after the first finds the
        # previous line's record already written.
        stdout = _CountingStdout()
        stdin = _WatchedStdin([f"page-{i}\n" for i in range(5)], stdout)
        stats = serve_lines(_EchoHandler(), stdin, stdout)
        assert stats.served == 5
        assert [written for written, _ in stdin.seen] == [0, 1, 2, 3, 4, 5]

    def test_each_record_is_flushed_before_the_next_read(self):
        # A consumer on a pipe sees each record before the loop waits
        # for the next request, not when a buffer happens to fill.
        stdout = _CountingStdout()
        stdin = _WatchedStdin([f"page-{i}\n" for i in range(5)], stdout)
        serve_lines(_EchoHandler(), stdin, stdout)
        assert [flushed for _, flushed in stdin.seen] == [0, 1, 2, 3, 4, 5]

    def test_a_consumer_hang_up_stops_reading_the_input(self):
        # Nothing is read past the line whose record found the output
        # closed: the producer upstream is not drained for nothing.
        class HangsUpAfterTwo(_CountingStdout):
            def write(self, text):
                if self.written == 2:
                    raise BrokenPipeError(32, "Broken pipe")
                return super().write(text)

        stdout = HangsUpAfterTwo()
        stdin = _WatchedStdin([f"page-{i}\n" for i in range(6)], stdout)
        closed = []
        stats = serve_lines(
            _EchoHandler(), stdin, stdout,
            on_output_closed=lambda: closed.append(True),
        )
        assert stats.output_closed
        assert stats.served == 2
        assert stdout.getvalue() == "page-0\npage-1\n"
        assert len(stdin.seen) == 3
        assert closed == [True]

    def test_answers_on_the_calling_thread_without_starting_one(self):
        before = set(threading.enumerate())
        answered = []

        class ThreadNotingHandler:
            def handle_line(self, line):
                answered.append((
                    threading.get_ident(),
                    set(threading.enumerate()) <= before,
                ))
                return line, True

        stats, _ = self._run(ThreadNotingHandler(), "page-0\npage-1\npage-2\n")
        assert stats.served == 3
        assert answered == [(threading.get_ident(), True)] * 3

    def test_a_lockstep_client_on_real_pipes_gets_each_answer(
        self, handler, service_site
    ):
        # A client that sends its next request only after reading the
        # last answer: each line must be answered as soon as it is
        # read, with no read-ahead or output buffering in the way.
        pages = service_site.pages_with_hint("imdb-movies")[:4]
        request_read, request_write = os.pipe()
        record_read, record_write = os.pipe()
        stdin = os.fdopen(request_read, "r", encoding="utf-8")
        stdout = os.fdopen(record_write, "w", encoding="utf-8")
        requests = os.fdopen(request_write, "w", encoding="utf-8")
        records = os.fdopen(record_read, "r", encoding="utf-8")
        sessions = []
        server = threading.Thread(
            target=lambda: sessions.append(
                serve_lines(handler, stdin, stdout)
            ),
            daemon=True,
        )
        server.start()
        answers = []
        try:
            for page in pages:
                requests.write(_line(page) + "\n")
                requests.flush()
                ready, _, _ = select.select([record_read], [], [], 10)
                assert ready, "no record within 10 s of its request"
                answers.append(json.loads(records.readline()))
        finally:
            requests.close()  # EOF ends the session
            server.join(timeout=10)
            for stream in (stdin, stdout, records):
                stream.close()
        assert [answer["url"] for answer in answers] == [
            page.url for page in pages
        ]
        (stats,) = sessions
        assert stats.served == len(pages)


# --------------------------------------------------------------------- #
# One policy, one record shape: the front-ends may never drift
# --------------------------------------------------------------------- #


def _drive_front_end(front_end: str, handler, lines: list[str]):
    """Feed the same request lines to any front-end; its output lines."""
    text = "".join(line + "\n" for line in lines)
    if front_end == "stdin":
        stdout = io.StringIO()
        serve_lines(handler, io.StringIO(text), stdout)
        return stdout.getvalue().splitlines()
    if front_end == "http-extract":
        from test_service_http import http_extract_lines

        return http_extract_lines(handler, lines)
    assert front_end == "http"
    from test_service_http import http_batch_lines

    return http_batch_lines(handler, lines)


#: The stdin loop, ``POST /batch`` and one ``POST /extract`` per line.
FRONT_ENDS = ("stdin", "http", "http-extract")


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
    """Regression: a closed consumer pipe under the stdin loop.

    Uses a *real* OS pipe with the read end closed — the write fails
    with ``EPIPE`` exactly as when a ``serve | consumer`` pipeline's
    consumer exits — where the old in-memory stubs only simulated the
    exception type.
    """

    def test_closed_pipe_exits_cleanly(self, handler, service_site):
        read_fd, write_fd = os.pipe()
        os.close(read_fd)
        stdout = os.fdopen(write_fd, "w")
        closed = []
        pages = service_site.pages_with_hint("imdb-movies")[:4]
        text = "".join(_line(page) + "\n" for page in pages)
        try:
            stats = serve_lines(
                handler, io.StringIO(text), stdout,
                on_output_closed=lambda: closed.append(True),
            )
        finally:
            try:
                stdout.close()
            except BrokenPipeError:
                pass
        assert stats.output_closed
        assert stats.served == 0
        assert closed == [True]  # fires exactly once


# --------------------------------------------------------------------- #
# Interruption mid-stream: flush, stay line-complete
# --------------------------------------------------------------------- #


class TestInterrupt:
    def test_sync_interrupt_flushes_line_complete_output(
        self, handler, service_site
    ):
        # Ctrl-C raised out of a read, after three answered lines.
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
        stats = serve_lines(
            handler,
            InterruptingStdin([_line(page) + "\n" for page in pages]),
            stdout,
        )
        assert stats.interrupted
        assert stats.served == 3
        output = stdout.getvalue()
        assert output.endswith("\n")  # no truncated final record
        lines = output.splitlines()
        assert [json.loads(line)["url"] for line in lines] == [
            page.url for page in pages
        ]

    def test_interrupt_inside_the_handler_keeps_written_records_whole(self):
        # Ctrl-C lands mid-extraction: containment must not swallow it
        # into an error record, and the page it cut short writes
        # nothing, so every line on the output is a whole record.
        class InterruptedHandler:
            def handle_line(self, line):
                if line == "page-2":
                    raise KeyboardInterrupt
                return line, True

        stdout = io.StringIO()
        stats = serve_lines(
            InterruptedHandler(),
            io.StringIO("".join(f"page-{i}\n" for i in range(4))),
            stdout,
        )
        assert stats.interrupted
        assert stats.served == 2
        assert stdout.getvalue() == "page-0\npage-1\n"

    def test_sigint_on_an_open_stdin_pipe_exits_promptly(
        self, service_repository, service_site, tmp_path
    ):
        # The operator's Ctrl-C reaches a ``serve`` blocked reading a
        # quiet pipe: it exits 130 at once, every answered record whole.
        repo_path = tmp_path / "rules.json"
        service_repository.save(str(repo_path))
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH", "")) if p
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--repository", str(repo_path), "--cluster", "imdb-movies"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, env=env,
        )
        watchdog = threading.Timer(60, proc.kill)
        watchdog.start()
        page = service_site.pages_with_hint("imdb-movies")[0]
        try:
            proc.stdin.write((_line(page) + "\n").encode("utf-8"))
            proc.stdin.flush()
            first = proc.stdout.readline()  # answered; now reading again
            proc.send_signal(signal.SIGINT)
            returncode = proc.wait(timeout=5)
            rest, err = proc.stdout.read(), proc.stderr.read()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            for stream in (proc.stdin, proc.stdout, proc.stderr):
                stream.close()
        assert returncode == 130
        assert json.loads(first)["url"] == page.url
        assert first.endswith(b"\n") and rest == b""
        assert b"interrupted" in err
