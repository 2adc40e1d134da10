"""Admission control: bucket edges, 429/503 selection, drain agreement."""

import asyncio
import json
import socket
import threading
import time

import pytest

from test_service_http import _post, _read_response, _roundtrip, _with_front_end

from repro.cli import main
from repro.service.metrics import (
    AdmissionController,
    AdmissionDecision,
    MetricsRegistry,
    TokenBucket,
    default_registry,
    parse_exposition,
)
from repro.service.serve import ServeHandler, ServePolicy


class FakeClock:
    """A controllable monotonic clock for deterministic bucket tests."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _line(page) -> str:
    return json.dumps({"url": page.url, "html": page.html})


def _get(path: str) -> bytes:
    return (
        f"GET {path} HTTP/1.1\r\nHost: test\r\n\r\n"
    ).encode("latin-1")


# --------------------------------------------------------------------- #
# Token-bucket refill boundaries
# --------------------------------------------------------------------- #


class TestTokenBucket:
    def test_starts_full_and_caps_the_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=1.0, burst=3, clock=clock)
        assert [bucket.try_acquire() for _ in range(4)] == [
            True, True, True, False,
        ]

    def test_refill_boundary_is_exact(self):
        # rate=2/s after a drained burst-1 bucket: the next token
        # exists at exactly t=0.5, not a tick before.
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=1, clock=clock)
        assert bucket.try_acquire()
        assert not bucket.try_acquire()
        clock.advance(0.499)
        assert not bucket.try_acquire()
        clock.advance(0.001)
        assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_refill_never_exceeds_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10.0, burst=2, clock=clock)
        clock.advance(3600.0)
        assert [bucket.try_acquire() for _ in range(3)] == [
            True, True, False,
        ]

    def test_retry_after_counts_down_with_the_clock(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=0.5, burst=1, clock=clock)
        assert bucket.retry_after() == 0.0  # a token is ready
        assert bucket.try_acquire()
        assert bucket.retry_after() == pytest.approx(2.0)
        clock.advance(1.5)
        assert bucket.retry_after() == pytest.approx(0.5)
        clock.advance(0.5)
        assert bucket.retry_after() == 0.0
        assert bucket.try_acquire()

    def test_partial_tokens_do_not_admit(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=1.0, burst=1, clock=clock)
        assert bucket.try_acquire()
        clock.advance(0.999)
        assert not bucket.try_acquire()
        # The failed probe must not forfeit the accrued fraction.
        clock.advance(0.001)
        assert bucket.try_acquire()

    def test_a_backwards_clock_does_not_mint_tokens(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=1.0, burst=1, clock=clock)
        assert bucket.try_acquire()
        clock.now = -100.0
        assert not bucket.try_acquire()

    @pytest.mark.parametrize("rate,burst", [(0.0, 1), (-1.0, 1), (1.0, 0)])
    def test_constructor_validation(self, rate, burst):
        with pytest.raises(ValueError):
            TokenBucket(rate=rate, burst=burst)


# --------------------------------------------------------------------- #
# 429 vs 503 selection at the controller
# --------------------------------------------------------------------- #


def _controller(clock, registry=None, **kwargs):
    registry = registry if registry is not None else MetricsRegistry()
    return AdmissionController(metrics=registry, clock=clock, **kwargs)


class TestAdmissionSelection:
    def test_disabled_brakes_admit_everything(self):
        control = _controller(FakeClock())
        decisions = [control.admit(client="c") for _ in range(50)]
        assert all(decision.admitted for decision in decisions)

    def test_rate_limit_is_per_client(self):
        control = _controller(FakeClock(), rate_limit=1.0, rate_burst=1)
        assert control.admit(client="a").admitted
        assert not control.admit(client="a").admitted
        assert control.admit(client="b").admitted  # b has its own bucket

    def test_429_carries_the_buckets_retry_after(self):
        clock = FakeClock()
        control = _controller(clock, rate_limit=0.25, rate_burst=1)
        assert control.admit(client="a").admitted
        refused = control.admit(client="a")
        assert (refused.admitted, refused.status, refused.reason) == (
            False, 429, "rate-limited",
        )
        assert refused.retry_after == pytest.approx(4.0)

    def test_rate_check_outranks_saturation(self):
        # An abusive client sees its own 429 even on a full server;
        # the 503 is reserved for clients within their rate.
        clock = FakeClock()
        control = _controller(
            clock, rate_limit=1.0, rate_burst=1, max_concurrent=1,
        )
        assert control.admit(client="good").admitted  # the slot is held
        abusive = control.admit(client="abusive")  # token spent on a 503
        assert (abusive.status, abusive.reason) == (503, "saturated")
        again = control.admit(client="abusive")
        assert (again.status, again.reason) == (429, "rate-limited")
        polite = control.admit(client="polite")
        assert (polite.status, polite.reason) == (503, "saturated")
        assert polite.retry_after == pytest.approx(1.0)

    def test_release_frees_the_slot(self):
        control = _controller(FakeClock(), max_concurrent=2)
        assert control.admit().admitted
        assert control.admit().admitted
        assert control.inflight == 2
        assert control.admit().status == 503
        control.release()
        assert control.admit().admitted

    def test_rejections_and_inflight_reach_the_registry(self):
        registry = MetricsRegistry()
        clock = FakeClock()
        control = _controller(
            clock, registry, rate_limit=1.0, rate_burst=1, max_concurrent=1,
        )
        assert control.admit(client="a").admitted
        control.admit(client="a")          # 429
        control.admit(client="b")          # 503 (slot held by a)
        parsed = parse_exposition(registry.render())
        rejected = parsed["repro_admission_rejected_total"]
        key = 'repro_admission_rejected_total{reason="%s"}'
        assert rejected[key % "rate-limited"] == 1.0
        assert rejected[key % "saturated"] == 1.0
        inflight = parsed["repro_inflight_requests"]
        assert inflight["repro_inflight_requests"] == 1.0
        control.release()
        parsed = parse_exposition(registry.render())
        assert parsed["repro_inflight_requests"][
            "repro_inflight_requests"
        ] == 0.0

    def test_lru_eviction_hands_an_evicted_client_a_fresh_bucket(self):
        control = _controller(
            FakeClock(), rate_limit=1.0, rate_burst=1, max_clients=2,
        )
        assert control.admit(client="a").admitted
        assert not control.admit(client="a").admitted  # a is drained
        control.admit(client="b")
        control.admit(client="c")  # evicts a (the least recently used)
        assert control.admit(client="a").admitted  # back to a full bucket

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rate_limit": -1.0},
            {"rate_limit": 1.0, "rate_burst": 0},
            {"max_concurrent": -1},
            {"max_clients": 0},
        ],
    )
    def test_constructor_validation(self, kwargs):
        with pytest.raises(ValueError):
            _controller(FakeClock(), **kwargs)


# --------------------------------------------------------------------- #
# The wire Retry-After: whole seconds, rounded up, never 0
# --------------------------------------------------------------------- #


class TestRetryAfterSeconds:
    @pytest.mark.parametrize("retry_after, wire", [
        (0.0, 1),       # a "ready now" bucket still must not say 0
        (0.001, 1),     # sub-second waits round up, not down
        (0.5, 1),
        (0.999, 1),
        (1.0, 1),       # exact whole seconds pass through
        (1.0001, 2),    # the boundary rounds up, not truncates
        (2.25, 3),
        (4.0, 4),
    ])
    def test_wire_value_is_ceiled_with_a_floor_of_one(
        self, retry_after, wire
    ):
        decision = AdmissionDecision(
            admitted=False, status=429, reason="rate-limited",
            retry_after=retry_after,
        )
        assert decision.retry_after_seconds == wire

    def test_sub_second_bucket_wait_never_reaches_the_wire_as_zero(
        self, service_site, service_repository
    ):
        # Regression: a 10/s bucket reports a 0.1s wait; int() on that
        # produced "Retry-After: 0" — an instant-retry storm invitation
        # for clients that honour the header literally.
        registry = MetricsRegistry()
        clock = FakeClock()
        handler = _admission_handler(
            service_repository, registry, clock,
            rate_limit=10.0, rate_burst=1,
        )
        body = _line(
            service_site.pages_with_hint("imdb-movies")[0]
        ).encode("utf-8")

        async def scenario(front):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", front.port
            )
            writer.write(_post("/extract", body))
            await writer.drain()
            admitted = await _read_response(reader)
            writer.write(_post("/extract", body))
            await writer.drain()
            refused = await _read_response(reader)
            writer.close()
            return admitted, refused

        (admitted, refused), _ = _with_front_end(handler, scenario)
        assert admitted[0] == 200
        status, headers, payload = refused
        assert status == 429
        # The bucket's true wait is 0.1s; the header must round UP.
        assert headers["retry-after"] == "1"
        assert "retry after 1s" in json.loads(payload)["error"]


# --------------------------------------------------------------------- #
# The same matrix over HTTP
# --------------------------------------------------------------------- #


def _admission_handler(service_repository, registry, clock=None, **limits):
    """A handler whose admission controller runs on a fake clock."""
    handler = ServeHandler(
        service_repository, cluster="imdb-movies", metrics=registry,
    )
    if clock is not None:
        handler.admission = AdmissionController(
            metrics=registry, clock=clock, **limits,
        )
    return handler


class TestHttpAdmission:
    def test_429_keeps_the_connection_and_paces_the_client(
        self, service_site, service_repository
    ):
        registry = MetricsRegistry()
        clock = FakeClock()
        handler = _admission_handler(
            service_repository, registry, clock,
            rate_limit=1.0, rate_burst=1,
        )
        body = _line(
            service_site.pages_with_hint("imdb-movies")[0]
        ).encode("utf-8")

        async def scenario(front):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", front.port
            )
            writer.write(_post("/extract", body))
            await writer.drain()
            first = await _read_response(reader)
            writer.write(_post("/extract", body))
            await writer.drain()
            second = await _read_response(reader)
            # A paced client waits out Retry-After, then succeeds on
            # the very same keep-alive connection: the refusal consumed
            # the request body, so the framing survived.
            clock.advance(float(second[1]["retry-after"]))
            writer.write(_post("/extract", body))
            await writer.drain()
            third = await _read_response(reader)
            writer.close()
            return first, second, third

        (first, second, third), front = _with_front_end(handler, scenario)
        assert first[0] == 200
        status, headers, payload = second
        assert status == 429
        assert headers["retry-after"] == "1"
        error = json.loads(payload)
        assert "rate-limited" in error["error"]
        assert third[0] == 200
        assert third[2] == first[2]  # byte-identical to the admitted one
        assert front.stats.rate_limited == 1

    def test_saturation_sheds_503_until_a_slot_frees(
        self, service_site, service_repository
    ):
        registry = MetricsRegistry()
        clock = FakeClock()
        handler = _admission_handler(
            service_repository, registry, clock, max_concurrent=1,
        )
        handler.admission.admit(client="held")  # the only slot, occupied
        body = _line(
            service_site.pages_with_hint("imdb-movies")[0]
        ).encode("utf-8")

        async def scenario(front):
            shed = await _roundtrip(front.port, _post("/extract", body))
            handler.admission.release()
            admitted = await _roundtrip(front.port, _post("/extract", body))
            return shed, admitted

        (shed, admitted), front = _with_front_end(handler, scenario)
        status, headers, payload = shed
        assert status == 503
        assert headers["retry-after"] == "1"
        assert "saturated" in json.loads(payload)["error"]
        assert admitted[0] == 200
        assert front.stats.shed == 1

    def test_healthz_and_metrics_are_exempt(
        self, service_site, service_repository
    ):
        registry = MetricsRegistry()
        clock = FakeClock()
        handler = _admission_handler(
            service_repository, registry, clock,
            rate_limit=1.0, rate_burst=1, max_concurrent=1,
        )
        handler.admission.admit(client="held")  # saturate the server
        body = _line(
            service_site.pages_with_hint("imdb-movies")[0]
        ).encode("utf-8")

        async def scenario(front):
            refused = await _roundtrip(front.port, _post("/extract", body))
            health = await _roundtrip(front.port, _get("/healthz"))
            metrics = await _roundtrip(front.port, _get("/metrics"))
            return refused, health, metrics

        (refused, health, metrics), _ = _with_front_end(handler, scenario)
        assert refused[0] == 503
        assert health[0] == 200
        assert metrics[0] == 200
        parsed = parse_exposition(metrics[2].decode("utf-8"))
        assert parsed["repro_admission_rejected_total"][
            'repro_admission_rejected_total{reason="saturated"}'
        ] == 1.0

    def test_wall_clock_paced_client_is_admitted_after_waiting(
        self, service_site, service_repository
    ):
        # Real clock: the handler's own policy-built controller.  A
        # burst-1 bucket at 2 req/s refuses the immediate second
        # request; a client that backs off is admitted again.
        handler = ServeHandler(
            service_repository, cluster="imdb-movies",
            policy=ServePolicy(rate_limit=2.0, rate_burst=1),
            metrics=MetricsRegistry(),
        )
        body = _line(
            service_site.pages_with_hint("imdb-movies")[0]
        ).encode("utf-8")

        async def scenario(front):
            first = await _roundtrip(front.port, _post("/extract", body))
            second = await _roundtrip(front.port, _post("/extract", body))
            statuses = [first[0], second[0]]
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                await asyncio.sleep(0.5)  # pace at the bucket rate
                status, _, _ = await _roundtrip(
                    front.port, _post("/extract", body)
                )
                statuses.append(status)
                if status == 200:
                    break
            return statuses

        statuses, _ = _with_front_end(handler, scenario)
        assert statuses[0] == 200
        assert statuses[1] == 429
        assert statuses[-1] == 200

    def test_accepted_responses_are_byte_identical_under_shedding(
        self, service_site, service_repository
    ):
        pages = service_site.pages_with_hint("imdb-movies")[:4]
        baseline_handler = ServeHandler(
            service_repository, cluster="imdb-movies",
            metrics=MetricsRegistry(),
        )

        async def baseline(front):
            bodies = []
            for page in pages:
                status, _, payload = await _roundtrip(
                    front.port, _post("/extract", _line(page).encode())
                )
                assert status == 200
                bodies.append(payload)
            return bodies

        expected, _ = _with_front_end(baseline_handler, baseline)

        registry = MetricsRegistry()
        clock = FakeClock()
        handler = _admission_handler(
            service_repository, registry, clock,
            rate_limit=1.0, rate_burst=1,
        )

        async def shed_run(front):
            bodies, refusals = [], 0
            for page in pages:
                raw = _post("/extract", _line(page).encode())
                while True:
                    status, headers, payload = await _roundtrip(front.port, raw)
                    if status == 200:
                        bodies.append(payload)
                        break
                    assert status == 429
                    refusals += 1
                    clock.advance(float(headers["retry-after"]))
            return bodies, refusals

        (bodies, refusals), _ = _with_front_end(handler, shed_run)
        assert refusals >= len(pages) - 1  # the limiter actually bit
        assert bodies == expected  # shedding never corrupts a record


# --------------------------------------------------------------------- #
# Drain agreement: stats field == metrics counter == stderr line
# --------------------------------------------------------------------- #


@pytest.fixture()
def served_site(tmp_path):
    """An on-disk generated site plus an offline-built repository."""
    from repro.core.builder import MappingRuleBuilder
    from repro.core.oracle import ScriptedOracle
    from repro.core.repository import RuleRepository
    from repro.sites.imdb import generate_imdb_site

    site_dir = tmp_path / "site"
    assert main([
        "generate", "imdb", str(site_dir), "--pages", "12", "--seed", "3",
    ]) == 0
    site = generate_imdb_site(n_movies=12, n_actors=4, n_search=2, seed=3)
    repository = RuleRepository()
    MappingRuleBuilder(
        site.pages_with_hint("imdb-movies")[:6], ScriptedOracle(),
        repository=repository, cluster_name="imdb-movies", seed=1,
    ).build_all(["title", "rating"])
    repo_path = tmp_path / "rules.json"
    repository.save(repo_path)
    return site_dir, repo_path


class TestDrainAgreement:
    def test_drained_connection_counted_in_stats_and_metrics(
        self, service_site, service_repository
    ):
        registry = MetricsRegistry()
        handler = ServeHandler(
            service_repository, cluster="imdb-movies", metrics=registry,
        )
        body = _line(
            service_site.pages_with_hint("imdb-movies")[0]
        ).encode("utf-8")

        async def scenario(front):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", front.port
            )
            writer.write(_post("/extract", body))
            await writer.drain()
            status, _, _ = await _read_response(reader)
            assert status == 200
            # The keep-alive connection is still open when the drain
            # starts; the client closes once the drain has counted it.
            # The second shutdown() that _with_front_end makes is a no-op.
            await front.shutdown()
            writer.close()
            await writer.wait_closed()

        _, front = _with_front_end(handler, scenario)
        assert front.stats.drained_connections == 1
        parsed = parse_exposition(registry.render())
        assert parsed["repro_http_drained_connections_total"][
            "repro_http_drained_connections_total"
        ] == 1.0

    def test_cli_drain_line_agrees_with_the_metrics_dump(
        self, served_site, tmp_path, capsys, monkeypatch
    ):
        site_dir, repo_path = served_site
        dump = tmp_path / "serve.prom"
        counter = "repro_http_drained_connections_total"

        def _counter_value(text):
            series = parse_exposition(text).get(counter, {})
            return series.get(counter, 0.0)

        before = _counter_value(default_registry().render())
        started = []
        monkeypatch.setattr("repro.cli.SERVE_HTTP_STARTED", started.append)
        codes = []
        thread = threading.Thread(target=lambda: codes.append(main([
            "serve", "--repository", str(repo_path),
            "--cluster", "imdb-movies", "--http", "127.0.0.1:0",
            "--metrics", str(dump),
        ])))
        thread.start()
        sock = None
        try:
            deadline = time.time() + 10
            while not started and time.time() < deadline:
                time.sleep(0.01)
            assert started, "serve --http never came up"
            front = started[0]
            page = sorted(site_dir.glob("imdb-movies-*.html"))[0]
            body = json.dumps({
                "url": page.resolve().as_uri(),
                "html": page.read_text(encoding="utf-8"),
            }).encode("utf-8")
            sock = socket.create_connection(
                ("127.0.0.1", front.port), timeout=10
            )
            sock.sendall(
                b"POST /extract HTTP/1.1\r\nHost: t\r\n"
                b"Content-Length: %d\r\n\r\n" % len(body) + body
            )
            sock.settimeout(10)
            response = b""
            while b"\r\n\r\n" not in response:
                response += sock.recv(65536)
            # The connection stays open: shutdown's drain path must
            # hang it up, count it once, and report it identically in
            # the stderr line and the exposition dump.
            front.stop()
        finally:
            for front in started:
                front.stop()
            thread.join(timeout=10)
            if sock is not None:
                sock.close()
        assert not thread.is_alive()
        assert codes == [0]
        err = capsys.readouterr().err
        assert "drained 1 connection(s) at shutdown" in err
        assert _counter_value(dump.read_text(encoding="utf-8")) - before == 1.0

    def test_refusal_mid_drain_agrees_across_stats_and_metrics(
        self, service_site, service_repository
    ):
        # Shutdown racing an in-flight refusal: the server has already
        # *decided* to refuse (429 counted) and is still consuming the
        # refused request's body when the drain begins.  The session
        # stats, the admission counter and the drained counter must
        # still tell one coherent story — the refusal is counted once,
        # the connection is drained once, and the 429 that lands after
        # ``_closing`` is set hangs up (no keep-alive into a closing
        # server).
        registry = MetricsRegistry()
        clock = FakeClock()
        handler = _admission_handler(
            service_repository, registry, clock,
            rate_limit=1.0, rate_burst=1,
        )
        body = _line(service_site.pages_with_hint("imdb-movies")[0])
        body = body.encode("utf-8")

        async def scenario(front):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", front.port
            )
            # Request one drinks the only token...
            writer.write(_post("/extract", body))
            first = await _read_response(reader)
            # ...request two is refused at decision time, but its body
            # is withheld: the server is parked inside the refusal
            # path, reading the framed body it must consume before the
            # 429 can go out.
            writer.write(
                b"POST /extract HTTP/1.1\r\nHost: t\r\n"
                b"Content-Length: %d\r\n\r\n" % len(body) + body[:-10]
            )
            await writer.drain()
            # The refusal is counted before its first await, so the
            # stats surface is the signal that the refusal is now
            # in flight — no sleeps, no guessed timings.
            for _ in range(500):
                if front.stats.rate_limited:
                    break
                await asyncio.sleep(0.01)
            assert front.stats.rate_limited == 1
            shutdown = asyncio.create_task(front.shutdown())
            await asyncio.sleep(0.01)  # let the drain classify us busy
            writer.write(body[-10:])
            await writer.drain()
            refused = await _read_response(reader)
            stats = await shutdown
            assert await reader.read() == b""  # server hung up cleanly
            writer.close()
            return first, refused, stats

        (first, refused, stats), front = _with_front_end(handler, scenario)
        assert first[0] == 200
        status, headers, _ = refused
        assert status == 429
        assert headers["retry-after"] == "1"
        assert headers.get("connection") == "close"  # mid-drain hang-up
        parsed = parse_exposition(registry.render())
        rejected = parsed["repro_admission_rejected_total"][
            'repro_admission_rejected_total{reason="rate-limited"}'
        ]
        drained = parsed["repro_http_drained_connections_total"][
            "repro_http_drained_connections_total"
        ]
        # One story, three surfaces: the returned stats, the front-end's
        # own stats object, and the exposition.
        assert stats.rate_limited == front.stats.rate_limited == 1
        assert rejected == 1.0
        assert stats.shed == front.stats.shed == 0
        assert stats.drained_connections == 1
        assert drained == 1.0

    def test_cli_admission_line_agrees_with_the_metrics_dump(
        self, served_site, tmp_path, capsys, monkeypatch
    ):
        # The stderr "admission:" summary, the HttpStats it is printed
        # from, and the dumped exposition must report the same refusal
        # counts even when the refusal races the shutdown.
        site_dir, repo_path = served_site
        dump = tmp_path / "serve.prom"
        rejected_key = (
            'repro_admission_rejected_total{reason="rate-limited"}'
        )

        def _rejected(text):
            series = parse_exposition(text).get(
                "repro_admission_rejected_total", {}
            )
            return series.get(rejected_key, 0.0)

        before = _rejected(default_registry().render())
        started = []
        monkeypatch.setattr("repro.cli.SERVE_HTTP_STARTED", started.append)
        codes = []
        thread = threading.Thread(target=lambda: codes.append(main([
            "serve", "--repository", str(repo_path),
            "--cluster", "imdb-movies", "--http", "127.0.0.1:0",
            "--rate-limit", "0.1", "--metrics", str(dump),
        ])))
        thread.start()
        sock = None
        try:
            deadline = time.time() + 10
            while not started and time.time() < deadline:
                time.sleep(0.01)
            assert started, "serve --http never came up"
            front = started[0]
            page = sorted(site_dir.glob("imdb-movies-*.html"))[0]
            body = json.dumps({
                "url": page.resolve().as_uri(),
                "html": page.read_text(encoding="utf-8"),
            }).encode("utf-8")
            raw = (
                b"POST /extract HTTP/1.1\r\nHost: t\r\n"
                b"Content-Length: %d\r\n\r\n" % len(body) + body
            )
            sock = socket.create_connection(
                ("127.0.0.1", front.port), timeout=10
            )
            sock.settimeout(10)
            # Request one drains the 0.1/s bucket; request two is
            # refused on the same keep-alive connection, and the stop
            # lands while that refusal is still in the pipe — the
            # refusal is counted at decision time, so the stats field
            # turning 1 is the cue that the 429 is in flight.
            sock.sendall(raw + raw)
            stats_deadline = time.time() + 10
            while not front.stats.rate_limited and (
                time.time() < stats_deadline
            ):
                time.sleep(0.01)
            front.stop()
            response = b""
            try:
                while True:
                    chunk = sock.recv(65536)
                    if not chunk:
                        break
                    response += chunk
            except socket.timeout:
                pass
            assert b"429" in response
        finally:
            for front in started:
                front.stop()
            thread.join(timeout=10)
            if sock is not None:
                sock.close()
        assert not thread.is_alive()
        assert codes == [0]
        err = capsys.readouterr().err
        assert "admission: 1 rate-limited, 0 shed" in err
        assert started[0].stats.rate_limited == 1
        assert _rejected(dump.read_text(encoding="utf-8")) - before == 1.0
