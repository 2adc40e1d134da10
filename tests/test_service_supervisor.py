"""The ``serve --http --workers N`` supervisor, parent and children.

The unit half exercises the pure pieces (slice partitioning, restart
backoff, the slice checkpoint lifecycle).  The integration half runs
the real thing: a forked supervisor subprocess per scenario, driven
over plain sockets, because the properties under test — byte-identity
across worker fan-out, recovery from a SIGKILLed child, signal
semantics — only exist across process boundaries.
"""

import asyncio
import contextlib
import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.core.builder import MappingRuleBuilder
from repro.core.oracle import ScriptedOracle
from repro.core.repository import RuleRepository
from repro.service.http import INLINE_LINE_BYTES, HttpFrontEnd
from repro.service.serve import ServeHandler
from repro.service.supervisor import (
    RESTART_BACKOFF_CAP,
    ServeSupervisor,
    SliceCheckpoint,
    restart_backoff,
    slice_body,
)
from repro.sites import (
    generate_imdb_site,
    generate_news_site,
    generate_shop_site,
    generate_stocks_site,
)


# --------------------------------------------------------------------- #
# Unit: slice partitioning, backoff, checkpoint lifecycle
# --------------------------------------------------------------------- #


class TestSliceBody:
    def test_slices_partition_the_body_exactly(self):
        data = b"".join(b"line-%d\n" % i for i in range(10))
        slices = slice_body(data, 3)
        assert b"".join(s.payload for s in slices) == data
        assert [s.index for s in slices] == [0, 1, 2, 3]
        assert [s.lines for s in slices] == [3, 3, 3, 1]
        assert [s.start_line for s in slices] == [0, 3, 6, 9]
        # Every slice is line-aligned: payloads end on the newline.
        for s in slices[:-1]:
            assert s.payload.endswith(b"\n")

    def test_final_unterminated_line_rides_in_the_last_slice(self):
        data = b"a\nb\nno-newline-tail"
        slices = slice_body(data, 2)
        assert b"".join(s.payload for s in slices) == data
        assert slices[-1].payload == b"no-newline-tail"
        assert slices[-1].lines == 1

    def test_empty_body_yields_no_slices(self):
        assert slice_body(b"", 8) == []

    def test_slice_lines_must_be_positive(self):
        with pytest.raises(ValueError, match=">= 1"):
            slice_body(b"a\n", 0)

    def test_single_line_slices_preserve_order(self):
        data = b"x\ny\nz\n"
        slices = slice_body(data, 1)
        assert [s.payload for s in slices] == [b"x\n", b"y\n", b"z\n"]
        assert [s.start_line for s in slices] == [0, 1, 2]


class TestRestartBackoff:
    def test_doubles_from_base_and_caps(self):
        assert [restart_backoff(n) for n in range(1, 8)] == [
            pytest.approx(v)
            for v in (0.1, 0.2, 0.4, 0.8, 1.6, 3.2, 5.0)
        ]
        assert restart_backoff(50) == RESTART_BACKOFF_CAP

    def test_nonpositive_failures_get_the_base_delay(self):
        assert restart_backoff(0) == pytest.approx(0.1)
        assert restart_backoff(-3) == pytest.approx(0.1)


class TestSliceCheckpointLifecycle:
    def test_attempts_interrupt_and_complete(self):
        checkpoint = SliceCheckpoint(
            index=2, start_line=8, lines=4, payload=b"a\nb\nc\nd\n"
        )
        assert checkpoint.begin_attempt() == 1
        checkpoint.complete([b"ra\n", b"rb\n"])
        assert not checkpoint.interrupted
        assert checkpoint.records == [b"ra\n", b"rb\n"]
        # The worker dies mid-slice: partial output must vanish, the
        # recorded payload is everything a re-run needs.
        checkpoint.interrupt()
        assert checkpoint.interrupted
        assert checkpoint.records == []
        assert checkpoint.payload == b"a\nb\nc\nd\n"
        assert checkpoint.begin_attempt() == 2
        checkpoint.complete([b"ra\n", b"rb\n"])
        assert checkpoint.attempts == 2
        assert not checkpoint.interrupted


# --------------------------------------------------------------------- #
# Integration: the forked fleet, driven over sockets
# --------------------------------------------------------------------- #

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="supervisor needs os.fork"
)

#: The five generated site families, as (factory, cluster, components).
SITE_FAMILIES = [
    pytest.param(
        lambda: generate_imdb_site(n_movies=16, n_actors=0, n_search=0,
                                   seed=7),
        "imdb-movies", ["title", "rating", "genres"], id="imdb-movies",
    ),
    pytest.param(
        lambda: generate_imdb_site(n_movies=0, n_actors=14, n_search=0,
                                   seed=7),
        "imdb-actors", ["actor-name", "born"], id="imdb-actors",
    ),
    pytest.param(
        lambda: generate_shop_site(14, seed=4), "shop-products",
        ["product-name", "price", "old-price", "features"], id="shop",
    ),
    pytest.param(
        lambda: generate_news_site(14, seed=4), "news-articles",
        ["headline", "byline", "date"], id="news",
    ),
    pytest.param(
        lambda: generate_stocks_site(12, seed=4), "stock-quotes",
        ["company", "last-price", "change", "intraday-prices"], id="stocks",
    ),
]

_SERVING = re.compile(r"serving HTTP on 127\.0\.0\.1:(\d+)")
_STATUS = re.compile(r"supervisor status on 127\.0\.0\.1:(\d+)")


def _build_corpus(site_factory, cluster, components, tmp_path):
    """A saved rule repository plus the family's NDJSON batch body."""
    site = site_factory()
    pages = site.pages_with_hint(cluster)
    repository = RuleRepository()
    report = MappingRuleBuilder(
        pages[:8], ScriptedOracle(), repository=repository,
        cluster_name=cluster, seed=1,
    ).build_all(components)
    assert report.failed_components == []
    repo_path = tmp_path / "rules.json"
    repository.save(repo_path)
    body = "".join(
        json.dumps({"url": p.url, "html": p.html}) + "\n" for p in pages
    ).encode("utf-8")
    return repository, repo_path, body


class _Supervisor:
    """One ``serve --http --workers N`` subprocess under test."""

    def __init__(self, repo_path, cluster, *extra):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", env.get("PYTHONPATH", "")) if p
        )
        self.proc = subprocess.Popen(
            [sys.executable, "-c",
             "import sys; from repro.cli import main; "
             "sys.exit(main(sys.argv[1:]))",
             "serve", "--repository", str(repo_path),
             "--cluster", cluster, "--http", "127.0.0.1:0", *extra],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        self.stderr_lines = []
        self._pump = threading.Thread(target=self._drain, daemon=True)
        self._pump.start()

    def _drain(self):
        # The pump owns the stderr pipe and closes it at EOF; closing it
        # from another thread would block on the pump's pending read.
        with self.proc.stderr:
            for line in self.proc.stderr:
                self.stderr_lines.append(line.decode("utf-8", "replace"))

    def _await_line(self, pattern, timeout=60):
        deadline = time.time() + timeout
        while time.time() < deadline:
            for line in list(self.stderr_lines):
                match = pattern.search(line)
                if match:
                    return int(match.group(1))
            if self.proc.poll() is not None:
                break
            time.sleep(0.05)
        raise AssertionError(
            f"no {pattern.pattern!r} in stderr: {''.join(self.stderr_lines)}"
        )

    @property
    def port(self):
        return self._await_line(_SERVING)

    @property
    def status_port(self):
        return self._await_line(_STATUS)

    def terminate(self, timeout=30):
        """SIGTERM (graceful drain) and the exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        return self.proc.wait(timeout)

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(10)
        self._pump.join(2)
        self.proc.stdout.close()

    @property
    def stderr(self):
        return "".join(self.stderr_lines)


def _parse_http(data):
    """(status, headers, body) from one read-to-EOF HTTP response."""
    head, _, rest = data.partition(b"\r\n\r\n")
    status = int(head.split(b"\r\n")[0].split()[1])
    headers = {}
    for line in head.split(b"\r\n")[1:]:
        key, _, value = line.decode("latin-1").partition(":")
        headers[key.strip().lower()] = value.strip()
    if headers.get("transfer-encoding") == "chunked":
        body = b""
        while rest:
            size_line, _, rest = rest.partition(b"\r\n")
            size = int(size_line.split(b";")[0], 16)
            if size == 0:
                break
            body += rest[:size]
            rest = rest[size + 2:]
        return status, headers, body
    length = headers.get("content-length")
    if length is not None:
        return status, headers, rest[:int(length)]
    return status, headers, rest


def _request(port, raw, timeout=120):
    """One blocking round trip, read to EOF (Connection: close)."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as s:
        s.sendall(raw)
        s.settimeout(timeout)
        data = b""
        while True:
            chunk = s.recv(65536)
            if not chunk:
                break
            data += chunk
    return _parse_http(data)


def _batch_request(body):
    return (
        b"POST /batch HTTP/1.1\r\nHost: t\r\n"
        b"Content-Length: %d\r\nConnection: close\r\n\r\n" % len(body)
        + body
    )


_GET_HEALTHZ = b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"


def _single_process_batch(repository, cluster, body):
    """The reference output: the same batch through one front-end."""

    async def _run():
        handler = ServeHandler(repository, cluster=cluster)
        front = HttpFrontEnd(handler, "127.0.0.1", 0)
        await front.start()
        try:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", front.port
            )
            writer.write(_batch_request(body))
            await writer.drain()
            data = await reader.read(-1)
            writer.close()
        finally:
            await front.shutdown()
        return _parse_http(data)

    status, _, payload = asyncio.run(_run())
    assert status == 200
    return payload


class TestGatewayByteIdentity:
    @pytest.mark.parametrize("site_factory, cluster, components",
                             SITE_FAMILIES)
    def test_fanned_out_batch_matches_single_process(
        self, site_factory, cluster, components, tmp_path
    ):
        repository, repo_path, body = _build_corpus(
            site_factory, cluster, components, tmp_path
        )
        expected = _single_process_batch(repository, cluster, body)
        supervisor = _Supervisor(
            repo_path, cluster,
            "--workers", "2", "--gateway", "--gateway-slice", "3",
        )
        try:
            status, headers, payload = _request(
                supervisor.port, _batch_request(body)
            )
            assert status == 200
            assert payload == expected  # byte-identical, order included
            assert supervisor.terminate() == 0
        finally:
            supervisor.kill()
        assert "2 worker(s) (gateway)" in supervisor.stderr
        assert "workers: 2 worker(s), 0 restart(s)" in supervisor.stderr


class TestGatewayChildDeath:
    def test_killed_child_mid_batch_is_rerun_byte_identically(
        self, tmp_path
    ):
        factory, cluster, components = (
            lambda: generate_imdb_site(n_movies=16, n_actors=0,
                                       n_search=0, seed=7),
            "imdb-movies", ["title", "rating", "genres"],
        )
        repository, repo_path, body = _build_corpus(
            factory, cluster, components, tmp_path
        )
        body = body * 5  # long enough that the kill lands mid-stream
        expected = _single_process_batch(repository, cluster, body)
        supervisor = _Supervisor(
            repo_path, cluster,
            "--workers", "2", "--gateway", "--gateway-slice", "2",
        )
        try:
            port = supervisor.port
            status, _, healthz = _request(port, _GET_HEALTHZ)
            assert status == 200
            detail = json.loads(healthz)["workers_detail"]
            victim = min(worker["pid"] for worker in detail.values())

            with socket.create_connection(
                ("127.0.0.1", port), timeout=120
            ) as s:
                s.sendall(_batch_request(body))
                s.settimeout(120)
                data = s.recv(65536)  # the merge is streaming...
                os.kill(victim, signal.SIGKILL)  # ...kill under load
                while True:
                    chunk = s.recv(65536)
                    if not chunk:
                        break
                    data += chunk
            status, _, payload = _parse_http(data)
            assert status == 200
            assert payload == expected  # re-run slices, same bytes

            # The fleet healed: a replacement child is serving.
            deadline = time.time() + 30
            while time.time() < deadline:
                status, _, healthz = _request(port, _GET_HEALTHZ)
                report = json.loads(healthz)
                if report["workers_active"] == 2:
                    break
                time.sleep(0.2)
            assert report["workers_active"] == 2
            assert report["restarts"] >= 1
            assert supervisor.terminate() == 0
        finally:
            supervisor.kill()
        assert re.search(r"workers: 2 worker\(s\), [1-9]\d* restart\(s\)",
                         supervisor.stderr)


class TestReuseportFleet:
    def test_shared_port_fleet_with_status_endpoints(self, tmp_path):
        factory, cluster, components = (
            lambda: generate_imdb_site(n_movies=12, n_actors=0,
                                       n_search=0, seed=7),
            "imdb-movies", ["title", "rating", "genres"],
        )
        _, repo_path, body = _build_corpus(
            factory, cluster, components, tmp_path
        )
        line = body.split(b"\n", 1)[0] + b"\n"
        supervisor = _Supervisor(repo_path, cluster, "--workers", "2")
        try:
            port = supervisor.port
            status_port = supervisor.status_port
            assert status_port != port
            # Extraction flows through the shared public port...
            status, _, payload = _request(port, (
                b"POST /extract HTTP/1.1\r\nHost: t\r\n"
                b"Content-Length: %d\r\nConnection: close\r\n\r\n"
                % len(line) + line
            ))
            assert status == 200
            record = json.loads(payload)
            assert record["values"].get("title")
            # ...while the status port aggregates the fleet.
            status, _, healthz = _request(status_port, _GET_HEALTHZ)
            assert status == 200
            report = json.loads(healthz)
            assert report["status"] == "ok"
            assert report["workers_active"] == 2
            assert len(report["workers_detail"]) == 2
            status, _, metrics = _request(status_port, (
                b"GET /metrics HTTP/1.1\r\nHost: t\r\n"
                b"Connection: close\r\n\r\n"
            ))
            assert status == 200
            assert b"repro_serve_workers_active 2" in metrics
            assert b"repro_worker_requests_total" in metrics
            # The status port is status-only: no extraction ingress.
            status, _, _ = _request(
                status_port, _batch_request(b"")
            )
            assert status == 404
            assert supervisor.terminate() == 0
        finally:
            supervisor.kill()
        assert "2 worker(s) (reuseport)" in supervisor.stderr
        assert "workers: 2 worker(s), 0 restart(s)" in supervisor.stderr


class TestCliValidation:
    def test_workers_require_http(self, capsys):
        from repro.cli import main
        assert main([
            "serve", "--repository", "missing.json",
            "--cluster", "c", "--workers", "2",
        ]) == 2
        assert "--workers/--gateway need --http" in capsys.readouterr().err

    def test_workers_must_be_positive(self, capsys):
        from repro.cli import main
        assert main([
            "serve", "--repository", "missing.json", "--cluster", "c",
            "--http", "127.0.0.1:0", "--workers", "0",
        ]) == 2
        assert "--workers must be >= 1" in capsys.readouterr().err

    def test_gateway_slice_must_be_positive(self, capsys):
        from repro.cli import main
        assert main([
            "serve", "--repository", "missing.json", "--cluster", "c",
            "--http", "127.0.0.1:0", "--gateway", "--gateway-slice", "0",
        ]) == 2
        assert "--gateway-slice must be >= 1" in capsys.readouterr().err

    def test_gateway_and_adapt_are_mutually_exclusive(self, capsys):
        from repro.cli import main
        assert main([
            "serve", "--repository", "missing.json", "--cluster", "c",
            "--http", "127.0.0.1:0", "--gateway", "--adapt",
        ]) == 2
        assert "mutually exclusive" in capsys.readouterr().err


class TestSupervisorInProcess:
    """The supervisor's parent paths, driven inside this interpreter.

    The subprocess classes above prove the CLI end to end; these fork
    the same fleet from pytest's own process so the parent-side code
    (bind, spawn, watch, reap, aggregate, gateway fan-out, drain) runs
    where the coverage tracer can see it.  Children still ``os._exit``
    without touching pytest state.
    """

    @staticmethod
    def _ndjson(service_site, count):
        movies = service_site.pages_with_hint("imdb-movies")[:count]
        return "".join(
            json.dumps({"url": p.url, "html": p.html}) + "\n"
            for p in movies
        ).encode("utf-8")

    @staticmethod
    async def _fetch(port, raw):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(raw)
        await writer.drain()
        data = await reader.read(-1)
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass
        return _parse_http(data)

    @staticmethod
    def _get(path):
        return (
            f"GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
        ).encode("latin-1")

    def test_constructor_rejects_bad_arguments(self, service_repository):
        handler = ServeHandler(service_repository, cluster="imdb-movies")
        with pytest.raises(ValueError):
            ServeSupervisor(handler, workers=0)
        with pytest.raises(ValueError):
            ServeSupervisor(handler, workers=1, slice_lines=0)

    def test_gateway_parent_surface(
        self, service_site, service_repository
    ):
        body = self._ndjson(service_site, 10)
        expected = _single_process_batch(
            service_repository, "imdb-movies", body
        )

        async def run():
            handler = ServeHandler(
                service_repository, cluster="imdb-movies"
            )
            sup = ServeSupervisor(
                handler, workers=2, gateway=True, slice_lines=3
            )
            await sup.start()
            try:
                assert sup.mode == "gateway"
                assert sup.status_port == sup.port
                status, _, payload = await self._fetch(
                    sup.port, _batch_request(body)
                )
                assert status == 200
                assert payload == expected  # byte-identical fan-out
                line = body.split(b"\n", 1)[0]
                raw = (
                    b"POST /extract HTTP/1.1\r\nHost: t\r\n"
                    b"Content-Length: %d\r\nConnection: close\r\n\r\n"
                    % len(line)
                ) + line
                status, _, one = await self._fetch(sup.port, raw)
                assert status == 200
                assert json.loads(one)["values"]["title"]
                status, _, health_body = await self._fetch(
                    sup.port, self._get("/healthz")
                )
                assert status == 200
                health = json.loads(health_body)
                assert health["status"] == "ok"
                assert health["gateway"] is True
                assert health["workers_active"] == 2
                assert len(health["workers_detail"]) == 2
                assert health["served"] >= 11  # batch pages + 1 extract
                status, _, metrics_body = await self._fetch(
                    sup.port, self._get("/metrics")
                )
                assert status == 200
                text = metrics_body.decode("utf-8")
                assert "repro_serve_workers_active 2" in text
                assert 'repro_gateway_slices_total{outcome="ok"}' in text
                assert 'repro_worker_requests_total{worker="0"}' in text
                status, _, _ = await self._fetch(
                    sup.port, self._get("/nope")
                )
                assert status == 404
                status, _, _ = await self._fetch(
                    sup.port, self._get("/batch")
                )
                assert status == 405
                sup.stop()
                await asyncio.wait_for(sup.wait_stopped(), 30)
            finally:
                stats = await sup.shutdown()
            assert (await sup.shutdown()) is stats  # idempotent
            return stats

        stats = asyncio.run(run())
        assert stats.workers == 2
        assert stats.gateway_slices >= 4  # 10 lines in slices of 3
        assert stats.gateway_retries == 0
        assert stats.served >= 11

    def test_child_death_restart_and_slice_retry(
        self, service_site, service_repository
    ):
        body = self._ndjson(service_site, 12) * 6
        expected = _single_process_batch(
            service_repository, "imdb-movies", body
        )

        async def run():
            handler = ServeHandler(
                service_repository, cluster="imdb-movies"
            )
            sup = ServeSupervisor(
                handler, workers=2, gateway=True, slice_lines=2
            )
            await sup.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", sup.port
                )
                writer.write(_batch_request(body))
                await writer.drain()
                first = await reader.read(2048)
                assert first.startswith(b"HTTP/1.1 200")
                victim = min(
                    c.pid for c in sup._children.values() if c.alive
                )
                os.kill(victim, signal.SIGKILL)
                rest = await reader.read(-1)
                writer.close()
                status, _, payload = _parse_http(first + rest)
                assert status == 200
                assert payload == expected  # retry re-ran, no dup bytes
                assert sup.stats.gateway_retries >= 1
                loop = asyncio.get_running_loop()
                deadline = loop.time() + 20
                while loop.time() < deadline:
                    if (
                        sup.stats.restarts >= 1
                        and len(sup._ready_children()) == 2
                    ):
                        break
                    await asyncio.sleep(0.05)
                assert sup.stats.restarts >= 1
                assert len(sup._ready_children()) == 2
                sup.stop()
                await asyncio.wait_for(sup.wait_stopped(), 30)
            finally:
                await sup.shutdown()

        asyncio.run(run())

    def test_a_restarted_child_keeps_no_socket_of_the_parent(
        self, service_repository
    ):
        # A restart forks while the parent has connections open at any
        # stage: accepted but not yet served, closed but not yet
        # released, or opened by anything else in the process.  The
        # child must drop its copy of every one, or the peer of a
        # connection the parent closes never sees the end of it.
        async def run():
            handler = ServeHandler(service_repository, cluster="imdb-movies")
            sup = ServeSupervisor(handler, workers=1, gateway=True)
            await sup.start()
            listener = socket.create_server(("127.0.0.1", 0))
            peer = socket.create_connection(listener.getsockname())
            ours, _ = listener.accept()
            try:
                (victim,) = [c.pid for c in sup._children.values()]
                os.kill(victim, signal.SIGKILL)
                loop = asyncio.get_running_loop()
                deadline = loop.time() + 20
                while loop.time() < deadline and not (
                    sup.stats.restarts >= 1 and sup._ready_children()
                ):
                    await asyncio.sleep(0.05)
                assert sup._ready_children()
                ours.close()
                peer.settimeout(10)
                assert peer.recv(1) == b""  # the parent's close ended it
                sup.stop()
                await asyncio.wait_for(sup.wait_stopped(), 30)
            finally:
                for sock in (ours, peer, listener):
                    sock.close()
                await sup.shutdown()

        asyncio.run(run())

    def test_gateway_admission_refuses_at_the_parent(
        self, service_site, service_repository
    ):
        from repro.service.serve import ServePolicy

        body = self._ndjson(service_site, 4)

        async def run():
            handler = ServeHandler(
                service_repository, cluster="imdb-movies",
                policy=ServePolicy(rate_limit=0.001, rate_burst=1),
            )
            sup = ServeSupervisor(
                handler, workers=1, gateway=True, slice_lines=2
            )
            await sup.start()
            try:
                status, _, _ = await self._fetch(
                    sup.port, _batch_request(body)
                )
                assert status == 200  # burst token admits the first
                status, headers, _ = await self._fetch(
                    sup.port, _batch_request(body)
                )
                assert status == 429
                assert int(headers["retry-after"]) >= 1  # never 0
                assert sup.stats.rate_limited == 1
                sup.stop()
                await asyncio.wait_for(sup.wait_stopped(), 30)
            finally:
                await sup.shutdown()

        asyncio.run(run())

    def test_gateway_refusals_read_whole(self, service_repository):
        async def refused(port, raw):
            # The whole request goes out before the answer is read, as
            # a client streaming a large body does; the server must
            # read what it will not use, or its close resets the
            # connection under the response.
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port
            )
            writer.write(raw)
            await writer.drain()
            writer.write_eof()
            data = await asyncio.wait_for(reader.read(-1), 30)
            writer.close()
            return _parse_http(data)

        async def run():
            handler = ServeHandler(
                service_repository, cluster="imdb-movies"
            )
            sup = ServeSupervisor(handler, workers=1, gateway=True)
            await sup.start()
            try:
                big = b"x" * 400_000
                status, headers, body = await refused(sup.port, (
                    b"POST /nope HTTP/1.1\r\nHost: t\r\n"
                    b"Content-Length: %d\r\n\r\n" % len(big)
                ) + big)
                assert status == 404
                assert "/nope" in json.loads(body)["error"]
                status, headers, body = await refused(sup.port, (
                    b"GET /batch HTTP/1.1\r\nHost: t\r\n"
                    b"Content-Length: 5\r\n\r\nhello"
                ))
                assert status == 405
                assert headers["allow"] == "POST"
                assert "error" in json.loads(body)
                assert sup.stats.protocol_errors == 2
            finally:
                await sup.shutdown()

        asyncio.run(run())

    def test_the_gateway_port_never_starts_an_extraction_thread(
        self, service_site, service_repository
    ):
        # Restarts fork from the supervisor: its own port must forward
        # even a long line without creating HttpFrontEnd's extraction
        # thread (the children answer it on theirs).
        page = service_site.pages_with_hint("imdb-movies")[0]
        long_line = json.dumps({
            "url": page.url,
            "html": page.html + "<!-- " + "x" * INLINE_LINE_BYTES + " -->",
        }).encode("utf-8")
        body = self._ndjson(service_site, 2) + long_line + b"\n"
        expected = _single_process_batch(
            service_repository, "imdb-movies", body
        )

        async def run():
            handler = ServeHandler(
                service_repository, cluster="imdb-movies"
            )
            sup = ServeSupervisor(handler, workers=1, gateway=True)
            await sup.start()
            try:
                status, _, payload = await self._fetch(
                    sup.port, _batch_request(body)
                )
                assert status == 200
                assert payload == expected
                status, _, one = await self._fetch(sup.port, (
                    b"POST /extract HTTP/1.1\r\nHost: t\r\n"
                    b"Content-Length: %d\r\nConnection: close\r\n\r\n"
                    % len(long_line)
                ) + long_line)
                assert status == 200
                assert one == expected.splitlines(keepends=True)[-1]
                assert sup._front._extractor is None
                assert not [
                    thread for thread in threading.enumerate()
                    if thread.name.startswith("http-extract")
                ]
            finally:
                await sup.shutdown()

        asyncio.run(run())

    def test_stop_mid_batch_returns_every_record(
        self, service_site, service_repository
    ):
        body = self._ndjson(service_site, 12) * 6  # 72 lines
        expected = _single_process_batch(
            service_repository, "imdb-movies", body
        )

        async def run():
            handler = ServeHandler(
                service_repository, cluster="imdb-movies"
            )
            sup = ServeSupervisor(
                handler, workers=2, gateway=True, slice_lines=2
            )
            await sup.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", sup.port
                )
                writer.write(_batch_request(body))
                await writer.drain()
                first = await reader.read(2048)
                assert first.startswith(b"HTTP/1.1 200")
                sup.stop()  # SIGTERM while the merge is streaming
                rest = await asyncio.wait_for(reader.read(-1), 60)
                writer.close()
                await asyncio.wait_for(sup.wait_stopped(), 60)
                assert not any(c.alive for c in sup._children.values())
            finally:
                await sup.shutdown()
            return first + rest

        data = asyncio.run(run())
        assert data.endswith(b"0\r\n\r\n")
        status, _, payload = _parse_http(data)
        assert status == 200
        assert payload == expected  # every record, none cut off

    def test_gateway_counts_the_public_port(
        self, service_site, service_repository
    ):
        body = self._ndjson(service_site, 10)

        async def run():
            handler = ServeHandler(
                service_repository, cluster="imdb-movies"
            )
            sup = ServeSupervisor(
                handler, workers=2, gateway=True, slice_lines=3
            )
            await sup.start()
            try:
                status, _, _ = await self._fetch(
                    sup.port, _batch_request(body)
                )
                assert status == 200
                status, _, _ = await self._fetch(
                    sup.port, self._get("/nope")
                )
                assert status == 404
                status, _, health_body = await self._fetch(
                    sup.port, self._get("/healthz")
                )
                health = json.loads(health_body)
                # The client's three requests, not the four slices and
                # the two gathers the parent sent its workers.
                assert (health["requests"], health["connections"]) == (3, 3)
                assert health["protocol_errors"] == 1
                assert health["pages"] == health["served"] == 10
                assert (sup.stats.requests, sup.stats.connections) == (3, 3)
                status, _, metrics_body = await self._fetch(
                    sup.port, self._get("/metrics")
                )
                text = metrics_body.decode("utf-8")
                assert (
                    'repro_http_requests_total{endpoint="/batch",'
                    'status="200"} 1\n' in text
                )
                assert (
                    'repro_http_requests_total{endpoint="other",'
                    'status="404"} 1\n' in text
                )
            finally:
                stats = await sup.shutdown()
            return stats

        stats = asyncio.run(run())
        assert (stats.requests, stats.connections) == (4, 4)
        assert stats.served == 10

    def test_reuseport_fleet_in_process(
        self, service_site, service_repository
    ):
        line = self._ndjson(service_site, 1)[:-1]

        async def run():
            handler = ServeHandler(
                service_repository, cluster="imdb-movies"
            )
            sup = ServeSupervisor(handler, workers=2)
            await sup.start()
            try:
                assert sup.mode == "reuseport"
                assert sup.status_port != sup.port
                raw = (
                    b"POST /extract HTTP/1.1\r\nHost: t\r\n"
                    b"Content-Length: %d\r\nConnection: close\r\n\r\n"
                    % len(line)
                ) + line
                status, _, one = await self._fetch(sup.port, raw)
                assert status == 200
                assert json.loads(one)["values"]["title"]
                status, _, health_body = await self._fetch(
                    sup.status_port, self._get("/healthz")
                )
                assert status == 200
                health = json.loads(health_body)
                assert health["workers_active"] == 2
                assert health["mode"] == sup.mode
                # The status port's own traffic stays out of the counts.
                assert health["requests"] == sum(
                    w["requests"] for w in health["workers_detail"].values()
                )
                status, _, metrics_body = await self._fetch(
                    sup.status_port, self._get("/metrics")
                )
                assert status == 200
                assert (
                    "repro_serve_workers_active 2"
                    in metrics_body.decode("utf-8")
                )
                status, _, _ = await self._fetch(
                    sup.status_port,
                    _batch_request(line + b"\n"),
                )
                assert status == 404  # the status port is not a gateway
                sup.interrupt()  # first SIGINT: graceful drain
                await asyncio.wait_for(sup.wait_stopped(), 30)
            finally:
                await sup.shutdown()

        asyncio.run(run())

    def test_second_interrupt_aborts(
        self, service_repository
    ):
        async def run():
            handler = ServeHandler(
                service_repository, cluster="imdb-movies"
            )
            sup = ServeSupervisor(handler, workers=2, gateway=True)
            await sup.start()
            try:
                sup.interrupt()
                sup.interrupt()  # second SIGINT: SIGKILL the fleet
                await asyncio.wait_for(sup.wait_stopped(), 15)
            finally:
                stats = await sup.shutdown()
            assert not sup.failed
            return stats

        stats = asyncio.run(run())
        assert stats.workers == 2

    def test_crash_looping_fleet_gives_up(
        self, service_repository, monkeypatch
    ):
        monkeypatch.setattr(
            "repro.service.supervisor.MAX_CONSECUTIVE_FAILURES", 0
        )

        async def run():
            handler = ServeHandler(
                service_repository, cluster="imdb-movies"
            )
            sup = ServeSupervisor(handler, workers=2, gateway=True)
            await sup.start()
            try:
                for child in list(sup._children.values()):
                    os.kill(child.pid, signal.SIGKILL)
                await asyncio.wait_for(sup.wait_stopped(), 15)
                assert sup.failed
                assert all(
                    c.given_up for c in sup._children.values()
                )
            finally:
                await sup.shutdown()
            return sup.failed

        assert asyncio.run(run())


class TestCliMultiworkerInProcess:
    """``serve --http --workers`` driven through ``main()`` in a thread."""

    @staticmethod
    @contextlib.contextmanager
    def _fleet(argv, monkeypatch):
        """Run ``main(argv)`` on a thread and yield the ready supervisor;
        on exit stop it and check that the command exited 0."""
        from repro import cli

        started = []
        monkeypatch.setattr(cli, "SERVE_HTTP_STARTED", started.append)
        outcome = {}
        thread = threading.Thread(
            target=lambda: outcome.update(rc=cli.main(argv))
        )
        thread.start()
        try:
            deadline = time.time() + 60
            while not started and time.time() < deadline:
                time.sleep(0.05)
            assert started, "supervisor never became ready"
            yield started[0]
            started[0].stop()
            thread.join(60)
            assert not thread.is_alive()
        finally:
            if thread.is_alive():  # pragma: no cover - cleanup path
                started and started[0].interrupt()
                thread.join(10)
        assert outcome["rc"] == 0

    def test_gateway_cli_end_to_end(self, tmp_path, monkeypatch, capsys):
        repository, repo_path, body = _build_corpus(
            lambda: generate_imdb_site(n_movies=16, n_actors=0,
                                       n_search=0, seed=7),
            "imdb-movies", ["title", "rating", "genres"], tmp_path,
        )
        expected = _single_process_batch(repository, "imdb-movies", body)
        with self._fleet([
            "serve", "--repository", str(repo_path),
            "--cluster", "imdb-movies", "--http", "127.0.0.1:0",
            "--workers", "2", "--gateway", "--gateway-slice", "3",
        ], monkeypatch) as supervisor:
            status, _, payload = _request(
                supervisor.port, _batch_request(body)
            )
            assert status == 200
            assert payload == expected
        err = capsys.readouterr().err
        assert "2 worker(s) (gateway)" in err
        assert "workers: 2 worker(s), 0 restart(s)" in err
        assert re.search(r"gateway: [1-9]\d* slice\(s\), 0 retried", err)

    def test_status_port_reaches_a_shared_port_fleet(
        self, tmp_path, monkeypatch, capsys
    ):
        _, repo_path, _ = _build_corpus(
            lambda: generate_imdb_site(n_movies=8, n_actors=0,
                                       n_search=0, seed=7),
            "imdb-movies", ["title"], tmp_path,
        )
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            status_port = probe.getsockname()[1]
        with self._fleet([
            "serve", "--repository", str(repo_path),
            "--cluster", "imdb-movies", "--http", "127.0.0.1:0",
            "--workers", "2", "--status-port", str(status_port),
        ], monkeypatch) as supervisor:
            assert supervisor.status_port == status_port
            status, _, payload = _request(status_port, _GET_HEALTHZ)
            assert status == 200
            assert json.loads(payload)["workers"] == 2
        err = capsys.readouterr().err
        assert f"supervisor status on 127.0.0.1:{status_port}" in err
        assert "2 worker(s) (reuseport)" in err
