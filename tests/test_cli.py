"""Tests for the retrozilla CLI (driven through main(argv))."""

import contextlib
import io
import json
import threading
import time

import pytest

from repro.cli import main


def test_demo_prints_paper_tables(capsys):
    assert main(["demo"]) == 0
    out = capsys.readouterr().out
    assert "Table 1" in out
    assert "The Wing and the Thigh (International: English title)" in out
    assert "Table 3" in out
    assert "<runtime>108 min</runtime>" in out


def test_generate_writes_files(tmp_path, capsys):
    target = tmp_path / "site"
    assert main(["generate", "shop", str(target), "--pages", "4"]) == 0
    files = list(target.glob("*.html"))
    assert len(files) == 4


def test_generate_imdb_multi_cluster(tmp_path):
    target = tmp_path / "site"
    assert main(["generate", "imdb", str(target), "--pages", "6"]) == 0
    hints = {f.name.rsplit("-", 1)[0] for f in target.glob("*.html")}
    assert "imdb-movies" in hints


def test_cluster_groups_by_signature(tmp_path, capsys):
    target = tmp_path / "site"
    main(["generate", "imdb", str(target), "--pages", "6"])
    assert main(["cluster", str(target)]) == 0
    out = capsys.readouterr().out
    assert "page(s)" in out


def test_cluster_empty_directory_errors(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["cluster", str(empty)]) == 2


def test_extract_with_saved_repository(tmp_path, capsys, monkeypatch):
    # Build a repository programmatically, then run the extract command.
    from repro.core.builder import MappingRuleBuilder
    from repro.core.oracle import ScriptedOracle
    from repro.core.repository import RuleRepository
    from repro.sites.imdb import make_paper_sample

    site_dir = tmp_path / "pages"
    site_dir.mkdir()
    sample = make_paper_sample()
    for index, page in enumerate(sample):
        (site_dir / f"page-{index}.html").write_text(page.html, encoding="utf-8")

    repository = RuleRepository()
    builder = MappingRuleBuilder(
        sample, ScriptedOracle(), repository=repository,
        cluster_name="imdb-movies", seed=1,
    )
    builder.build_all(["runtime"])
    repo_path = tmp_path / "rules.json"
    repository.save(repo_path)

    xml_path = tmp_path / "out.xml"
    xsd_path = tmp_path / "out.xsd"
    assert main([
        "extract", str(site_dir),
        "--cluster", "imdb-movies",
        "--repository", str(repo_path),
        "--output", str(xml_path),
        "--schema", str(xsd_path),
    ]) == 0
    xml = xml_path.read_text(encoding="utf-8")
    assert xml.count("<runtime>") == 4
    assert "xs:schema" in xsd_path.read_text(encoding="utf-8")


def test_build_interactive(tmp_path, capsys, monkeypatch):
    from repro.sites.imdb import make_paper_sample

    site_dir = tmp_path / "pages"
    site_dir.mkdir()
    for index, page in enumerate(make_paper_sample()):
        (site_dir / f"p{index}.html").write_text(page.html, encoding="utf-8")

    # Interactive answering is covered by the oracle unit tests; here the
    # CLI wiring is under test, so substitute a deterministic oracle that
    # "knows" the paper sample's titles (CLI-loaded pages carry no ground
    # truth, so we look values up by file order).
    from repro.core.oracle import Oracle, Selection
    from repro.dom.traversal import find_text_node

    titles = {
        f"p{i}.html": title
        for i, title in enumerate(
            ["The Last Harbor", "Midnight Empire", "L'aile ou la cuisse",
             "The Paper Kingdom"]
        )
    }

    class FileTitleOracle(Oracle):
        def select_value(self, page, component_name):
            wanted = titles[page.url.rsplit("/", 1)[-1]]
            body = page.root_element.find_first("BODY")
            node = find_text_node(body, wanted)
            return Selection(page=page, nodes=(node,)) if node else None

        def expected_texts(self, page, component_name):
            return [titles[page.url.rsplit("/", 1)[-1]]]

    # ``cmd_build`` imports its oracle when it runs, so the seam is the
    # defining module's name.
    monkeypatch.setattr("repro.core.oracle.InteractiveOracle", FileTitleOracle)
    repo_path = tmp_path / "rules.json"
    code = main([
        "build", str(site_dir), "title",
        "--cluster", "movies",
        "--repository", str(repo_path),
        "--sample-size", "4",
    ])
    assert code == 0
    data = json.loads(repo_path.read_text(encoding="utf-8"))
    assert data["clusters"]["movies"]["rules"][0]["name"] == "title"


# --------------------------------------------------------------------- #
# The service subcommands: batch + serve
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
        "generate", "imdb", str(site_dir), "--pages", "18", "--seed", "3",
    ]) == 0
    # Rules must be built from ground-truth pages (the offline phase);
    # the saved repository then serves the on-disk copies.
    site = generate_imdb_site(n_movies=18, n_actors=6, n_search=3, seed=3)
    repository = RuleRepository()
    oracle = ScriptedOracle()
    MappingRuleBuilder(
        site.pages_with_hint("imdb-movies")[:8], oracle,
        repository=repository, cluster_name="imdb-movies", seed=1,
    ).build_all(["title", "rating"])
    repo_path = tmp_path / "rules.json"
    repository.save(repo_path)
    return site_dir, repo_path


def test_load_pages_restores_filename_hints(served_site):
    from pathlib import Path

    from repro.cli import _load_pages

    site_dir, _ = served_site
    pages = _load_pages(Path(site_dir))
    hints = {page.cluster_hint for page in pages}
    assert "imdb-movies" in hints


def test_filename_hint_handles_large_indices(tmp_path):
    # {index:04d} grows to 5+ digits past 9999; hints must survive.
    from repro.cli import _filename_hint

    assert _filename_hint(tmp_path / "imdb-movies-0001.html") == "imdb-movies"
    assert _filename_hint(tmp_path / "imdb-movies-10000.html") == "imdb-movies"
    assert _filename_hint(tmp_path / "imdb-movies-1234567.html") == "imdb-movies"
    assert _filename_hint(tmp_path / "somepage.html") == ""
    assert _filename_hint(tmp_path / "page-12.html") == ""


def test_batch_jsonl(served_site, tmp_path, capsys):
    site_dir, repo_path = served_site
    out = tmp_path / "records.jsonl"
    assert main([
        "batch", str(site_dir),
        "--repository", str(repo_path),
        "--jsonl", str(out),
        "--workers", "2",
    ]) == 0
    records = [json.loads(line) for line in
               out.read_text(encoding="utf-8").splitlines()]
    movies = [r for r in records if r["cluster"] == "imdb-movies"]
    assert len(movies) == 18
    assert all(r["values"]["title"] for r in movies)
    err = capsys.readouterr().err
    assert "pages served" in err


def test_batch_xml_dir(served_site, tmp_path):
    site_dir, repo_path = served_site
    xml_dir = tmp_path / "xml"
    assert main([
        "batch", str(site_dir),
        "--repository", str(repo_path), "--workers", "1",
        "--xml-dir", str(xml_dir),
    ]) == 0
    xml = (xml_dir / "imdb-movies.xml").read_text(encoding="utf-8")
    assert xml.count("<imdb-movie ") == 18
    assert xml.rstrip().endswith("</imdb-movies>")


def test_batch_hint_routing(served_site, tmp_path, capsys):
    site_dir, repo_path = served_site
    out = tmp_path / "records.jsonl"
    assert main([
        "batch", str(site_dir),
        "--repository", str(repo_path), "--workers", "1",
        "--jsonl", str(out),
        "--route", "hint",
    ]) == 0
    records = [json.loads(line) for line in
               out.read_text(encoding="utf-8").splitlines()]
    assert len(records) == 18  # actors/search hints have no rules


def test_batch_empty_directory_errors(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["batch", str(empty)]) == 2


def test_batch_conflicting_outputs_rejected(served_site, tmp_path):
    site_dir, repo_path = served_site
    assert main([
        "batch", str(site_dir), "--repository", str(repo_path),
        "--jsonl", str(tmp_path / "a.jsonl"),
        "--xml-dir", str(tmp_path / "x"),
    ]) == 2


def test_batch_skips_unreadable_file(served_site, tmp_path, capsys):
    site_dir, repo_path = served_site
    # A Latin-1 file that is not valid UTF-8 must be skipped, not
    # abort the whole run.
    (site_dir / "imdb-movies-9999.html").write_bytes(
        b"<body>caf\xe9</body>"
    )
    out = tmp_path / "tolerant.jsonl"
    assert main([
        "batch", str(site_dir), "--repository", str(repo_path),
        "--workers", "1", "--jsonl", str(out),
    ]) == 0
    err = capsys.readouterr().err
    assert "1 unreadable file(s) skipped" in err
    records = [json.loads(line) for line in
               out.read_text(encoding="utf-8").splitlines()]
    assert len([r for r in records if r["cluster"] == "imdb-movies"]) == 18


def test_serve_stdin_loop(served_site, capsys, monkeypatch):
    site_dir, repo_path = served_site
    page = sorted(site_dir.glob("imdb-movies-*.html"))[0]
    request = json.dumps({
        "url": page.resolve().as_uri(),
        "html": page.read_text(encoding="utf-8"),
    })
    bad = "{not json"
    # html must be a string: a null must produce an error line, not a
    # crash of the serving loop (the DOM parse is lazy otherwise).
    unparseable = json.dumps({"url": "http://x/", "html": None})
    monkeypatch.setattr(
        "sys.stdin",
        io.StringIO(request + "\n" + bad + "\n" + unparseable + "\n"),
    )
    assert main([
        "serve", "--repository", str(repo_path),
        "--cluster", "imdb-movies",
    ]) == 0
    out_lines = capsys.readouterr().out.strip().splitlines()
    assert len(out_lines) == 3
    first = json.loads(out_lines[0])
    assert first["cluster"] == "imdb-movies"
    assert first["values"]["title"]
    assert "error" in json.loads(out_lines[1])
    assert "error" in json.loads(out_lines[2])


def test_serve_eof_mid_json_line(served_site, capsys, monkeypatch):
    # A final line truncated by EOF (no newline) must produce a
    # structured error record and a clean exit, not a crash.
    _, repo_path = served_site
    monkeypatch.setattr("sys.stdin", io.StringIO('{"url": "x", "html": "<b'))
    assert main([
        "serve", "--repository", str(repo_path),
        "--cluster", "imdb-movies",
    ]) == 0
    captured = capsys.readouterr()
    (line,) = captured.out.strip().splitlines()
    assert "error" in json.loads(line)
    assert "served 0 page(s)" in captured.err


def test_serve_undecodable_input_continues(served_site, capsys, monkeypatch):
    _, repo_path = served_site

    class FlakyStdin:
        """Decode error on the second read, EOF on the fourth."""

        def __init__(self, lines):
            self._reads = iter(lines)

        def readline(self):
            item = next(self._reads, "")
            if isinstance(item, Exception):
                raise item
            return item

    good = json.dumps({"url": "http://x/", "html": "<body><p>x</p></body>"})
    monkeypatch.setattr("sys.stdin", FlakyStdin([
        good + "\n",
        UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte"),
        good + "\n",
    ]))
    assert main([
        "serve", "--repository", str(repo_path),
        "--cluster", "imdb-movies",
    ]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    assert "undecodable input" in json.loads(lines[1])["error"]
    assert json.loads(lines[2])["cluster"] == "imdb-movies"


def test_serve_persistent_decode_failure_gives_up(served_site, capsys,
                                                  monkeypatch):
    _, repo_path = served_site

    class BrokenStdin:
        def readline(self):
            raise UnicodeDecodeError("utf-8", b"\xff", 0, 1, "bad")

    monkeypatch.setattr("sys.stdin", BrokenStdin())
    monkeypatch.setattr("repro.service.serve.MAX_DECODE_FAILURES", 3)
    assert main([
        "serve", "--repository", str(repo_path),
        "--cluster", "imdb-movies",
    ]) == 1
    captured = capsys.readouterr()
    assert captured.out.count("undecodable input") == 3
    assert "giving up" in captured.err


def test_serve_decode_failure_counter_is_consecutive(served_site, capsys,
                                                     monkeypatch):
    # Sporadic decode errors interleaved with progress must never trip
    # the give-up limit, however many accumulate over a long run.
    _, repo_path = served_site

    class FlakyStdin:
        def __init__(self, reads):
            self._reads = iter(reads)

        def readline(self):
            item = next(self._reads, "")
            if isinstance(item, Exception):
                raise item
            return item

    good = json.dumps({"url": "http://x/", "html": "<body><p>x</p></body>"})
    reads = []
    for _ in range(5):
        reads.append(UnicodeDecodeError("utf-8", b"\xff", 0, 1, "bad"))
        reads.append(good + "\n")
    monkeypatch.setattr("sys.stdin", FlakyStdin(reads))
    monkeypatch.setattr("repro.service.serve.MAX_DECODE_FAILURES", 3)
    assert main([
        "serve", "--repository", str(repo_path),
        "--cluster", "imdb-movies",
    ]) == 0
    assert "served 5 page(s)" in capsys.readouterr().err


def test_serve_consumer_closing_output_is_clean(served_site, capsys,
                                                monkeypatch):
    _, repo_path = served_site

    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    request = json.dumps({
        "url": "http://x/", "html": "<body><p>x</p></body>",
    })
    monkeypatch.setattr("sys.stdin", io.StringIO(request + "\n"))
    monkeypatch.setattr("sys.stdout", ClosedPipe())
    assert main([
        "serve", "--repository", str(repo_path),
        "--cluster", "imdb-movies",
    ]) == 0
    err = capsys.readouterr().err
    assert "output stream closed by consumer" in err
    assert "served 0 page(s)" in err


def test_serve_interrupt_exits_130_and_closes_adaptation_log(
    served_site, capsys, monkeypatch, tmp_path
):
    # Ctrl-C mid-stream must leave the output and the adaptation log
    # flushed, closed and line-complete (audit-readable partial run).
    site_dir, repo_path = served_site
    log_path = tmp_path / "adapt.jsonl"
    from repro.service.adapt import AdaptationLog

    closed = []
    original_close = AdaptationLog.close

    def tracking_close(self):
        closed.append(True)
        original_close(self)

    monkeypatch.setattr(AdaptationLog, "close", tracking_close)
    page = sorted(site_dir.glob("imdb-movies-*.html"))[0]
    request = json.dumps({
        "url": page.resolve().as_uri(),
        "html": page.read_text(encoding="utf-8"),
    })

    class InterruptingStdin:
        def __init__(self):
            self._lines = [request + "\n"] * 2

        def readline(self):
            if not self._lines:
                raise KeyboardInterrupt
            return self._lines.pop(0)

    monkeypatch.setattr("sys.stdin", InterruptingStdin())
    assert main([
        "serve", "--repository", str(repo_path),
        "--exemplars-dir", str(site_dir), "--adapt",
        "--adapt-log", str(log_path),
    ]) == 130
    captured = capsys.readouterr()
    assert "interrupted" in captured.err
    assert "drift:" in captured.err  # the report still ran
    assert closed  # the audit log was closed on the way out
    for line in captured.out.splitlines():
        json.loads(line)  # every emitted record is line-complete
    for line in log_path.read_text(encoding="utf-8").splitlines():
        json.loads(line)


def test_parse_http_address_spellings():
    from repro.cli import _parse_http_address

    assert _parse_http_address("127.0.0.1:8080") == ("127.0.0.1", 8080)
    assert _parse_http_address(":0") == ("127.0.0.1", 0)
    assert _parse_http_address("[::1]:8080") == ("::1", 8080)


@pytest.mark.parametrize("address", ["nonsense", "127.0.0.1:notaport",
                                     "127.0.0.1:70000"])
def test_serve_http_rejects_bad_address(served_site, capsys, address):
    _, repo_path = served_site
    assert main([
        "serve", "--repository", str(repo_path),
        "--cluster", "imdb-movies", "--http", address,
    ]) == 2
    assert "--http" in capsys.readouterr().err


def test_serve_http_bind_failure_is_a_clean_error(served_site, capsys):
    import socket

    _, repo_path = served_site
    blocker = socket.socket()
    blocker.bind(("127.0.0.1", 0))
    blocker.listen(1)
    try:
        port = blocker.getsockname()[1]
        assert main([
            "serve", "--repository", str(repo_path),
            "--cluster", "imdb-movies", "--http", f"127.0.0.1:{port}",
        ]) == 2
    finally:
        blocker.close()
    assert "address" in capsys.readouterr().err.lower()


@contextlib.contextmanager
def _http_serving(argv, monkeypatch):
    """Run ``main(argv)``, a ``serve --http``, on a thread.

    Yields the started front-end once it listens; on exit stops it and
    checks that the command drained and exited 0.
    """
    started, codes = [], []
    monkeypatch.setattr("repro.cli.SERVE_HTTP_STARTED", started.append)
    thread = threading.Thread(target=lambda: codes.append(main(argv)))
    thread.start()
    try:
        deadline = time.time() + 30
        while not started and thread.is_alive() and time.time() < deadline:
            time.sleep(0.01)
        assert started, "serve --http never came up"
        yield started[0]
    finally:
        for front in started:
            front.stop()
        thread.join(timeout=30)
    assert not thread.is_alive()
    assert codes == [0]


def _roundtrip(port: int, request: bytes) -> tuple[bytes, bytes]:
    """One ``Connection: close`` request: the response head and body."""
    import socket

    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(request)
        sock.settimeout(10)
        response = b""
        while data := sock.recv(65536):
            response += data
    head, _, payload = response.partition(b"\r\n\r\n")
    return head, payload


def test_serve_http_end_to_end(served_site, capsys, monkeypatch):
    # The full CLI path: serve --http binds, answers a real socket
    # request with the shared handler's record, drains on stop, and
    # reports the session like the stdin front-ends do.
    site_dir, repo_path = served_site
    page = sorted(site_dir.glob("imdb-movies-*.html"))[0]
    body = json.dumps({
        "url": page.resolve().as_uri(),
        "html": page.read_text(encoding="utf-8"),
    }).encode("utf-8")
    with _http_serving([
        "serve", "--repository", str(repo_path),
        "--cluster", "imdb-movies", "--http", "127.0.0.1:0",
    ], monkeypatch) as front:
        head, payload = _roundtrip(front.port, (
            b"POST /extract HTTP/1.1\r\nHost: t\r\n"
            b"Connection: close\r\n"
            b"Content-Length: %d\r\n\r\n" % len(body) + body
        ))
    assert head.startswith(b"HTTP/1.1 200 OK")
    record = json.loads(payload)
    assert record["cluster"] == "imdb-movies"
    assert record["values"]["title"]
    err = capsys.readouterr().err
    assert "serving HTTP on 127.0.0.1:" in err
    assert "served 1 page(s) over 1 request(s)" in err


def test_serve_http_on_an_empty_registry_reports_its_pinned_version(
    served_site, tmp_path, monkeypatch
):
    # An empty registry gets the served artifact published and pinned
    # at start-up; /healthz must name that version, not null.
    from repro.service import ArtifactRegistry

    _, repo_path = served_site
    registry_dir = tmp_path / "registry"
    registry_dir.mkdir()
    with _http_serving([
        "serve", "--repository", str(repo_path), "--cluster", "imdb-movies",
        "--registry", str(registry_dir), "--http", "127.0.0.1:0",
    ], monkeypatch) as front:
        head, payload = _roundtrip(
            front.port,
            b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
        )
    assert head.startswith(b"HTTP/1.1 200 OK")
    pinned = ArtifactRegistry(registry_dir).pinned()
    assert pinned is not None
    assert json.loads(payload)["registry_version"] == pinned


def test_serve_extraction_crash_emits_error_record(served_site, capsys,
                                                   monkeypatch):
    _, repo_path = served_site
    from repro.service.compiler import CompiledWrapper

    def boom(self, page, failures=None):
        raise RuntimeError("wrapper exploded")

    monkeypatch.setattr(CompiledWrapper, "extract_page", boom)
    request = json.dumps({
        "url": "http://x/", "html": "<body><p>x</p></body>",
    })
    monkeypatch.setattr("sys.stdin", io.StringIO(request + "\n"))
    assert main([
        "serve", "--repository", str(repo_path),
        "--cluster", "imdb-movies",
    ]) == 0
    (line,) = capsys.readouterr().out.strip().splitlines()
    record = json.loads(line)
    assert record["url"] == "http://x/"
    assert "wrapper exploded" in record["error"]


# --------------------------------------------------------------------- #
# The shard subcommands: plan + run + merge
# --------------------------------------------------------------------- #


def test_shard_three_way_matches_unsharded_batch(served_site, tmp_path,
                                                 capsys):
    site_dir, repo_path = served_site
    unsharded = tmp_path / "unsharded.jsonl"
    assert main([
        "batch", str(site_dir), "--repository", str(repo_path),
        "--jsonl", str(unsharded), "--workers", "3", "--chunk-size", "5",
    ]) == 0
    plan_path = tmp_path / "plan.json"
    assert main([
        "shard", "plan", str(site_dir),
        "--shards", "3", "--output", str(plan_path),
    ]) == 0
    out_dir = tmp_path / "shards"
    for shard in range(3):
        assert main([
            "shard", "run", str(site_dir),
            "--plan", str(plan_path), "--shard", str(shard),
            "--repository", str(repo_path),
            "--output-dir", str(out_dir), "--workers", "1",
            "--chunk-size", "4",
        ]) == 0
    merged = tmp_path / "merged.jsonl"
    assert main([
        "shard", "merge", str(out_dir), "--output", str(merged),
    ]) == 0
    assert merged.read_bytes() == unsharded.read_bytes()
    assert "shards merged   : 3" in capsys.readouterr().err


def test_shard_merge_to_stdout(served_site, tmp_path, capsys):
    site_dir, repo_path = served_site
    plan_path = tmp_path / "plan.json"
    main(["shard", "plan", str(site_dir), "--shards", "2",
          "--strategy", "range", "--output", str(plan_path)])
    out_dir = tmp_path / "shards"
    for shard in range(2):
        main(["shard", "run", str(site_dir), "--plan", str(plan_path),
              "--shard", str(shard), "--repository", str(repo_path),
              "--workers", "1", "--output-dir", str(out_dir)])
    capsys.readouterr()
    assert main(["shard", "merge", str(out_dir)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    indices = [json.loads(line)["index"] for line in lines]
    assert indices == sorted(indices)


def test_shard_identity_survives_unreadable_file(served_site, tmp_path):
    # An unreadable file mid-corpus must leave the same submission-index
    # gap in both pipelines, keeping merged output byte-identical.
    site_dir, repo_path = served_site
    victim = sorted(site_dir.glob("imdb-movies-*.html"))[3]
    victim.write_bytes(b"<body>caf\xe9</body>")  # not valid UTF-8
    plan_path = tmp_path / "plan.json"
    assert main(["shard", "plan", str(site_dir), "--shards", "2",
                 "--output", str(plan_path)]) == 0
    out_dir = tmp_path / "shards"
    for shard in range(2):
        assert main(["shard", "run", str(site_dir),
                     "--plan", str(plan_path), "--shard", str(shard),
                     "--repository", str(repo_path), "--workers", "1",
                     "--output-dir", str(out_dir)]) == 0
    merged = tmp_path / "merged.jsonl"
    assert main(["shard", "merge", str(out_dir),
                 "--output", str(merged)]) == 0
    unsharded = tmp_path / "unsharded.jsonl"
    assert main(["batch", str(site_dir), "--repository", str(repo_path),
                 "--workers", "1", "--jsonl", str(unsharded)]) == 0
    assert merged.read_bytes() == unsharded.read_bytes()


def test_batch_survives_unreadable_exemplar(served_site, tmp_path, capsys):
    # The router is fitted from the first hint-named files; a
    # mis-encoded file in that window must be skipped, not crash.
    site_dir, repo_path = served_site
    victim = sorted(site_dir.glob("imdb-movies-*.html"))[0]
    victim.write_bytes(b"<body>caf\xe9</body>")
    out = tmp_path / "records.jsonl"
    assert main([
        "batch", str(site_dir), "--repository", str(repo_path),
        "--workers", "1", "--jsonl", str(out),
    ]) == 0
    err = capsys.readouterr().err
    assert "skipping exemplar" in err
    assert "1 unreadable file(s) skipped" in err


def test_shard_plan_empty_directory_errors(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["shard", "plan", str(empty)]) == 2


def test_shard_run_rejects_unknown_shard(served_site, tmp_path, capsys):
    site_dir, repo_path = served_site
    plan_path = tmp_path / "plan.json"
    main(["shard", "plan", str(site_dir), "--shards", "2",
          "--output", str(plan_path)])
    assert main([
        "shard", "run", str(site_dir), "--plan", str(plan_path),
        "--shard", "7", "--repository", str(repo_path),
        "--output-dir", str(tmp_path / "out"),
    ]) == 2
    assert "out of range" in capsys.readouterr().err


def test_shard_run_reports_missing_plan_pages(served_site, tmp_path,
                                              capsys):
    site_dir, repo_path = served_site
    plan_path = tmp_path / "plan.json"
    main(["shard", "plan", str(site_dir), "--shards", "2",
          "--output", str(plan_path)])
    victim = sorted(site_dir.glob("*.html"))[0]
    victim.unlink()
    assert main([
        "shard", "run", str(site_dir), "--plan", str(plan_path),
        "--shard", "0", "--repository", str(repo_path),
        "--output-dir", str(tmp_path / "out"),
    ]) == 2
    assert "missing" in capsys.readouterr().err


def test_shard_merge_incomplete_set_fails(served_site, tmp_path, capsys):
    site_dir, repo_path = served_site
    plan_path = tmp_path / "plan.json"
    main(["shard", "plan", str(site_dir), "--shards", "2",
          "--output", str(plan_path)])
    out_dir = tmp_path / "shards"
    main(["shard", "run", str(site_dir), "--plan", str(plan_path),
          "--shard", "0", "--repository", str(repo_path), "--workers", "1",
          "--output-dir", str(out_dir)])
    assert main([
        "shard", "merge", str(out_dir),
        "--output", str(tmp_path / "merged.jsonl"),
    ]) == 1
    assert "missing shard" in capsys.readouterr().err


# --------------------------------------------------------------------- #
# serve: one line read, extracted and written at a time
# --------------------------------------------------------------------- #


def test_serve_sync_loop_matches_async_records(served_site, capsys,
                                               monkeypatch):
    site_dir, repo_path = served_site
    pages = sorted(site_dir.glob("imdb-movies-*.html"))[:3]
    text = "".join(
        json.dumps({
            "url": page.resolve().as_uri(),
            "html": page.read_text(encoding="utf-8"),
        }) + "\n"
        for page in pages
    )
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main([
        "serve", "--repository", str(repo_path),
        "--cluster", "imdb-movies",
    ]) == 0
    captured = capsys.readouterr()
    sync_out = captured.out
    assert "served 3 page(s)" in captured.err
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main([
        "serve", "--repository", str(repo_path),
        "--cluster", "imdb-movies",
    ]) == 0
    assert capsys.readouterr().out == sync_out


def test_serve_sync_handles_bad_input_and_decode_errors(served_site, capsys,
                                                        monkeypatch):
    _, repo_path = served_site

    class FlakyStdin:
        def __init__(self, reads):
            self._reads = iter(reads)

        def readline(self):
            item = next(self._reads, "")
            if isinstance(item, Exception):
                raise item
            return item

    good = json.dumps({"url": "http://x/", "html": "<body><p>x</p></body>"})
    monkeypatch.setattr("sys.stdin", FlakyStdin([
        "{not json\n",
        "   \n",  # blank lines produce no output
        UnicodeDecodeError("utf-8", b"\xff", 0, 1, "bad"),
        good + "\n",
    ]))
    assert main([
        "serve", "--repository", str(repo_path),
        "--cluster", "imdb-movies",
    ]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    assert "error" in json.loads(lines[0])
    assert "undecodable input" in json.loads(lines[1])["error"]
    assert json.loads(lines[2])["cluster"] == "imdb-movies"


def test_serve_sync_persistent_decode_failure_gives_up(served_site, capsys,
                                                       monkeypatch):
    _, repo_path = served_site

    class BrokenStdin:
        def readline(self):
            raise UnicodeDecodeError("utf-8", b"\xff", 0, 1, "bad")

    monkeypatch.setattr("sys.stdin", BrokenStdin())
    monkeypatch.setattr("repro.service.serve.MAX_DECODE_FAILURES", 2)
    assert main([
        "serve", "--repository", str(repo_path),
        "--cluster", "imdb-movies",
    ]) == 1
    captured = capsys.readouterr()
    assert captured.out.count("undecodable input") == 2
    assert "giving up" in captured.err


def test_serve_sync_consumer_closing_output_is_clean(served_site, capsys,
                                                     monkeypatch):
    _, repo_path = served_site

    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    request = json.dumps({
        "url": "http://x/", "html": "<body><p>x</p></body>",
    })
    monkeypatch.setattr("sys.stdin", io.StringIO(request + "\n"))
    monkeypatch.setattr("sys.stdout", ClosedPipe())
    assert main([
        "serve", "--repository", str(repo_path),
        "--cluster", "imdb-movies",
    ]) == 0
    err = capsys.readouterr().err
    assert "output stream closed by consumer" in err
    assert "served 0 page(s)" in err


# --------------------------------------------------------------------- #
# shard --format xml and shard resume
# --------------------------------------------------------------------- #


def test_shard_xml_pipeline_matches_unsharded_batch(served_site, tmp_path,
                                                    capsys):
    site_dir, repo_path = served_site
    reference = tmp_path / "reference-xml"
    assert main([
        "batch", str(site_dir), "--repository", str(repo_path),
        "--xml-dir", str(reference), "--workers", "3", "--chunk-size", "5",
    ]) == 0
    plan_path = tmp_path / "plan.json"
    assert main(["shard", "plan", str(site_dir), "--shards", "3",
                 "--output", str(plan_path)]) == 0
    out_dir = tmp_path / "shards"
    for shard in range(3):
        assert main([
            "shard", "run", str(site_dir), "--plan", str(plan_path),
            "--shard", str(shard), "--repository", str(repo_path),
            "--output-dir", str(out_dir), "--format", "xml",
            "--workers", "1", "--chunk-size", "4",
        ]) == 0
    merged = tmp_path / "merged-xml"
    assert main([
        "shard", "merge", str(out_dir), "--format", "xml",
        "--output", str(merged),
    ]) == 0
    assert "merged XML documents written" in capsys.readouterr().err
    expected = {p.name: p.read_bytes() for p in reference.glob("*.xml")}
    produced = {p.name: p.read_bytes() for p in merged.iterdir()}
    assert expected  # the batch reference actually wrote documents
    assert produced == expected


def test_shard_merge_xml_requires_output_directory(tmp_path, capsys):
    assert main([
        "shard", "merge", str(tmp_path), "--format", "xml",
    ]) == 2
    assert "--output" in capsys.readouterr().err


def test_shard_merge_xml_empty_inputs_fail(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main([
        "shard", "merge", str(empty), "--format", "xml",
        "--output", str(tmp_path / "out"),
    ]) == 1
    assert "no shard manifests" in capsys.readouterr().err


def test_shard_resume_reruns_only_incomplete_shards(served_site, tmp_path,
                                                    capsys):
    site_dir, repo_path = served_site
    plan_path = tmp_path / "plan.json"
    assert main(["shard", "plan", str(site_dir), "--shards", "3",
                 "--output", str(plan_path)]) == 0
    out_dir = tmp_path / "shards"
    # Only shard 1 ran; 0 and 2 "never came back".
    assert main([
        "shard", "run", str(site_dir), "--plan", str(plan_path),
        "--shard", "1", "--repository", str(repo_path), "--workers", "1",
        "--output-dir", str(out_dir),
    ]) == 0
    shard1 = (out_dir / "shard-0001.jsonl").read_bytes()
    capsys.readouterr()
    assert main([
        "shard", "resume", str(site_dir), "--plan", str(plan_path),
        "--repository", str(repo_path), "--workers", "1",
        "--output-dir", str(out_dir),
    ]) == 0
    err = capsys.readouterr().err
    assert "resuming 2 of 3 shard(s)" in err
    assert "#0 (manifest missing)" in err
    assert (out_dir / "shard-0001.jsonl").read_bytes() == shard1  # untouched
    merged = tmp_path / "merged.jsonl"
    assert main(["shard", "merge", str(out_dir),
                 "--output", str(merged)]) == 0
    capsys.readouterr()
    # A second resume finds a complete set.
    assert main([
        "shard", "resume", str(site_dir), "--plan", str(plan_path),
        "--repository", str(repo_path), "--workers", "1",
        "--output-dir", str(out_dir),
    ]) == 0
    assert "nothing to resume" in capsys.readouterr().err


def test_shard_resume_noop_works_without_the_corpus(served_site, tmp_path,
                                                    capsys):
    # Once every shard is complete, resume must be a cheap no-op — even
    # on a host where the corpus directory has since been cleaned up.
    import shutil

    site_dir, repo_path = served_site
    plan_path = tmp_path / "plan.json"
    assert main(["shard", "plan", str(site_dir), "--shards", "2",
                 "--output", str(plan_path)]) == 0
    out_dir = tmp_path / "shards"
    for shard in range(2):
        assert main([
            "shard", "run", str(site_dir), "--plan", str(plan_path),
            "--shard", str(shard), "--repository", str(repo_path),
            "--workers", "1", "--output-dir", str(out_dir),
        ]) == 0
    shutil.rmtree(site_dir)
    capsys.readouterr()
    assert main([
        "shard", "resume", str(site_dir), "--plan", str(plan_path),
        "--repository", str(repo_path), "--workers", "1",
        "--output-dir", str(out_dir),
    ]) == 0
    assert "nothing to resume" in capsys.readouterr().err


def test_shard_resume_refuses_format_mismatch(served_site, tmp_path,
                                              capsys):
    # All shards ran as xml; resuming with the default jsonl format
    # would leave an unmergeable mixed directory — refuse instead.
    site_dir, repo_path = served_site
    plan_path = tmp_path / "plan.json"
    assert main(["shard", "plan", str(site_dir), "--shards", "2",
                 "--output", str(plan_path)]) == 0
    out_dir = tmp_path / "shards"
    assert main([
        "shard", "run", str(site_dir), "--plan", str(plan_path),
        "--shard", "0", "--repository", str(repo_path), "--workers", "1",
        "--output-dir", str(out_dir), "--format", "xml",
    ]) == 0
    capsys.readouterr()
    assert main([
        "shard", "resume", str(site_dir), "--plan", str(plan_path),
        "--repository", str(repo_path), "--workers", "1",
        "--output-dir", str(out_dir),
    ]) == 2
    err = capsys.readouterr().err
    assert "xml" in err and "--format" in err


def test_shard_resume_rejects_missing_plan(tmp_path, capsys):
    assert main([
        "shard", "resume", str(tmp_path),
        "--plan", str(tmp_path / "absent.json"),
    ]) == 2


def test_serve_rejects_the_removed_max_inflight_flag(capsys):
    # The stdin loop and the HTTP front-end hold no in-flight window:
    # a script still passing the old flag fails loudly, not silently.
    with pytest.raises(SystemExit) as exited:
        main([
            "serve", "--repository", "rules.json", "--cluster", "imdb-movies",
            "--max-inflight", "8",
        ])
    assert exited.value.code == 2
    assert "unrecognized arguments: --max-inflight 8" in (
        capsys.readouterr().err
    )


def test_serve_stdin_starts_no_event_loop_and_no_thread(served_site, capsys,
                                                        monkeypatch):
    site_dir, repo_path = served_site

    def refuse(*args, **kwargs):
        raise AssertionError("the stdin front-end needs neither")

    monkeypatch.setattr("asyncio.run", refuse)
    monkeypatch.setattr("asyncio.events.new_event_loop", refuse)
    monkeypatch.setattr("threading.Thread.start", refuse)
    monkeypatch.setattr(
        "sys.stdin", io.StringIO(_serve_requests(site_dir, count=2))
    )
    assert main([
        "serve", "--repository", str(repo_path), "--cluster", "imdb-movies",
    ]) == 0
    captured = capsys.readouterr()
    assert "served 2 page(s)" in captured.err
    assert len(captured.out.splitlines()) == 2


def test_serve_rejects_unknown_cluster(served_site, capsys):
    _, repo_path = served_site
    assert main([
        "serve", "--repository", str(repo_path), "--cluster", "nope",
    ]) == 2
    assert "unknown cluster" in capsys.readouterr().err


def test_serve_multi_cluster_requires_disambiguation(served_site, tmp_path,
                                                     monkeypatch):
    from repro.core.component import PageComponent
    from repro.core.repository import RuleRepository
    from repro.core.rule import MappingRule

    _, repo_path = served_site
    repository = RuleRepository.load(repo_path)
    repository.record("other", MappingRule(
        component=PageComponent("x"), locations=("BODY//P/text()",),
    ))
    multi = tmp_path / "multi.json"
    repository.save(multi)
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    assert main(["serve", "--repository", str(multi)]) == 2


# --------------------------------------------------------------------- #
# Adaptive routing: --adapt across serve, batch and shard
# --------------------------------------------------------------------- #


def _serve_requests(site_dir, count=6) -> str:
    lines = []
    for path in sorted(site_dir.glob("imdb-movies-*.html"))[:count]:
        lines.append(json.dumps({
            "url": path.resolve().as_uri(),
            "html": path.read_text(encoding="utf-8"),
        }))
    return "\n".join(lines) + "\n"


def test_serve_adapt_byte_identical_without_drift(served_site, capsys,
                                                  monkeypatch):
    # Acceptance: for a drift-free corpus, --adapt output is
    # byte-identical to a non-adaptive run of the same stream.
    site_dir, repo_path = served_site
    text = _serve_requests(site_dir)

    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main([
        "serve", "--repository", str(repo_path),
        "--exemplars-dir", str(site_dir),
    ]) == 0
    plain = capsys.readouterr().out

    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main([
        "serve", "--repository", str(repo_path),
        "--exemplars-dir", str(site_dir), "--adapt",
    ]) == 0
    captured = capsys.readouterr()
    assert captured.out == plain
    assert "drift: 0 event(s), 0 refit(s)" in captured.err


def test_serve_adapt_sync_loop_reports_drift(served_site, capsys,
                                             monkeypatch):
    site_dir, repo_path = served_site
    monkeypatch.setattr("sys.stdin", io.StringIO(_serve_requests(site_dir)))
    assert main([
        "serve", "--repository", str(repo_path),
        "--exemplars-dir", str(site_dir), "--adapt",
    ]) == 0
    assert "drift: 0 event(s), 0 refit(s)" in capsys.readouterr().err


def test_serve_adapt_requires_router(served_site, capsys, monkeypatch):
    _, repo_path = served_site
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    assert main([
        "serve", "--repository", str(repo_path),
        "--cluster", "imdb-movies", "--adapt",
    ]) == 2
    assert "fitted signature router" in capsys.readouterr().err


def test_batch_adapt_byte_identical_without_drift(served_site, tmp_path,
                                                  capsys):
    site_dir, repo_path = served_site
    plain = tmp_path / "plain.jsonl"
    adaptive = tmp_path / "adaptive.jsonl"
    log_path = tmp_path / "adapt-log.jsonl"
    assert main([
        "batch", str(site_dir), "--repository", str(repo_path),
        "--jsonl", str(plain), "--workers", "1",
    ]) == 0
    assert main([
        "batch", str(site_dir), "--repository", str(repo_path),
        "--jsonl", str(adaptive), "--adapt",
        "--adapt-log", str(log_path),
    ]) == 0
    assert adaptive.read_bytes() == plain.read_bytes()
    assert log_path.exists()  # opened (and empty: no events fired)
    assert log_path.read_text(encoding="utf-8") == ""
    assert "drift events" not in capsys.readouterr().err


def test_batch_adapt_without_router_errors(served_site, tmp_path, capsys):
    # --route hint skips router fitting; adaptation must refuse.
    site_dir, repo_path = served_site
    assert main([
        "batch", str(site_dir), "--repository", str(repo_path),
        "--jsonl", str(tmp_path / "x.jsonl"),
        "--route", "hint", "--adapt",
    ]) == 2
    assert "fitted signature router" in capsys.readouterr().err


def test_shard_run_adapt_records_drift_in_manifest(served_site, tmp_path):
    site_dir, repo_path = served_site
    plan_path = tmp_path / "plan.json"
    assert main(["shard", "plan", str(site_dir), "--shards", "1",
                 "--output", str(plan_path)]) == 0
    out_dir = tmp_path / "shards"
    log_path = tmp_path / "adapt-log.jsonl"
    assert main([
        "shard", "run", str(site_dir),
        "--plan", str(plan_path), "--shard", "0",
        "--repository", str(repo_path), "--output-dir", str(out_dir),
        "--workers", "1", "--adapt", "--adapt-log", str(log_path),
    ]) == 0
    manifest = json.loads(
        (out_dir / "shard-0000.manifest.json").read_text(encoding="utf-8")
    )
    assert manifest["drift_events"] == 0
    assert manifest["refits"] == 0
    # The per-shard audit log got its own suffixed path.
    assert (tmp_path / "adapt-log.jsonl.shard-0000").exists()


def test_shard_resume_adapt_isolates_routers(served_site, tmp_path,
                                             monkeypatch, capsys):
    # A resume runs several adaptive shards in one process; each must
    # adapt from the originally fitted profiles, so one shard's refit
    # can never leak into the next shard's routing.
    import repro.cli as cli

    site_dir, repo_path = served_site
    plan_path = tmp_path / "plan.json"
    assert main(["shard", "plan", str(site_dir), "--shards", "2",
                 "--output", str(plan_path)]) == 0
    captured = []
    original = cli._make_adapter

    def capturing(args, router, **kwargs):
        adapter = original(args, router, **kwargs)
        captured.append(adapter)
        return adapter

    monkeypatch.setattr(cli, "_make_adapter", capturing)
    assert main([
        "shard", "resume", str(site_dir),
        "--plan", str(plan_path), "--repository", str(repo_path),
        "--output-dir", str(tmp_path / "shards"), "--workers", "1",
        "--adapt",
    ]) == 0
    assert len(captured) == 2
    first, second = captured
    assert first.router is not second.router
    # Refitting one shard's router must leave the other's untouched.
    from repro.clustering.features import page_signature
    from repro.cli import _page_from_path

    page = sorted(site_dir.glob("imdb-movies-*.html"))[0]
    before = second.router.profiles
    first.router.refit(
        {}, [page_signature(_page_from_path(page))], anchor=0.0
    )
    assert second.router.profiles is before


def test_adaptation_flags_configure_margin_and_spawn(served_site):
    from repro.cli import _make_adapter, build_parser
    from repro.service import ClusterRouter
    from repro.sites.imdb import generate_imdb_site

    site = generate_imdb_site(n_movies=6, n_actors=2, n_search=2, seed=3)
    router = ClusterRouter.fit(
        {"imdb-movies": site.pages_with_hint("imdb-movies")[:4]}
    )
    args = build_parser().parse_args([
        "serve", "--adapt", "--drift-window", "10",
        "--drift-threshold", "0.4", "--drift-margin", "0.05",
        "--adapt-spawn",
    ])
    adapter = _make_adapter(args, router)
    assert adapter.low_margin == 0.05
    assert adapter.spawn_clusters is True
    assert adapter.monitor.window == 10
    assert adapter.monitor.failure_threshold == 0.4
    assert adapter.monitor.unroutable_threshold == 0.4


def test_failed_adapt_command_leaves_previous_audit_log_intact(
    served_site, tmp_path, capsys
):
    # A command that fails validation must not truncate the previous
    # run's audit trail: the log opens only after everything validated.
    site_dir, repo_path = served_site
    log_path = tmp_path / "audit.jsonl"
    log_path.write_text('{"event": "drift"}\n', encoding="utf-8")
    assert main([
        "batch", str(site_dir), "--repository", str(repo_path),
        "--jsonl", str(tmp_path / "x.jsonl"),
        "--adapt", "--adapt-log", str(log_path), "--workers", "0",
    ]) == 2
    assert log_path.read_text(encoding="utf-8") == '{"event": "drift"}\n'
    assert "workers" in capsys.readouterr().err


def test_failed_adapt_command_leaves_previous_output_intact(
    served_site, tmp_path, capsys
):
    # Validation failures must be detected before ANY output file is
    # opened: previously-written records survive a refused command.
    site_dir, repo_path = served_site
    out = tmp_path / "out.jsonl"
    out.write_text('{"previous": "run"}\n', encoding="utf-8")
    assert main([
        "batch", str(site_dir), "--repository", str(repo_path),
        "--jsonl", str(out), "--adapt",
        "--adapt-log", str(tmp_path / "no-such-dir" / "a.jsonl"),
    ]) == 2
    assert out.read_text(encoding="utf-8") == '{"previous": "run"}\n'
    assert "no-such-dir" in capsys.readouterr().err


# --------------------------------------------------------------------- #
# One deployment rule: batch, shard and serve resolve one artifact
# --------------------------------------------------------------------- #


@pytest.fixture()
def movies_pin(served_site, tmp_path):
    """A registry pinned to movie and actor rules whose router was
    fitted on imdb-movies pages only: an actor page is unroutable by
    the pin, but routable by a router fitted from the site."""
    from repro.core.builder import MappingRuleBuilder
    from repro.core.oracle import ScriptedOracle
    from repro.core.repository import RuleRepository
    from repro.service import ArtifactRegistry, ClusterRouter
    from repro.sites.imdb import generate_imdb_site

    site_dir, repo_path = served_site
    site = generate_imdb_site(n_movies=18, n_actors=6, n_search=3, seed=3)
    repository = RuleRepository.load(repo_path)
    MappingRuleBuilder(
        site.pages_with_hint("imdb-actors")[:4], ScriptedOracle(),
        repository=repository, cluster_name="imdb-actors", seed=1,
    ).build_all(["actor-name"])
    router = ClusterRouter.fit(
        {"imdb-movies": site.pages_with_hint("imdb-movies")[:8]}
    )
    registry = ArtifactRegistry(tmp_path / "registry")
    registry.pin(registry.publish(repository, router).version)
    return site_dir, repo_path, tmp_path / "registry"


def _request_line(path) -> str:
    return json.dumps({
        "url": path.resolve().as_uri(),
        "html": path.read_text(encoding="utf-8"),
    }) + "\n"


def test_serve_pinned_router_beats_exemplars_dir(movies_pin, capsys,
                                                 monkeypatch):
    # The pin is the artifact, router included: --exemplars-dir fits a
    # router only when the pinned version carries none.
    site_dir, repo_path, registry_dir = movies_pin
    actor = sorted(site_dir.glob("imdb-actors-*.html"))[0]
    for extra in ([], ["--exemplars-dir", str(site_dir)]):
        monkeypatch.setattr("sys.stdin", io.StringIO(_request_line(actor)))
        assert main([
            "serve", "--repository", str(repo_path),
            "--registry", str(registry_dir), *extra,
        ]) == 0
        assert json.loads(capsys.readouterr().out)["cluster"] == "unroutable"


@pytest.mark.parametrize("command", ["serve", "batch", "shard run"])
def test_a_pin_needs_no_repository_file(movies_pin, tmp_path, capsys,
                                        monkeypatch, command):
    site_dir, _, registry_dir = movies_pin
    movie = sorted(site_dir.glob("imdb-movies-*.html"))[0]
    monkeypatch.setattr("sys.stdin", io.StringIO(_request_line(movie)))
    plan = tmp_path / "plan.json"
    assert main(["shard", "plan", str(site_dir), "--output", str(plan)]) == 0
    argv = {
        "serve": ["serve"],
        "batch": ["batch", str(site_dir), "--workers", "1",
                  "--jsonl", str(tmp_path / "out.jsonl")],
        "shard run": ["shard", "run", str(site_dir), "--plan", str(plan),
                      "--shard", "0", "--workers", "1",
                      "--output-dir", str(tmp_path / "shards")],
    }[command]
    capsys.readouterr()
    assert main([
        *argv, "--registry", str(registry_dir),
        "--repository", str(tmp_path / "absent.json"),
    ]) == 0
    assert "registry: using pinned version" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["batch", "{site}", "--route", "hint", "--adapt"],
    ["shard", "run", "{site}", "--plan", "{plan}", "--shard", "0",
     "--output-dir", "{out}", "--route", "hint", "--adapt"],
    # Guard: serve has always refused before seeding.
    ["serve", "--cluster", "imdb-movies", "--adapt"],
], ids=["batch", "shard run", "serve"])
def test_a_refused_command_publishes_nothing(served_site, tmp_path, capsys,
                                             monkeypatch, argv):
    from repro.service import ArtifactRegistry

    site_dir, repo_path = served_site
    plan = tmp_path / "plan.json"
    assert main(["shard", "plan", str(site_dir), "--output", str(plan)]) == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    registry_dir = tmp_path / "registry"
    argv = [
        arg.format(site=site_dir, plan=plan, out=tmp_path / "shards")
        for arg in argv
    ]
    assert main([
        *argv, "--repository", str(repo_path),
        "--registry", str(registry_dir),
    ]) == 2
    assert "fitted signature router" in capsys.readouterr().err
    registry = ArtifactRegistry(registry_dir)
    assert registry.pinned() is None
    assert registry.version_ids() == []


@pytest.mark.parametrize("command", ["batch", "serve"])
def test_a_lint_refused_seed_keeps_the_previous_audit_log(tmp_path, capsys,
                                                          monkeypatch,
                                                          command):
    # The seed's lint gate is the last check; the --adapt-log file is
    # only replaced after it, so a refused run leaves the log intact.
    from repro.core.component import PageComponent
    from repro.core.repository import RuleRepository
    from repro.core.rule import MappingRule
    from repro.service import ArtifactRegistry

    repository = RuleRepository()
    repository.record("c", MappingRule(
        component=PageComponent("x"), locations=("BODY[1]/DIV[0]",),
    ))  # RW101: a position no node can take
    repository.save(tmp_path / "rules.json")
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for index in range(3):
        (corpus / f"c-{index:04d}.html").write_text(
            f"<body><div>x {index}</div></body>", encoding="utf-8"
        )
    log_path = tmp_path / "audit.jsonl"
    log_path.write_text('{"event": "drift"}\n', encoding="utf-8")
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    argv = {
        "batch": ["batch", str(corpus), "--workers", "1",
                  "--jsonl", str(tmp_path / "out.jsonl")],
        "serve": ["serve", "--exemplars-dir", str(corpus)],
    }[command]
    assert main([
        *argv, "--repository", str(tmp_path / "rules.json"), "--adapt",
        "--adapt-log", str(log_path), "--registry", str(tmp_path / "reg"),
    ]) == 2
    assert "RW101" in capsys.readouterr().err
    assert log_path.read_text(encoding="utf-8") == '{"event": "drift"}\n'
    assert ArtifactRegistry(tmp_path / "reg").version_ids() == []


def test_a_refused_resume_publishes_nothing(served_site, tmp_path, capsys):
    # Shard 0 ran without a registry; resuming shard 1 against an empty
    # registry would deploy a new version, so resume refuses — before
    # it publishes that version.
    from repro.service import ArtifactRegistry

    site_dir, repo_path = served_site
    plan = tmp_path / "plan.json"
    out_dir = tmp_path / "shards"
    assert main(["shard", "plan", str(site_dir), "--shards", "2",
                 "--output", str(plan)]) == 0
    common = ["--plan", str(plan), "--repository", str(repo_path),
              "--workers", "1", "--output-dir", str(out_dir)]
    assert main(["shard", "run", str(site_dir), "--shard", "0",
                 *common]) == 0
    capsys.readouterr()
    registry_dir = tmp_path / "registry"
    assert main(["shard", "resume", str(site_dir), *common,
                 "--registry", str(registry_dir)]) == 2
    assert "re-pin the registry" in capsys.readouterr().err
    assert ArtifactRegistry(registry_dir).version_ids() == []


def test_batch_route_hint_ignores_a_pinned_router(movies_pin, tmp_path):
    # Guard: --route hint trusts file-name hints whatever the pin holds.
    site_dir, repo_path, registry_dir = movies_pin
    clusters = {}
    for route in ("auto", "hint"):
        out = tmp_path / f"{route}.jsonl"
        assert main([
            "batch", str(site_dir), "--repository", str(repo_path),
            "--registry", str(registry_dir), "--route", route,
            "--workers", "1", "--jsonl", str(out),
        ]) == 0
        clusters[route] = {
            json.loads(line)["cluster"]
            for line in out.read_text(encoding="utf-8").splitlines()
        }
    assert "imdb-actors" not in clusters["auto"]
    assert "imdb-actors" in clusters["hint"]


@pytest.mark.parametrize("flags, consumer, expected", [
    (["--threshold", "0.7"],
     lambda front: front.handler.router.threshold, 0.7),
    (["--http-drain-timeout", "2.5"], lambda front: front.drain_timeout, 2.5),
    (["--rate-limit", "50", "--rate-burst", "7"],
     lambda front: front.handler.policy.rate_burst, 7),
    (["--max-concurrent", "3"],
     lambda front: front.handler.policy.max_concurrent_requests, 3),
], ids=["threshold", "http-drain-timeout", "rate-burst", "max-concurrent"])
def test_serve_flags_reach_their_consumers(served_site, monkeypatch, flags,
                                           consumer, expected):
    site_dir, repo_path = served_site
    with _http_serving([
        "serve", "--repository", str(repo_path),
        "--exemplars-dir", str(site_dir), "--http", "127.0.0.1:0", *flags,
    ], monkeypatch) as front:
        assert consumer(front) == expected
