"""Incremental sinks: JSONL and streamed per-cluster XML."""

import io
import json


from repro.core.repository import Aggregation, RuleRepository
from repro.extraction.extractor import ExtractionProcessor
from repro.extraction.xml_writer import write_cluster_xml
from repro.service.runtime import IterablePageSource, StreamingRuntime
from repro.service.sink import (
    CollectingSink,
    JsonlSink,
    NullSink,
    PageRecord,
    XmlDirectorySink,
)


def _record(url="http://x/1", cluster="movies", **values):
    return PageRecord(
        url=url, cluster=cluster,
        values={name: list(vals) for name, vals in values.items()},
    )


class TestJsonlSink:
    def test_writes_one_line_per_record(self, tmp_path):
        path = tmp_path / "out.jsonl"
        with JsonlSink(path) as sink:
            sink.write(_record(title=["A"]))
            sink.write(_record(url="http://x/2", title=["B"]))
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first == {
            "url": "http://x/1", "cluster": "movies", "index": -1,
            "values": {"title": ["A"]}, "failures": [],
        }

    def test_borrowed_stream_is_not_closed(self):
        stream = io.StringIO()
        sink = JsonlSink(stream, flush_every=1)
        sink.write(_record())
        sink.close()
        assert not stream.closed
        assert stream.getvalue().count("\n") == 1

    def test_failures_serialised_as_lists(self, tmp_path):
        record = _record()
        record.failures.append(("title", "mandatory-missing"))
        path = tmp_path / "f.jsonl"
        with JsonlSink(path) as sink:
            sink.write(record)
        data = json.loads(path.read_text(encoding="utf-8"))
        assert data["failures"] == [["title", "mandatory-missing"]]


class TestXmlDirectorySink:
    def test_streamed_xml_matches_batch_writer(self, service_site,
                                               service_repository, tmp_path):
        movies = service_site.pages_with_hint("imdb-movies")[:12]
        runtime = StreamingRuntime(service_repository, workers=2)
        sink = XmlDirectorySink(tmp_path / "xml", service_repository)
        with sink:
            runtime.run(IterablePageSource(movies), sink)
        streamed = (tmp_path / "xml" / "imdb-movies.xml").read_text(
            encoding="utf-8"
        )
        batch = write_cluster_xml(
            ExtractionProcessor(service_repository, "imdb-movies").extract(
                movies
            ),
            service_repository,
        )
        assert streamed.strip() == batch.strip()

    def test_aggregations_respected(self, tmp_path):
        from repro.core.component import PageComponent
        from repro.core.rule import MappingRule

        repository = RuleRepository()
        for name in ("rating", "comment"):
            repository.record("m", MappingRule(
                component=PageComponent(name),
                locations=(f"BODY//{'SPAN' if name == 'rating' else 'P'}/text()",),
            ))
        repository.record_aggregation(
            "m", Aggregation("users-opinion", ("comment", "rating"))
        )
        sink = XmlDirectorySink(tmp_path, repository)
        with sink:
            sink.write(PageRecord(
                url="http://x/", cluster="m",
                values={"rating": ["9/10"], "comment": ["great"]},
            ))
        xml = (tmp_path / "m.xml").read_text(encoding="utf-8")
        assert xml.index("<users-opinion>") < xml.index("<rating>")
        assert xml.rstrip().endswith("</m>")
        assert sink.paths() == {"m": tmp_path / "m.xml"}

    def test_one_file_per_cluster(self, tmp_path):
        repository = RuleRepository()
        sink = XmlDirectorySink(tmp_path, repository)
        with sink:
            sink.write(_record(cluster="alpha", title=["a"]))
            sink.write(_record(cluster="beta", title=["b"]))
        assert (tmp_path / "alpha.xml").exists()
        assert (tmp_path / "beta.xml").exists()

    def test_declared_encoding_matches_bytes(self, tmp_path):
        # The prolog declares ISO-8859-1; a character outside it must
        # arrive as an XML character reference, not as UTF-8 bytes.
        sink = XmlDirectorySink(tmp_path, RuleRepository())
        with sink:
            sink.write(_record(cluster="shop", price=["café €9"]))
        raw = (tmp_path / "shop.xml").read_bytes()
        text = raw.decode("ISO-8859-1")  # must not raise, no mojibake
        assert 'encoding="ISO-8859-1"' in text
        assert "caf\xe9 &#8364;9" in text

    def test_index_sidecar_records_submission_order(self, tmp_path):
        repository = RuleRepository()
        sink = XmlDirectorySink(tmp_path, repository, record_indices=True)
        with sink:
            for index, cluster in ((4, "alpha"), (9, "beta"), (11, "alpha")):
                record = _record(cluster=cluster, title=["t"])
                record.index = index
                sink.write(record)
        assert (tmp_path / "alpha.index").read_text("ascii") == "4\n11\n"
        assert (tmp_path / "beta.index").read_text("ascii") == "9\n"
        # Sidecars are opt-in: the Figure-5 XML bytes never change.
        assert "index" not in (tmp_path / "alpha.xml").read_text("utf-8")

    def test_no_sidecar_by_default(self, tmp_path):
        sink = XmlDirectorySink(tmp_path, RuleRepository())
        with sink:
            sink.write(_record(cluster="only", title=["t"]))
        assert not list(tmp_path.glob("*.index"))

    def test_close_is_idempotent(self, tmp_path):
        sink = XmlDirectorySink(tmp_path, RuleRepository())
        sink.write(_record(cluster="only"))
        sink.close()
        sink.close()
        assert (tmp_path / "only.xml").read_text(
            encoding="utf-8"
        ).rstrip().endswith("</only>")


class TestSmallSinks:
    def test_collecting_sink_by_url(self):
        sink = CollectingSink()
        sink.write(_record(url="http://x/1"))
        sink.write(_record(url="http://x/2"))
        assert set(sink.by_url()) == {"http://x/1", "http://x/2"}

    def test_null_sink_counts(self):
        sink = NullSink()
        for _ in range(3):
            sink.write(_record())
        assert sink.count == 3

    def test_record_duck_types_as_page(self):
        record = _record(title=["A"])
        assert record.get("title") == ["A"]
        assert record.get("missing") == []
        assert record.raw_values == {}


class TestErrorRecords:
    def test_make_error_record_shapes(self):
        from repro.service.sink import make_error_record

        assert make_error_record("boom") == {"error": "boom"}
        assert make_error_record("boom", url="http://x/") == {
            "error": "boom", "url": "http://x/",
        }

    def test_make_unroutable_record_shape(self):
        from repro.service.sink import make_unroutable_record

        assert make_unroutable_record("http://x/") == {
            "url": "http://x/", "cluster": "unroutable",
            "values": {}, "failures": [],
        }
