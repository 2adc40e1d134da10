"""Sharded batch execution: planning, workers, deterministic merge."""

import io
import json

import pytest

from repro.errors import ShardMergeError, ShardPlanError
from repro.service.runtime import IterablePageSource, StreamingRuntime
from repro.service.shard import (
    ShardManifest,
    ShardMerger,
    ShardPlan,
    ShardPlanner,
    ShardWorker,
    XmlShardMerger,
    incomplete_shards,
    shard_basename,
    shard_statuses,
    stable_shard,
)
from repro.service.sink import CollectingSink, JsonlSink, XmlDirectorySink


@pytest.fixture(scope="module")
def corpus(service_site):
    """The ≥500-page site keyed by url (the shard page id)."""
    pages = list(service_site)
    return pages, {page.url: page for page in pages}


def _run_shards(plan, repository, by_url, tmp_path, shards=None,
                output_format="jsonl", **engine):
    directory = tmp_path / "shards"
    manifests = []
    for shard in shards if shards is not None else range(plan.shards):
        worker = ShardWorker(repository, plan, shard, **engine)
        manifest, _ = worker.run(
            lambda url: by_url[url], directory, output_format=output_format
        )
        manifests.append(manifest)
    return directory, manifests


def _unsharded_bytes(pages, repository, **engine):
    stream = io.StringIO()
    runtime = StreamingRuntime(repository, ordered=True, **engine)
    with JsonlSink(stream) as sink:
        runtime.run(IterablePageSource(pages), sink)
    return stream.getvalue()


class TestPlanner:
    def test_hash_strategy_is_stable_and_total(self):
        ids = [f"page-{i:04d}.html" for i in range(100)]
        plan = ShardPlanner(4, "hash").plan(ids)
        again = ShardPlanner(4, "hash").plan(ids)
        assert plan.assignments == again.assignments
        assert sorted(
            index for shard in range(4)
            for index, _ in plan.pages_for(shard)
        ) == list(range(100))
        # Stable hash: membership survives reordering of the corpus.
        assert stable_shard("page-0007.html", 4) == plan.assignments[7]

    def test_range_strategy_is_contiguous_and_balanced(self):
        ids = [f"p{i}" for i in range(10)]
        plan = ShardPlanner(3, "range").plan(ids)
        assert plan.assignments == sorted(plan.assignments)
        assert plan.shard_sizes() == [4, 3, 3]

    def test_single_page_corpus(self):
        plan = ShardPlanner(3, "range").plan(["only.html"])
        assert plan.shard_sizes().count(1) == 1
        assert sum(plan.shard_sizes()) == 1

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ShardPlanError):
            ShardPlanner(0)
        with pytest.raises(ShardPlanError):
            ShardPlanner(2, "modulo")
        with pytest.raises(ShardPlanError):
            ShardPlanner(2).plan(["a", "a"])
        with pytest.raises(ShardPlanError):
            ShardPlanner(2).plan(["a", "b"]).pages_for(5)

    def test_plan_roundtrips_through_json(self, tmp_path):
        plan = ShardPlanner(2, "hash").plan(["a.html", "b.html", "c.html"])
        path = tmp_path / "plan.json"
        plan.save(path)
        loaded = ShardPlan.load(path)
        assert loaded.assignments == plan.assignments
        assert loaded.page_ids == plan.page_ids
        assert loaded.corpus_digest == plan.corpus_digest

    def test_corrupt_plan_detected(self, tmp_path):
        plan = ShardPlanner(2, "hash").plan(["a.html", "b.html"])
        data = plan.to_dict()
        data["page_ids"] = ["a.html", "z.html"]  # digest now stale
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(ShardPlanError, match="digest mismatch"):
            ShardPlan.load(path)
        with pytest.raises(ShardPlanError, match="format"):
            ShardPlan.from_dict({**plan.to_dict(), "format": 99})


class TestOrderedEngine:
    def test_records_emitted_in_submission_index_order(
        self, service_site, service_repository
    ):
        pages = list(service_site)[:120]
        runtime = StreamingRuntime(
            service_repository, workers=4, chunk_size=7, ordered=True
        )
        sink = CollectingSink()
        runtime.run(IterablePageSource(pages), sink)
        indices = [record.index for record in sink.records]
        assert indices == sorted(indices)
        # Indices are stream positions: dropped pages leave gaps.
        by_index = {page.url: i for i, page in enumerate(pages)}
        for record in sink.records:
            assert record.index == by_index[record.url]


class TestWorker:
    def test_manifest_describes_the_shard(
        self, corpus, service_repository, tmp_path
    ):
        pages, by_url = corpus
        plan = ShardPlanner(3, "hash").plan([p.url for p in pages[:90]])
        directory, manifests = _run_shards(
            plan, service_repository, by_url, tmp_path, chunk_size=8
        )
        for manifest in manifests:
            assert manifest.strategy == "hash"
            assert manifest.corpus_digest == plan.corpus_digest
            assert manifest.pages == plan.shard_sizes()[manifest.shard]
            assert manifest.records <= manifest.pages
            path = directory / manifest.output
            lines = path.read_text(encoding="utf-8").splitlines()
            assert len(lines) == manifest.records
            indices = [json.loads(line)["index"] for line in lines]
            assert indices == sorted(indices)
            if indices:
                assert manifest.index_min <= indices[0]
                assert manifest.index_max >= indices[-1]
            loaded = ShardManifest.load(
                directory / f"{shard_basename(manifest.shard)}.manifest.json"
            )
            assert loaded == manifest

    def test_empty_shard_yields_empty_output_and_merges(
        self, corpus, service_repository, tmp_path
    ):
        pages, by_url = corpus
        # A 5-shard range plan over 3 pages leaves shards 3/4 empty.
        plan = ShardPlanner(5, "range").plan([p.url for p in pages[:3]])
        directory, manifests = _run_shards(
            plan, service_repository, by_url, tmp_path
        )
        empty = [m for m in manifests if m.pages == 0]
        assert len(empty) == 2
        for manifest in empty:
            assert manifest.records == 0
            assert manifest.index_min is None
            assert (directory / manifest.output).read_text("utf-8") == ""
        stream = io.StringIO()
        report = ShardMerger().merge([directory], stream)
        assert report.shards == 5
        assert report.records == len(stream.getvalue().splitlines())

    def test_single_page_corpus_shards_and_merges(
        self, corpus, service_repository, tmp_path
    ):
        pages, by_url = corpus
        plan = ShardPlanner(2, "hash").plan([pages[0].url])
        directory, _ = _run_shards(
            plan, service_repository, by_url, tmp_path
        )
        stream = io.StringIO()
        report = ShardMerger().merge([directory], stream)
        assert report.records == 1
        assert json.loads(stream.getvalue())["index"] == 0

    def test_shard_out_of_range_rejected(self, corpus, service_repository):
        pages, _ = corpus
        plan = ShardPlanner(2, "hash").plan([pages[0].url])
        with pytest.raises(ShardPlanError):
            ShardWorker(service_repository, plan, 2)

    def test_unreadable_pages_skipped_when_asked(
        self, corpus, service_repository, tmp_path
    ):
        pages, by_url = corpus
        plan = ShardPlanner(1, "range").plan([p.url for p in pages[:5]])

        def load(url):
            if url == pages[2].url:
                raise OSError("gone")
            return by_url[url]

        worker = ShardWorker(
            service_repository, plan, 0, skip_unreadable=True
        )
        manifest, _ = worker.run(load, tmp_path / "s")
        assert manifest.unreadable == 1
        assert manifest.records == 4
        strict = ShardWorker(service_repository, plan, 0)
        with pytest.raises(OSError):
            strict.run(load, tmp_path / "strict")


class TestMerge:
    def test_three_shards_byte_identical_to_unsharded(
        self, corpus, service_repository, tmp_path
    ):
        pages, by_url = corpus
        assert len(pages) >= 300
        plan = ShardPlanner(3, "hash").plan([p.url for p in pages])
        directory, _ = _run_shards(
            plan, service_repository, by_url, tmp_path, chunk_size=16,
        )
        stream = io.StringIO()
        ShardMerger().merge([directory], stream)
        # Inline shards against a process-pool unsharded run with other
        # chunking: submission order makes the bytes independent of the
        # executor and of chunk boundaries.
        expected = _unsharded_bytes(
            pages, service_repository, workers=3, chunk_size=11
        )
        assert stream.getvalue() == expected

    def test_manifest_order_does_not_matter(
        self, corpus, service_repository, tmp_path
    ):
        pages, by_url = corpus
        plan = ShardPlanner(3, "hash").plan([p.url for p in pages[:60]])
        directory, manifests = _run_shards(
            plan, service_repository, by_url, tmp_path
        )
        scrambled = [
            directory / f"{shard_basename(m.shard)}.manifest.json"
            for m in reversed(manifests)
        ]
        stream = io.StringIO()
        ShardMerger().merge(scrambled, stream)
        indices = [
            json.loads(line)["index"]
            for line in stream.getvalue().splitlines()
        ]
        assert indices == sorted(indices)

    def _shards(self, corpus, repository, tmp_path, shards=2, count=40):
        pages, by_url = corpus
        plan = ShardPlanner(shards, "hash").plan(
            [p.url for p in pages[:count]]
        )
        return _run_shards(plan, repository, by_url, tmp_path)

    def test_missing_shard_detected(
        self, corpus, service_repository, tmp_path
    ):
        directory, manifests = self._shards(
            corpus, service_repository, tmp_path
        )
        only = directory / f"{shard_basename(0)}.manifest.json"
        with pytest.raises(ShardMergeError, match="missing shard"):
            ShardMerger().merge([only], io.StringIO())

    def test_duplicate_shard_manifests_detected(
        self, corpus, service_repository, tmp_path
    ):
        directory, _ = self._shards(corpus, service_repository, tmp_path)
        manifest = directory / f"{shard_basename(0)}.manifest.json"
        duplicate = directory / "copy.manifest.json"
        duplicate.write_text(manifest.read_text("utf-8"), encoding="utf-8")
        with pytest.raises(ShardMergeError, match="duplicate shard"):
            ShardMerger().merge([directory], io.StringIO())

    def test_overlapping_shards_detected(
        self, corpus, service_repository, tmp_path
    ):
        pages, by_url = corpus
        plan = ShardPlanner(2, "hash").plan([p.url for p in pages[:40]])
        directory, _ = _run_shards(
            plan, service_repository, by_url, tmp_path
        )
        # Re-run shard 1 over shard 0's pages (assignments flipped):
        # same corpus, so manifests stay consistent, but shard 1's
        # output now repeats shard 0's submission indices.
        overlap = ShardPlan(
            shards=2, strategy=plan.strategy, page_ids=plan.page_ids,
            assignments=[1 - shard for shard in plan.assignments],
        )
        worker = ShardWorker(service_repository, overlap, 1)
        worker.run(lambda url: by_url[url], directory)
        with pytest.raises(ShardMergeError, match="overlapping"):
            ShardMerger().merge([directory], io.StringIO())

    def test_mismatched_plans_detected(
        self, corpus, service_repository, tmp_path
    ):
        directory, _ = self._shards(
            corpus, service_repository, tmp_path / "a", count=40
        )
        other, _ = self._shards(
            corpus, service_repository, tmp_path / "b", count=30
        )
        first = directory / f"{shard_basename(0)}.manifest.json"
        second = other / f"{shard_basename(1)}.manifest.json"
        with pytest.raises(ShardMergeError, match="corpus_digest"):
            ShardMerger().merge([first, second], io.StringIO())

    def test_out_of_order_shard_file_detected(
        self, corpus, service_repository, tmp_path
    ):
        directory, manifests = self._shards(
            corpus, service_repository, tmp_path
        )
        target = next(m for m in manifests if m.records >= 2)
        path = directory / target.output
        lines = path.read_text("utf-8").splitlines()
        lines[0], lines[1] = lines[1], lines[0]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ShardMergeError, match="out-of-order|digest"):
            ShardMerger().merge([directory], io.StringIO())
        with pytest.raises(ShardMergeError, match="out-of-order"):
            ShardMerger(verify_digests=False).merge(
                [directory], io.StringIO()
            )

    def test_tampered_output_digest_detected(
        self, corpus, service_repository, tmp_path
    ):
        directory, manifests = self._shards(
            corpus, service_repository, tmp_path
        )
        target = next(m for m in manifests if m.records >= 1)
        path = directory / target.output
        path.write_text(
            path.read_text("utf-8") + "\n", encoding="utf-8"
        )
        with pytest.raises(ShardMergeError, match="digest mismatch"):
            ShardMerger().merge([directory], io.StringIO())

    def test_record_count_mismatch_detected(
        self, corpus, service_repository, tmp_path
    ):
        directory, manifests = self._shards(
            corpus, service_repository, tmp_path
        )
        target = next(m for m in manifests if m.records >= 2)
        path = directory / target.output
        lines = path.read_text("utf-8").splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
        with pytest.raises(ShardMergeError, match="digest|record"):
            ShardMerger().merge([directory], io.StringIO())
        with pytest.raises(ShardMergeError, match="manifest declares"):
            ShardMerger(verify_digests=False).merge(
                [directory], io.StringIO()
            )

    def test_empty_inputs_rejected(self, tmp_path):
        with pytest.raises(ShardMergeError, match="no shard manifests"):
            ShardMerger().merge([tmp_path], io.StringIO())
        with pytest.raises(ShardMergeError, match="no shard manifests"):
            ShardMerger().merge([], io.StringIO())

    def test_missing_output_file_detected(
        self, corpus, service_repository, tmp_path
    ):
        directory, manifests = self._shards(
            corpus, service_repository, tmp_path
        )
        (directory / manifests[0].output).unlink()
        with pytest.raises(ShardMergeError, match="output missing"):
            ShardMerger().merge([directory], io.StringIO())


class TestXmlMerge:
    """XML shard outputs merged by their ``.index`` sidecars."""

    def _xml_shards(self, corpus, repository, tmp_path, shards=3, count=90):
        pages, by_url = corpus
        plan = ShardPlanner(shards, "hash").plan(
            [p.url for p in pages[:count]]
        )
        directory, manifests = _run_shards(
            plan, repository, by_url, tmp_path,
            output_format="xml", chunk_size=8,
        )
        return pages[:count], directory, manifests

    def test_merged_documents_byte_identical_to_unsharded(
        self, corpus, service_repository, tmp_path
    ):
        pages, directory, manifests = self._xml_shards(
            corpus, service_repository, tmp_path
        )
        for manifest in manifests:
            assert manifest.output_format == "xml"
            assert (directory / manifest.output).is_dir()
        merged_dir = tmp_path / "merged-xml"
        report = XmlShardMerger().merge([directory], merged_dir)
        # The unsharded reference: one ordered runtime into one XML
        # sink, different chunking (ordered emission makes the bytes
        # chunking-independent), no sidecars.
        reference_dir = tmp_path / "unsharded-xml"
        runtime = StreamingRuntime(
            service_repository, workers=3, chunk_size=11, ordered=True
        )
        with XmlDirectorySink(reference_dir, service_repository) as sink:
            runtime.run(IterablePageSource(pages), sink)
        expected = {
            path.name: path.read_bytes()
            for path in reference_dir.glob("*.xml")
        }
        produced = {
            path.name: path.read_bytes()
            for path in merged_dir.iterdir()
        }
        assert produced == expected  # same documents, same bytes
        assert report.records == sum(m.records for m in manifests)
        assert report.shards == len(manifests)

    def test_out_of_order_sidecar_detected(
        self, corpus, service_repository, tmp_path
    ):
        _, directory, manifests = self._xml_shards(
            corpus, service_repository, tmp_path
        )
        target = next(m for m in manifests if m.records >= 2)
        sidecars = sorted((directory / target.output).glob("*.index"))
        sidecar = next(
            path for path in sidecars
            if len(path.read_text("ascii").splitlines()) >= 2
        )
        lines = sidecar.read_text("ascii").splitlines()
        lines[0], lines[1] = lines[1], lines[0]
        sidecar.write_text("\n".join(lines) + "\n", encoding="ascii")
        with pytest.raises(ShardMergeError, match="out-of-order|digest"):
            XmlShardMerger().merge([directory], tmp_path / "out")
        with pytest.raises(ShardMergeError, match="out-of-order"):
            XmlShardMerger(verify_digests=False).merge(
                [directory], tmp_path / "out"
            )

    def test_overlapping_xml_shards_detected(
        self, corpus, service_repository, tmp_path
    ):
        pages, by_url = corpus
        plan = ShardPlanner(2, "hash").plan([p.url for p in pages[:40]])
        directory, _ = _run_shards(
            plan, service_repository, by_url, tmp_path, output_format="xml"
        )
        # Re-run shard 1 over shard 0's pages: same corpus digest, but
        # shard 1's sidecars now repeat shard 0's submission indices.
        overlap = ShardPlan(
            shards=2, strategy=plan.strategy, page_ids=plan.page_ids,
            assignments=[1 - shard for shard in plan.assignments],
        )
        worker = ShardWorker(service_repository, overlap, 1)
        worker.run(lambda url: by_url[url], directory, output_format="xml")
        with pytest.raises(ShardMergeError, match="overlapping"):
            XmlShardMerger().merge([directory], tmp_path / "out")

    def test_tampered_xml_output_digest_detected(
        self, corpus, service_repository, tmp_path
    ):
        _, directory, manifests = self._xml_shards(
            corpus, service_repository, tmp_path
        )
        target = next(m for m in manifests if m.records >= 1)
        document = next((directory / target.output).glob("*.xml"))
        document.write_bytes(document.read_bytes() + b"<!-- -->\n")
        with pytest.raises(ShardMergeError, match="digest mismatch"):
            XmlShardMerger().merge([directory], tmp_path / "out")

    def test_missing_sidecar_detected(
        self, corpus, service_repository, tmp_path
    ):
        _, directory, manifests = self._xml_shards(
            corpus, service_repository, tmp_path
        )
        target = next(m for m in manifests if m.records >= 1)
        next((directory / target.output).glob("*.index")).unlink()
        with pytest.raises(ShardMergeError, match="sidecar missing"):
            XmlShardMerger(verify_digests=False).merge(
                [directory], tmp_path / "out"
            )

    def test_sidecar_element_count_mismatch_detected(
        self, corpus, service_repository, tmp_path
    ):
        _, directory, manifests = self._xml_shards(
            corpus, service_repository, tmp_path
        )
        target = next(m for m in manifests if m.records >= 2)
        sidecar = next(
            path for path in (directory / target.output).glob("*.index")
            if len(path.read_text("ascii").splitlines()) >= 2
        )
        lines = sidecar.read_text("ascii").splitlines()
        sidecar.write_text("\n".join(lines[:-1]) + "\n", encoding="ascii")
        with pytest.raises(ShardMergeError, match="sidecar index"):
            XmlShardMerger(verify_digests=False).merge(
                [directory], tmp_path / "out"
            )

    def test_header_mismatch_detected(
        self, corpus, service_repository, tmp_path
    ):
        _, directory, manifests = self._xml_shards(
            corpus, service_repository, tmp_path
        )
        # A cluster served by at least two shards, so headers compare.
        documents = [
            directory / manifest.output / "imdb-movies.xml"
            for manifest in manifests
            if (directory / manifest.output / "imdb-movies.xml").exists()
        ]
        assert len(documents) >= 2
        victim = documents[1]
        lines = victim.read_bytes().decode("latin-1").splitlines()
        lines[0] = '<?xml version="1.0" encoding="UTF-8"?>'
        victim.write_bytes(("\n".join(lines) + "\n").encode("latin-1"))
        with pytest.raises(ShardMergeError, match="header differs"):
            XmlShardMerger(verify_digests=False).merge(
                [directory], tmp_path / "out"
            )

    def test_stray_lines_between_elements_detected(
        self, corpus, service_repository, tmp_path
    ):
        _, directory, manifests = self._xml_shards(
            corpus, service_repository, tmp_path
        )
        target = next(m for m in manifests if m.records >= 1)
        document = next((directory / target.output).glob("*.xml"))
        lines = document.read_bytes().decode("latin-1").splitlines()
        lines.insert(2, "<!-- interloper -->")
        document.write_bytes(("\n".join(lines) + "\n").encode("latin-1"))
        with pytest.raises(ShardMergeError, match="unexpected line"):
            XmlShardMerger(verify_digests=False).merge(
                [directory], tmp_path / "out"
            )

    def test_format_mismatch_rejected_both_ways(
        self, corpus, service_repository, tmp_path
    ):
        pages, by_url = corpus
        plan = ShardPlanner(2, "hash").plan([p.url for p in pages[:20]])
        jsonl_dir, _ = _run_shards(
            plan, service_repository, by_url, tmp_path / "jsonl"
        )
        xml_dir, _ = _run_shards(
            plan, service_repository, by_url, tmp_path / "xml",
            output_format="xml",
        )
        with pytest.raises(ShardMergeError, match="cannot join"):
            XmlShardMerger().merge([jsonl_dir], tmp_path / "out")
        with pytest.raises(ShardMergeError, match="cannot join"):
            ShardMerger().merge([xml_dir], io.StringIO())

    def test_element_streaming_preserves_exotic_line_boundary_bytes(
        self, tmp_path
    ):
        # escape_text leaves NEL/VT/CR in values; splitting documents
        # anywhere but '\n' would rewrite those bytes and break the
        # merged-vs-unsharded byte identity.
        element = (
            b'  <thing uri="http://x/">\n'
            b"    <name>nel\x85vt\x0bcr\rdone</name>\n"
            b"  </thing>\n"
        )
        document = tmp_path / "things.xml"
        document.write_bytes(
            b'<?xml version="1.0" encoding="ISO-8859-1"?>\n'
            b"<things>\n" + element + b"</things>\n"
        )
        merger = XmlShardMerger()
        ((index, lines),) = list(
            merger._indexed_elements(document, [7], "things")
        )
        assert index == 7
        assert b"".join(lines) == element

    def test_unknown_output_format_rejected(
        self, corpus, service_repository
    ):
        pages, by_url = corpus
        plan = ShardPlanner(1, "range").plan([pages[0].url])
        worker = ShardWorker(service_repository, plan, 0)
        with pytest.raises(ShardPlanError, match="output format"):
            worker.run(lambda url: by_url[url], "unused",
                       output_format="parquet")


class TestResume:
    """Audit an output directory against a plan; re-run only the gaps."""

    def _completed(self, corpus, repository, tmp_path, shards=3, count=60):
        pages, by_url = corpus
        plan = ShardPlanner(shards, "hash").plan(
            [p.url for p in pages[:count]]
        )
        directory, manifests = _run_shards(
            plan, repository, by_url, tmp_path
        )
        return plan, by_url, directory, manifests

    def test_complete_directory_reports_nothing_to_do(
        self, corpus, service_repository, tmp_path
    ):
        plan, _, directory, _ = self._completed(
            corpus, service_repository, tmp_path
        )
        statuses = shard_statuses(plan, directory)
        assert all(status.complete for status in statuses)
        assert incomplete_shards(plan, directory) == []

    def test_missing_and_corrupt_shards_are_found_and_rerunnable(
        self, corpus, service_repository, tmp_path
    ):
        plan, by_url, directory, manifests = self._completed(
            corpus, service_repository, tmp_path
        )
        # Shard 0: manifest gone (host never finished).  Shard 1:
        # output tampered (died mid-write / disk corruption).
        (directory / f"{shard_basename(0)}.manifest.json").unlink()
        tampered = directory / manifests[1].output
        tampered.write_text(
            tampered.read_text("utf-8") + "\n", encoding="utf-8"
        )
        pending = incomplete_shards(plan, directory)
        assert [(s.shard, s.reason) for s in pending] == [
            (0, "manifest missing"),
            (1, "output digest mismatch"),
        ]
        # Re-running exactly those shards restores a mergeable set.
        for status in pending:
            ShardWorker(service_repository, plan, status.shard).run(
                lambda url: by_url[url], directory
            )
        assert incomplete_shards(plan, directory) == []
        stream = io.StringIO()
        report = ShardMerger().merge([directory], stream)
        assert report.shards == plan.shards

    def test_no_verify_trusts_tampered_output(
        self, corpus, service_repository, tmp_path
    ):
        plan, _, directory, manifests = self._completed(
            corpus, service_repository, tmp_path
        )
        tampered = directory / manifests[0].output
        tampered.write_text(
            tampered.read_text("utf-8") + "\n", encoding="utf-8"
        )
        assert incomplete_shards(plan, directory, verify_digests=False) == []
        pending = incomplete_shards(plan, directory)
        assert [s.shard for s in pending] == [manifests[0].shard]

    def test_missing_output_and_foreign_plan_detected(
        self, corpus, service_repository, tmp_path
    ):
        plan, _, directory, manifests = self._completed(
            corpus, service_repository, tmp_path
        )
        (directory / manifests[2].output).unlink()
        statuses = {s.shard: s for s in incomplete_shards(plan, directory)}
        assert statuses[2].reason == "output missing"
        # A different plan over a different corpus slice: every
        # manifest in the directory is foreign to it.
        pages, _ = corpus
        other = ShardPlanner(plan.shards, "hash").plan(
            [p.url for p in pages[:10]]
        )
        pending = incomplete_shards(other, directory)
        assert [s.reason for s in pending] == (
            ["manifest from another plan"] * plan.shards
        )

    def test_unreadable_manifest_detected(
        self, corpus, service_repository, tmp_path
    ):
        plan, _, directory, _ = self._completed(
            corpus, service_repository, tmp_path
        )
        path = directory / f"{shard_basename(1)}.manifest.json"
        path.write_text("{not json", encoding="utf-8")
        statuses = {s.shard: s for s in incomplete_shards(plan, directory)}
        assert "manifest unreadable" in statuses[1].reason
        # Valid JSON that is not an object (a half-written file) must
        # read as malformed too, not crash the audit.
        for corrupt in ("null", "3", '"abc"', "[]"):
            path.write_text(corrupt, encoding="utf-8")
            statuses = {
                s.shard: s for s in incomplete_shards(plan, directory)
            }
            assert "manifest" in statuses[1].reason, corrupt
            with pytest.raises(ShardMergeError):
                ShardManifest.load(path)

    def test_misfiled_manifest_detected(
        self, corpus, service_repository, tmp_path
    ):
        plan, _, directory, _ = self._completed(
            corpus, service_repository, tmp_path
        )
        shard0 = directory / f"{shard_basename(0)}.manifest.json"
        shard2 = directory / f"{shard_basename(2)}.manifest.json"
        shard2.write_text(shard0.read_text("utf-8"), encoding="utf-8")
        statuses = {s.shard: s for s in incomplete_shards(plan, directory)}
        assert statuses[2].reason == "manifest describes shard 0"
