"""Incremental result sinks: bounded-memory output for huge runs.

The streaming runtime writes :class:`PageRecord` objects into a sink
as soon as each chunk completes, so a million-page run holds at most a
few in-flight chunks in memory.  Sinks carry extraction records only:
an extraction exception ends a batch or shard run, and ``serve``
answers it with a :func:`make_error_record` line of its own.  Two
serialisations are provided:

* :class:`JsonlSink` — one JSON object per line, the natural format
  for piping into downstream loaders;
* :class:`XmlDirectorySink` — one Figure-5 XML document per cluster,
  written element-by-element (prolog on first record, closing tag on
  ``close()``), honouring recorded aggregations.

:class:`CollectingSink` (tests, small runs) and :class:`NullSink`
(throughput measurement) complete the set.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Optional, Union

from repro.core.repository import RuleRepository
from repro.extraction.xml_writer import (
    cluster_plan,
    page_element_name,
    render_page_xml,
)


def make_error_record(message: str, url: Optional[str] = None) -> dict:
    """The one shape of an error record, everywhere.

    ``serve`` (both front-ends), :meth:`~repro.service.runtime.
    StreamingRuntime.process_page` and the multi-worker gateway emit
    page-level errors through this helper so the field names
    (``error``, optional ``url``) can never drift between entry points.
    """
    record: dict = {"error": message}
    if url is not None:
        record["url"] = url
    return record


def make_unroutable_record(url: str, cluster: str = "unroutable") -> dict:
    """The record emitted for a page no wrapper can serve.

    Shaped like a served record (``url``/``cluster``/``values``/
    ``failures``) so downstream consumers see one schema; the cluster
    name marks the auditable gap.
    """
    return {"url": url, "cluster": cluster, "values": {}, "failures": []}


@dataclass
class PageRecord:
    """One served page: routed cluster plus extracted values.

    A slim, pickleable projection of
    :class:`~repro.extraction.extractor.ExtractedPage` — raw DOM nodes
    stay in the worker; only component name -> text values and detected
    failures cross the executor boundary.
    """

    url: str
    cluster: str
    values: dict[str, list[str]] = field(default_factory=dict)
    failures: list[tuple[str, str]] = field(default_factory=list)

    #: Global submission index: the page's 0-based position in the
    #: input stream (``-1`` when the producer did not assign one).
    #: Shard merging sorts on this (:mod:`repro.service.shard`).
    index: int = -1

    #: Raw node values never cross the service boundary; kept as an
    #: attribute so the record duck-types as a page for the XML writer.
    raw_values: dict = field(default_factory=dict, repr=False)

    def get(self, component_name: str) -> list[str]:
        """Values extracted for ``component_name`` (empty when none)."""
        return self.values.get(component_name, [])

    def to_dict(self) -> dict:
        """The record as the JSONL payload (raw values excluded)."""
        return {
            "url": self.url,
            "cluster": self.cluster,
            "index": self.index,
            "values": self.values,
            "failures": [list(failure) for failure in self.failures],
        }


class ResultSink:
    """Base sink: ``write`` records, ``close`` once, context-managed."""

    def write(self, record: PageRecord) -> None:  # pragma: no cover
        """Accept one extracted record (must be overridden)."""
        raise NotImplementedError

    def close(self) -> None:
        """Flush and release resources (idempotent)."""

    def __enter__(self) -> "ResultSink":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class NullSink(ResultSink):
    """Discards records (throughput benchmarking)."""

    def __init__(self) -> None:
        self.count = 0

    def write(self, record: PageRecord) -> None:
        """Count the record and drop it."""
        self.count += 1


class CollectingSink(ResultSink):
    """Keeps every record in memory — tests and small batches only."""

    def __init__(self) -> None:
        self.records: list[PageRecord] = []

    def write(self, record: PageRecord) -> None:
        """Keep the record in memory."""
        self.records.append(record)

    def by_url(self) -> dict[str, PageRecord]:
        """The collected records keyed by page URL."""
        return {record.url: record for record in self.records}


class JsonlSink(ResultSink):
    """One JSON object per record, written (and flushable) incrementally.

    Args:
        target: a path (opened/closed by the sink) or an open text
            stream (borrowed; not closed).
        flush_every: flush the stream every N records; 0 disables.
    """

    def __init__(
        self, target: Union[str, Path, IO[str]], flush_every: int = 0
    ) -> None:
        if isinstance(target, (str, Path)):
            self._stream: IO[str] = open(target, "w", encoding="utf-8")
            self._owns_stream = True
        else:
            self._stream = target
            self._owns_stream = False
        self.flush_every = flush_every
        self.count = 0

    def write(self, record: PageRecord) -> None:
        """Append the record as one JSON line."""
        self._stream.write(json.dumps(record.to_dict(), sort_keys=True))
        self._stream.write("\n")
        self.count += 1
        if self.flush_every and self.count % self.flush_every == 0:
            self._stream.flush()

    def close(self) -> None:
        """Close an owned stream; flush a borrowed one."""
        if self._owns_stream and not self._stream.closed:
            self._stream.close()
        elif not self._owns_stream:
            try:
                self._stream.flush()
            except ValueError:  # pragma: no cover - closed borrowed stream
                pass


class XmlDirectorySink(ResultSink):
    """Per-cluster Figure-5 XML documents, streamed element-by-element.

    ``<directory>/<cluster>.xml`` is opened lazily on the cluster's
    first record; page elements append as records arrive; ``close()``
    writes every closing root tag.  Component order and aggregation
    nesting come from the repository, exactly as
    :func:`~repro.extraction.xml_writer.write_cluster_xml` renders
    them, so a streamed document is byte-identical to the batch one
    for the same records in the same order.

    Args:
        record_indices: also write a ``<cluster>.index`` sidecar — one
            decimal submission index per line, in page-element order —
            so sharded XML outputs stay mergeable without perturbing
            the Figure-5 bytes themselves.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        repository: RuleRepository,
        indent: str = "  ",
        encoding: str = "ISO-8859-1",
        record_indices: bool = False,
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.repository = repository
        self.indent = indent
        self.encoding = encoding
        self.record_indices = record_indices
        self._streams: dict[str, IO[str]] = {}
        self._index_streams: dict[str, IO[str]] = {}
        self._plans: dict[str, list] = {}
        self._opened: set[str] = set()

    def _stream_for(self, cluster: str) -> IO[str]:
        stream = self._streams.get(cluster)
        if stream is None:
            # The file is written in the encoding its prolog declares;
            # characters outside it become XML character references,
            # which any conforming parser restores losslessly.
            stream = open(
                self.directory / f"{cluster}.xml", "w",
                encoding=self.encoding, errors="xmlcharrefreplace",
            )
            stream.write(
                f'<?xml version="1.0" encoding="{self.encoding}"?>\n'
            )
            stream.write(f"<{cluster}>\n")
            self._streams[cluster] = stream
            self._plans[cluster] = cluster_plan(self.repository, cluster)
            self._opened.add(cluster)
        return stream

    def write(self, record: PageRecord) -> None:
        """Render the record into its cluster's XML document."""
        stream = self._stream_for(record.cluster)
        plan = self._plans[record.cluster]
        if not plan and record.values:
            # Cluster unknown to the repository: flat plan in the
            # record's own component order.
            plan = [(name, None) for name in record.values]
        child = page_element_name(record.cluster)
        for line in render_page_xml(record, plan, child, indent=self.indent):
            stream.write(line)
            stream.write("\n")
        if self.record_indices:
            index_stream = self._index_streams.get(record.cluster)
            if index_stream is None:
                index_stream = open(
                    self.directory / f"{record.cluster}.index", "w",
                    encoding="ascii",
                )
                self._index_streams[record.cluster] = index_stream
            index_stream.write(f"{record.index}\n")

    def close(self) -> None:
        """Close every document (writing root end-tags) and index."""
        for cluster, stream in self._streams.items():
            if not stream.closed:
                stream.write(f"</{cluster}>\n")
                stream.close()
        self._streams.clear()
        for stream in self._index_streams.values():
            if not stream.closed:
                stream.close()
        self._index_streams.clear()

    def paths(self) -> dict[str, Path]:
        """Cluster name -> path of every document this sink has opened."""
        return {
            cluster: self.directory / f"{cluster}.xml"
            for cluster in sorted(self._opened)
        }
