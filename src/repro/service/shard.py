"""Multi-host sharded batch execution with a deterministic merge.

The :class:`~repro.service.runtime.StreamingRuntime` stamps every
record with its **global submission index** (stream position) and, in
``ordered`` mode, emits records in index order.  That makes scaling a
batch run over many hosts a three-step protocol with *no coordinator
process*:

1. **plan** — :class:`ShardPlanner` splits the corpus (a sorted list
   of page ids) into N deterministic shards, either by stable hash of
   the page id (balanced, order-free) or by contiguous index ranges
   (locality-friendly).  The plan is a small JSON file every host can
   share.
2. **run** — :class:`ShardWorker` executes one shard through an
   ordered :class:`~repro.service.runtime.StreamingRuntime` (a
   :class:`~repro.service.runtime.LoadingPageSource` carries the
   plan's global indices straight onto the records), writing a JSONL
   or per-cluster XML output plus a self-describing
   :class:`ShardManifest` (shard id, submission-index range,
   per-cluster stats, content digest) next to it.
3. **merge** — :class:`ShardMerger` mergesorts any set of JSONL shard
   outputs by global submission index into a single stream that is
   byte-identical to an unsharded ordered run over the same corpus,
   verifying manifests and detecting missing, duplicate and
   overlapping shards along the way.  :class:`XmlShardMerger` does the
   same for XML outputs, fed by the XML sink's ``.index`` sidecars.

A failed or lost host never forces a full re-run:
:func:`incomplete_shards` inspects an output directory against the
plan and names exactly the shards whose manifests are missing, stale
or corrupt — ``shard resume`` re-executes only those.

Because every worker routes with the same deterministically fitted
router and extracts with the same compiled wrappers, shard outputs are
a pure partition of the unsharded output — the merge is a k-way
mergesort, nothing more.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, IO, Iterable, Iterator, Optional, Union

from repro.core.repository import RuleRepository
from repro.errors import ShardMergeError, ShardPlanError
from repro.extraction.postprocess import PostProcessor
from repro.extraction.xml_writer import page_element_name
from repro.service.router import ClusterRouter
from repro.service.runtime import (
    LoadingPageSource,
    RuntimeReport,
    StreamingRuntime,
)
from repro.service.sink import JsonlSink, XmlDirectorySink
from repro.sites.page import WebPage

PLAN_FORMAT = 1
MANIFEST_FORMAT = 1

STRATEGIES = ("hash", "range")
OUTPUT_FORMATS = ("jsonl", "xml")


def stable_shard(page_id: str, shards: int) -> int:
    """Deterministic shard for a page id (stable across hosts/runs).

    Uses the first 8 bytes of SHA-256 — unlike :func:`hash`, identical
    on every Python process regardless of ``PYTHONHASHSEED``.
    """
    digest = hashlib.sha256(page_id.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % shards


def _corpus_digest(page_ids: list[str]) -> str:
    hasher = hashlib.sha256()
    for page_id in page_ids:
        hasher.update(page_id.encode("utf-8"))
        hasher.update(b"\x00")
    return hasher.hexdigest()


def _file_sha256(path: Path) -> str:
    hasher = hashlib.sha256()
    with open(path, "rb") as stream:
        for block in iter(lambda: stream.read(1 << 16), b""):
            hasher.update(block)
    return hasher.hexdigest()


def _tree_sha256(directory: Path) -> str:
    """Content digest of a directory: every file, name-keyed, sorted.

    The XML output of one shard is a *directory* (per-cluster document
    + ``.index`` sidecar); this is its manifest digest, stable across
    hosts and filesystems because iteration is name-sorted.
    """
    hasher = hashlib.sha256()
    for path in sorted(directory.rglob("*")):
        if not path.is_file():
            continue
        hasher.update(path.relative_to(directory).as_posix().encode("utf-8"))
        hasher.update(b"\x00")
        with open(path, "rb") as stream:
            for block in iter(lambda: stream.read(1 << 16), b""):
                hasher.update(block)
        hasher.update(b"\x00")
    return hasher.hexdigest()


# --------------------------------------------------------------------- #
# Planning
# --------------------------------------------------------------------- #


@dataclass
class ShardPlan:
    """A deterministic corpus split: page id -> (index, shard).

    ``page_ids`` is the corpus in submission order — position *is* the
    global submission index; ``assignments[i]`` is the shard that
    serves index ``i``.
    """

    shards: int
    strategy: str
    page_ids: list[str]
    assignments: list[int]

    @property
    def corpus_digest(self) -> str:
        """Fingerprint of the ordered corpus (shared by manifests)."""
        return _corpus_digest(self.page_ids)

    def pages_for(self, shard: int) -> list[tuple[int, str]]:
        """This shard's ``(global index, page id)`` pairs, index order."""
        if not 0 <= shard < self.shards:
            raise ShardPlanError(
                f"shard {shard} out of range for a {self.shards}-shard plan"
            )
        return [
            (index, page_id)
            for index, page_id in enumerate(self.page_ids)
            if self.assignments[index] == shard
        ]

    def shard_sizes(self) -> list[int]:
        """Pages assigned to each shard, indexed by shard number."""
        sizes = [0] * self.shards
        for shard in self.assignments:
            sizes[shard] += 1
        return sizes

    def to_dict(self) -> dict:
        """The JSON object ``save`` writes."""
        return {
            "format": PLAN_FORMAT,
            "shards": self.shards,
            "strategy": self.strategy,
            "corpus_digest": self.corpus_digest,
            "page_ids": self.page_ids,
            "assignments": self.assignments,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ShardPlan":
        """Parse a plan object (raises ``ShardPlanError``)."""
        try:
            plan = cls(
                shards=data["shards"],
                strategy=data["strategy"],
                page_ids=list(data["page_ids"]),
                assignments=list(data["assignments"]),
            )
        except (KeyError, TypeError) as exc:
            raise ShardPlanError(f"malformed shard plan: {exc}") from exc
        if data.get("format") != PLAN_FORMAT:
            raise ShardPlanError(
                f"unsupported shard plan format {data.get('format')!r}"
            )
        if len(plan.page_ids) != len(plan.assignments):
            raise ShardPlanError(
                "shard plan page_ids/assignments length mismatch"
            )
        if plan.assignments and not all(
            0 <= shard < plan.shards for shard in plan.assignments
        ):
            raise ShardPlanError("shard plan assignment out of range")
        recorded = data.get("corpus_digest")
        if recorded is not None and recorded != plan.corpus_digest:
            raise ShardPlanError(
                "shard plan corpus digest mismatch (corrupt or edited plan)"
            )
        return plan

    def save(self, path: Union[str, Path]) -> None:
        """Write the plan as pretty-printed JSON."""
        Path(path).write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ShardPlan":
        """Read a plan written by :meth:`save`."""
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ShardPlanError(
                f"cannot load shard plan {path}: {exc}"
            ) from exc
        return cls.from_dict(data)


class ShardPlanner:
    """Split a corpus into N deterministic shards.

    Strategies:

    * ``"hash"`` — shard by stable hash of the page id.  Balanced in
      expectation, independent of corpus order: adding pages never
      moves existing ones between shards (mod churn aside).
    * ``"range"`` — contiguous index ranges of near-equal size.  Best
      locality for workers that stream neighbouring files.
    """

    def __init__(self, shards: int, strategy: str = "hash") -> None:
        if shards < 1:
            raise ShardPlanError("shards must be >= 1")
        if strategy not in STRATEGIES:
            raise ShardPlanError(
                f"unknown shard strategy {strategy!r} "
                f"(expected one of {', '.join(STRATEGIES)})"
            )
        self.shards = shards
        self.strategy = strategy

    def plan(self, page_ids: Iterable[str]) -> ShardPlan:
        """Assign ``page_ids`` to shards deterministically."""
        ids = list(page_ids)
        if len(set(ids)) != len(ids):
            raise ShardPlanError("corpus contains duplicate page ids")
        if self.strategy == "hash":
            assignments = [
                stable_shard(page_id, self.shards) for page_id in ids
            ]
        else:
            assignments = []
            if ids:
                per_shard, extra = divmod(len(ids), self.shards)
                for shard in range(self.shards):
                    size = per_shard + (1 if shard < extra else 0)
                    assignments.extend([shard] * size)
        return ShardPlan(
            shards=self.shards, strategy=self.strategy,
            page_ids=ids, assignments=assignments,
        )


# --------------------------------------------------------------------- #
# Workers
# --------------------------------------------------------------------- #


@dataclass
class ShardManifest:
    """Self-describing metadata written next to one shard's output."""

    shard: int
    shards: int
    strategy: str
    corpus_digest: str
    output: str
    sha256: str
    #: ``"jsonl"`` (one file) or ``"xml"`` (a directory of per-cluster
    #: documents + ``.index`` sidecars); absent in pre-format-field
    #: manifests, which were always JSONL.
    output_format: str = "jsonl"
    pages: int = 0
    records: int = 0
    index_min: Optional[int] = None
    index_max: Optional[int] = None
    unroutable: int = 0
    skipped: int = 0
    unreadable: int = 0
    #: Drift events / refits this shard's adaptive router performed
    #: (0 for non-adaptive runs; pre-adaptation manifests omit them).
    drift_events: int = 0
    refits: int = 0
    #: Registry version id of the artifact this shard ran against
    #: (``None`` for registry-less runs; pre-registry manifests omit
    #: it).  Merge/resume refuse to mix shards across versions.
    artifact_version: Optional[str] = None
    #: ``True`` for a cooperative-cancellation checkpoint (SIGINT mid
    #: run): the output is valid, line-complete, and digest-matched,
    #: but covers only a prefix of the slice.  ``shard resume`` re-runs
    #: the shard; merge refuses it.  Pre-cancellation manifests omit
    #: the field (they were always complete).
    interrupted: bool = False
    wall_seconds: float = 0.0
    per_cluster: Dict[str, dict] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """The JSON object ``save`` writes."""
        return {"format": MANIFEST_FORMAT, **self.__dict__}

    @classmethod
    def from_dict(cls, data: dict) -> "ShardManifest":
        # Valid JSON need not be an object: a half-written manifest
        # holding `null`/a number/a list must read as malformed, not
        # crash the resume audit whose job is to catch exactly that.
        """Parse a manifest object (raises ``ShardMergeError``)."""
        try:
            payload = dict(data)
        except (TypeError, ValueError) as exc:
            raise ShardMergeError(f"malformed shard manifest: {exc}") from exc
        recorded = payload.pop("format", None)
        if recorded != MANIFEST_FORMAT:
            raise ShardMergeError(
                f"unsupported shard manifest format {recorded!r}"
            )
        try:
            return cls(**payload)
        except TypeError as exc:
            raise ShardMergeError(f"malformed shard manifest: {exc}") from exc

    def save(self, path: Union[str, Path]) -> None:
        """Write the manifest as pretty-printed JSON."""
        Path(path).write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ShardManifest":
        """Read a manifest written by :meth:`save`."""
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ShardMergeError(
                f"cannot load shard manifest {path}: {exc}"
            ) from exc
        return cls.from_dict(data)


@dataclass
class SliceCheckpoint:
    """In-memory manifest for one gateway batch slice.

    The multi-worker gateway's re-run contract is this layer's
    interrupted checkpoint scaled down to one request: a slice whose
    worker died mid-stream is marked interrupted — its partial records
    dropped, because a retried slice must never half-emit — and
    re-posted elsewhere from the recorded payload.  Extraction is
    deterministic per line, so the re-run reproduces the original
    slice byte for byte and the merged stream stays identical to a
    single-process ``batch`` run.
    """

    index: int
    start_line: int
    lines: int
    #: The slice's raw request bytes: everything a re-run needs.
    payload: bytes = b""
    attempts: int = 0
    interrupted: bool = False
    records: list = field(default_factory=list)

    def begin_attempt(self) -> int:
        """Mark one (re-)run starting; returns the attempt ordinal."""
        self.attempts += 1
        self.interrupted = False
        return self.attempts

    def interrupt(self) -> None:
        """The serving worker died mid-slice: drop partial output."""
        self.records.clear()
        self.interrupted = True

    def complete(self, records) -> None:
        """One full, ordered record set for the slice."""
        self.records = list(records)
        self.interrupted = False

    def to_manifest_dict(self) -> dict:
        """The checkpoint as a manifest-shaped JSON object (logs)."""
        return {
            "slice": self.index,
            "start_line": self.start_line,
            "lines": self.lines,
            "attempts": self.attempts,
            "interrupted": self.interrupted,
            "records": len(self.records),
        }


def shard_basename(shard: int) -> str:
    """The canonical file stem for ``shard`` (``shard-0007``)."""
    return f"shard-{shard:04d}"


class ShardWorker:
    """Run one shard of a plan through an ordered streaming runtime.

    Pages are materialised lazily through ``load_page`` (a
    :class:`~repro.service.runtime.LoadingPageSource` over the plan
    slice) so a worker holds only its in-flight window in memory,
    exactly like ``batch``.  Runtime parameters mirror
    :class:`~repro.service.runtime.StreamingRuntime`; every worker of a
    run should use identical ones (and an identically fitted router) so
    the shard outputs partition the unsharded output.
    """

    def __init__(
        self,
        repository: RuleRepository,
        plan: ShardPlan,
        shard: int,
        router: Optional[ClusterRouter] = None,
        postprocessor: Optional[PostProcessor] = None,
        workers: int = 2,
        executor: str = "thread",
        chunk_size: int = 16,
        skip_unreadable: bool = False,
        adapter=None,
        metrics=None,
    ) -> None:
        if not 0 <= shard < plan.shards:
            raise ShardPlanError(
                f"shard {shard} out of range for a {plan.shards}-shard plan"
            )
        self.repository = repository
        self.plan = plan
        self.shard = shard
        self.skip_unreadable = skip_unreadable
        # Adaptive shards refit from their own slice only; outputs then
        # depend on slice-local traffic, so byte-identity with an
        # unsharded run holds only while no refit fires (manifests
        # record the counts for exactly this audit).
        self.runtime = StreamingRuntime(
            repository,
            router=router,
            postprocessor=postprocessor,
            workers=workers,
            executor=executor,
            chunk_size=chunk_size,
            ordered=True,
            adapter=adapter,
            metrics=metrics,
        )

    def run(
        self,
        load_page: Callable[[str], WebPage],
        output_dir: Union[str, Path],
        output_format: str = "jsonl",
        artifact_version: Optional[str] = None,
        cancel=None,
        on_progress=None,
    ) -> tuple[ShardManifest, RuntimeReport]:
        """Extract this shard; write output + manifest into ``output_dir``.

        ``output_format="jsonl"`` writes one ``shard-NNNN.jsonl`` file;
        ``"xml"`` writes a ``shard-NNNN.xml.d`` directory of per-cluster
        Figure-5 documents with ``.index`` sidecars (what
        :class:`XmlShardMerger` consumes).  Returns the saved manifest
        and the runtime's run report.

        ``cancel`` (a :class:`~repro.service.metrics.CancellationToken`)
        checkpoints the shard cooperatively: in-flight pages drain, the
        partial output is digested and its manifest saved with
        ``interrupted=True`` — the resume audit re-runs exactly those
        shards.  ``on_progress`` is the runtime's progress callback.
        """
        if output_format not in OUTPUT_FORMATS:
            raise ShardPlanError(
                f"unknown shard output format {output_format!r} "
                f"(expected one of {', '.join(OUTPUT_FORMATS)})"
            )
        directory = Path(output_dir)
        directory.mkdir(parents=True, exist_ok=True)
        base = shard_basename(self.shard)
        assigned = self.plan.pages_for(self.shard)
        source = LoadingPageSource(
            assigned, load_page, skip_unreadable=self.skip_unreadable
        )
        started = time.perf_counter()
        if output_format == "xml":
            output_path = directory / f"{base}.xml.d"
            with XmlDirectorySink(
                output_path, self.repository, record_indices=True
            ) as sink:
                report = self.runtime.run(
                    source, sink, cancel=cancel, on_progress=on_progress
                )
            records = report.pages_served
            digest = _tree_sha256(output_path)
        else:
            output_path = directory / f"{base}.jsonl"
            with JsonlSink(output_path) as jsonl:
                report = self.runtime.run(
                    source, jsonl, cancel=cancel, on_progress=on_progress
                )
                records = jsonl.count
            digest = _file_sha256(output_path)
        manifest = ShardManifest(
            shard=self.shard,
            shards=self.plan.shards,
            strategy=self.plan.strategy,
            corpus_digest=self.plan.corpus_digest,
            output=output_path.name,
            sha256=digest,
            output_format=output_format,
            pages=len(assigned),
            records=records,
            index_min=source.index_min,
            index_max=source.index_max,
            unroutable=report.unroutable_count,
            skipped=report.skipped_count,
            unreadable=len(source.unreadable),
            drift_events=report.drift_events,
            refits=report.refits,
            artifact_version=artifact_version,
            interrupted=report.cancelled,
            wall_seconds=time.perf_counter() - started,
            per_cluster={
                cluster: {
                    "pages": stats.pages,
                    "values": stats.values,
                    "failures": stats.failures,
                    "chunks": stats.chunks,
                    "worker_seconds": stats.worker_seconds,
                }
                for cluster, stats in sorted(report.per_cluster.items())
            },
        )
        manifest.save(directory / f"{base}.manifest.json")
        return manifest, report


# --------------------------------------------------------------------- #
# Merging
# --------------------------------------------------------------------- #


@dataclass
class MergeReport:
    """What one merge saw: shard accounting plus aggregated stats."""

    shards: int = 0
    records: int = 0
    unroutable: int = 0
    skipped: int = 0
    unreadable: int = 0
    drift_events: int = 0
    refits: int = 0
    worker_wall_seconds: float = 0.0
    per_cluster: Dict[str, dict] = field(default_factory=dict)

    def summary(self) -> str:
        """The human-readable multi-line merge summary."""
        lines = [
            f"shards merged   : {self.shards}",
            f"records         : {self.records}",
            f"unroutable      : {self.unroutable}",
            f"no-rules skipped: {self.skipped}",
            f"unreadable      : {self.unreadable}",
            f"worker wall     : {self.worker_wall_seconds:.2f}s total",
        ]
        if self.drift_events or self.refits:
            lines.append(
                f"drift events    : {self.drift_events} "
                f"({self.refits} refit(s))"
            )
        for cluster in sorted(self.per_cluster):
            stats = self.per_cluster[cluster]
            lines.append(
                f"  {cluster}: {stats['pages']} page(s), "
                f"{stats['values']} value(s), {stats['failures']} failure(s)"
            )
        return "\n".join(lines)


def _validate_manifests(
    manifests: list[tuple[Path, ShardManifest]], output_format: str
) -> list[tuple[Path, ShardManifest]]:
    """Shared pre-merge validation (JSONL and XML paths alike).

    Every manifest must describe the same corpus/plan and carry the
    expected output format; shard ids must be exactly ``0..shards-1``.
    Returns the manifests sorted by shard id.
    """
    if not manifests:
        raise ShardMergeError("no shard manifests to merge")
    _, first = manifests[0]
    for path, manifest in manifests[1:]:
        for attribute in (
            "corpus_digest", "shards", "strategy", "artifact_version",
        ):
            if getattr(manifest, attribute) != getattr(first, attribute):
                raise ShardMergeError(
                    f"{path}: {attribute} differs from "
                    f"{manifests[0][0]} — outputs are from "
                    "different runs or plans"
                )
    for path, manifest in manifests:
        if manifest.output_format != output_format:
            raise ShardMergeError(
                f"{path}: {manifest.output_format} shard output cannot "
                f"join a {output_format} merge"
            )
        if manifest.interrupted:
            raise ShardMergeError(
                f"{path}: shard {manifest.shard} is an interrupted "
                "checkpoint (covers only a prefix of its slice); "
                "run `shard resume` to finish it before merging"
            )
    seen: Dict[int, Path] = {}
    for path, manifest in manifests:
        if manifest.shard in seen:
            raise ShardMergeError(
                f"duplicate shard {manifest.shard}: "
                f"{seen[manifest.shard]} and {path}"
            )
        seen[manifest.shard] = path
    missing = sorted(set(range(first.shards)) - set(seen))
    if missing:
        raise ShardMergeError(
            f"missing shard(s) {', '.join(map(str, missing))} "
            f"of {first.shards}"
        )
    return sorted(manifests, key=lambda item: item[1].shard)


def _accumulate_manifest_stats(
    report: "MergeReport", manifest: ShardManifest
) -> None:
    """Fold one shard manifest's accounting into a merge report."""
    report.unroutable += manifest.unroutable
    report.skipped += manifest.skipped
    report.unreadable += manifest.unreadable
    report.drift_events += manifest.drift_events
    report.refits += manifest.refits
    report.worker_wall_seconds += manifest.wall_seconds
    for cluster, stats in manifest.per_cluster.items():
        merged = report.per_cluster.setdefault(
            cluster,
            {"pages": 0, "values": 0, "failures": 0, "chunks": 0,
             "worker_seconds": 0.0},
        )
        for key in merged:
            merged[key] += stats.get(key, 0)


class ShardMerger:
    """Mergesort shard outputs back into one deterministic stream.

    Validation before any output is written:

    * every manifest must describe the same corpus (digest), shard
      count and strategy;
    * shard ids must be exactly ``0..shards-1`` — duplicates and gaps
      are reported by id;
    * each output file must match its manifest's content digest and
      record count (disable with ``verify_digests=False`` for e.g.
      still-compressed transports).

    During the merge, global indices must be strictly increasing —
    a repeated index means overlapping shard outputs, a backwards jump
    within one file means a corrupt (out-of-order) shard file; both
    abort with :class:`ShardMergeError`.  Manifest *files* may be
    passed in any order.
    """

    def __init__(self, verify_digests: bool = True) -> None:
        self.verify_digests = verify_digests

    # -- manifest collection ------------------------------------------- #

    @staticmethod
    def discover(inputs: Iterable[Union[str, Path]]) -> list[Path]:
        """Expand directories to their ``*.manifest.json`` files."""
        paths: list[Path] = []
        for item in inputs:
            path = Path(item)
            if path.is_dir():
                found = sorted(path.glob("*.manifest.json"))
                if not found:
                    raise ShardMergeError(f"no shard manifests in {path}")
                paths.extend(found)
            else:
                paths.append(path)
        return paths

    #: The manifest ``output_format`` this merger consumes.
    output_format = "jsonl"

    def _validate(
        self, manifests: list[tuple[Path, ShardManifest]]
    ) -> list[tuple[Path, ShardManifest]]:
        return _validate_manifests(manifests, self.output_format)

    # -- record streaming ---------------------------------------------- #

    @staticmethod
    def _records(
        path: Path, manifest: ShardManifest
    ) -> Iterator[tuple[int, str]]:
        """Yield ``(global index, raw line)`` with monotonicity checks."""
        previous = -1
        count = 0
        with open(path, "r", encoding="utf-8") as stream:
            for line_number, line in enumerate(stream, start=1):
                line = line.rstrip("\n")
                if not line:
                    continue
                try:
                    index = json.loads(line)["index"]
                except (json.JSONDecodeError, KeyError, TypeError) as exc:
                    raise ShardMergeError(
                        f"{path}:{line_number}: not a shard record: {exc}"
                    ) from exc
                if not isinstance(index, int) or index < 0:
                    raise ShardMergeError(
                        f"{path}:{line_number}: bad submission index "
                        f"{index!r}"
                    )
                if index <= previous:
                    raise ShardMergeError(
                        f"{path}:{line_number}: out-of-order shard file "
                        f"(index {index} after {previous})"
                    )
                previous = index
                count += 1
                yield index, line
        if count != manifest.records:
            raise ShardMergeError(
                f"{path}: {count} record(s) but manifest declares "
                f"{manifest.records}"
            )

    def merge(
        self,
        inputs: Iterable[Union[str, Path]],
        output: Union[str, Path, IO[str]],
    ) -> MergeReport:
        """Merge shard outputs (manifest files or directories) into one
        JSONL stream, byte-identical to an unsharded ordered run."""
        manifest_paths = self.discover(inputs)
        manifests = [
            (path, ShardManifest.load(path)) for path in manifest_paths
        ]
        manifests = self._validate(manifests)
        report = MergeReport(shards=len(manifests))
        streams = []
        for path, manifest in manifests:
            output_path = path.parent / manifest.output
            if not output_path.exists():
                raise ShardMergeError(f"shard output missing: {output_path}")
            if self.verify_digests:
                actual = _file_sha256(output_path)
                if actual != manifest.sha256:
                    raise ShardMergeError(
                        f"{output_path}: content digest mismatch "
                        "(corrupt or regenerated shard output)"
                    )
            streams.append(self._records(output_path, manifest))
            _accumulate_manifest_stats(report, manifest)
        if isinstance(output, (str, Path)):
            stream: IO[str] = open(output, "w", encoding="utf-8")
            owns_stream = True
        else:
            stream = output
            owns_stream = False
        try:
            previous = -1
            for index, line in heapq.merge(*streams):
                if index == previous:
                    raise ShardMergeError(
                        f"overlapping shards: index {index} emitted twice"
                    )
                previous = index
                stream.write(line)
                stream.write("\n")
                report.records += 1
        finally:
            if owns_stream:
                stream.close()
        return report


# --------------------------------------------------------------------- #
# XML merging
# --------------------------------------------------------------------- #

#: Marker strings (indents, element names) become bytes through
#: latin-1; the documents themselves are streamed as raw bytes, split
#: on ``\n`` only, so extracted values containing exotic line-boundary
#: characters (NEL, VT, FF, a lone CR) survive the merge byte-exactly.
_BYTE_CODEC = "latin-1"


class XmlShardMerger:
    """Merge per-cluster XML shard outputs into unsharded documents.

    Each XML-mode shard output is a directory of ``<cluster>.xml``
    documents plus ``<cluster>.index`` sidecars (one decimal global
    submission index per page element, in element order — written by
    :class:`~repro.service.sink.XmlDirectorySink` with
    ``record_indices=True``).  The merge k-way-mergesorts every
    cluster's page elements across shards by sidecar index into
    ``<output_dir>/<cluster>.xml`` — byte-identical to what one
    unsharded ordered ``batch --xml-dir`` run over the same corpus
    writes, with no sidecars.  Documents are streamed element by
    element (like the JSONL merger streams records), so peak memory is
    one in-flight element per shard, not the corpus.

    Validation matches the JSONL path: shared manifest checks
    (:func:`_validate_manifests`, including the output format), an
    optional content digest over each shard directory, strictly
    increasing sidecar indices per shard, sidecar/element count
    agreement per document, per-shard totals against the manifest's
    record count, and duplicate indices across shards (overlap)
    during the merge.
    """

    output_format = "xml"

    def __init__(self, verify_digests: bool = True, indent: str = "  ") -> None:
        self.verify_digests = verify_digests
        self.indent = indent

    def merge(
        self,
        inputs: Iterable[Union[str, Path]],
        output_dir: Union[str, Path],
    ) -> MergeReport:
        """Merge XML shard outputs (manifest files or directories)."""
        manifest_paths = ShardMerger.discover(inputs)
        manifests = _validate_manifests(
            [(path, ShardManifest.load(path)) for path in manifest_paths],
            self.output_format,
        )
        report = MergeReport(shards=len(manifests))
        shard_dirs: list[tuple[Path, ShardManifest]] = []
        for path, manifest in manifests:
            directory = path.parent / manifest.output
            if not directory.is_dir():
                raise ShardMergeError(f"shard output missing: {directory}")
            if self.verify_digests:
                if _tree_sha256(directory) != manifest.sha256:
                    raise ShardMergeError(
                        f"{directory}: content digest mismatch "
                        "(corrupt or regenerated shard output)"
                    )
            shard_dirs.append((directory, manifest))
            _accumulate_manifest_stats(report, manifest)
        clusters = sorted({
            document.stem
            for directory, _ in shard_dirs
            for document in directory.glob("*.xml")
        })
        target = Path(output_dir)
        target.mkdir(parents=True, exist_ok=True)
        elements_per_shard = [0] * len(shard_dirs)
        for cluster in clusters:
            report.records += self._merge_cluster(
                cluster, shard_dirs, target / f"{cluster}.xml",
                elements_per_shard,
            )
        for position, (directory, manifest) in enumerate(shard_dirs):
            if elements_per_shard[position] != manifest.records:
                raise ShardMergeError(
                    f"{directory}: {elements_per_shard[position]} page "
                    f"element(s) but manifest declares {manifest.records}"
                )
        return report

    # -- one cluster --------------------------------------------------- #

    def _merge_cluster(
        self,
        cluster: str,
        shard_dirs: list[tuple[Path, ShardManifest]],
        output_path: Path,
        elements_per_shard: list[int],
    ) -> int:
        streams = []
        header: Optional[list[bytes]] = None
        header_origin: Optional[Path] = None
        for position, (directory, _) in enumerate(shard_dirs):
            document = directory / f"{cluster}.xml"
            if not document.exists():
                continue  # this shard served no page of the cluster
            indices = self._read_sidecar(directory / f"{cluster}.index")
            with open(document, "rb") as stream:
                first_two = [stream.readline(), stream.readline()]
            if not first_two[1].endswith(b"\n"):
                raise ShardMergeError(
                    f"{document}: truncated cluster document"
                )
            if header is None:
                header, header_origin = first_two, document
            elif first_two != header:
                raise ShardMergeError(
                    f"{document}: document header differs from "
                    f"{header_origin} — shards written with different "
                    "sink settings"
                )
            elements_per_shard[position] += len(indices)
            streams.append(self._indexed_elements(document, indices, cluster))
        count = 0
        with open(output_path, "wb") as stream:
            assert header is not None  # clusters come from *.xml globs
            stream.write(header[0])
            stream.write(header[1])
            previous = -1
            for index, element in heapq.merge(*streams):
                if index == previous:
                    raise ShardMergeError(
                        f"overlapping shards: index {index} emitted twice"
                    )
                previous = index
                for line in element:
                    stream.write(line)
                count += 1
            stream.write(f"</{cluster}>\n".encode(_BYTE_CODEC))
        return count

    @staticmethod
    def _read_sidecar(path: Path) -> list[int]:
        """Sidecar indices, checked strictly increasing (JSONL parity)."""
        if not path.exists():
            raise ShardMergeError(
                f"index sidecar missing: {path} (was the shard run with "
                "record_indices enabled?)"
            )
        indices: list[int] = []
        previous = -1
        for line_number, line in enumerate(
            path.read_text(encoding="ascii").splitlines(), start=1
        ):
            try:
                index = int(line)
            except ValueError as exc:
                raise ShardMergeError(
                    f"{path}:{line_number}: not a submission index: {exc}"
                ) from exc
            if index <= previous:
                raise ShardMergeError(
                    f"{path}:{line_number}: out-of-order shard sidecar "
                    f"(index {index} after {previous})"
                )
            previous = index
            indices.append(index)
        return indices

    def _indexed_elements(
        self, document: Path, indices: list[int], cluster: str
    ) -> Iterator[tuple[int, list[bytes]]]:
        """Stream ``(global index, page-element lines)`` from a document.

        Operates on raw bytes split at ``\\n`` only (the sink terminates
        every line with it), so value bytes — including characters
        ``str.splitlines`` would treat as line boundaries — pass through
        untouched.  The sink renders every page as ``<child uri="...">``
        ... ``</child>`` at one indent level; value text is escaped, so
        no content line can collide with the close tag.  Raises when the
        element count disagrees with the sidecar, when stray lines
        appear between elements, or when the document ends before its
        closing root tag.
        """
        child = page_element_name(cluster)
        open_prefix = f"{self.indent}<{child} uri=".encode(_BYTE_CODEC)
        close_line = f"{self.indent}</{child}>\n".encode(_BYTE_CODEC)
        footer = f"</{cluster}>\n".encode(_BYTE_CODEC)
        count = 0
        current: Optional[list[bytes]] = None
        closed = False
        with open(document, "rb") as stream:
            stream.readline()  # header, validated by _merge_cluster
            stream.readline()
            for line in stream:
                if current is None:
                    if line == footer:
                        closed = True
                        break
                    if not line.startswith(open_prefix):
                        raise ShardMergeError(
                            f"{document}: unexpected line between page "
                            f"elements: {line!r}"
                        )
                    current = [line]
                else:
                    current.append(line)
                if line == close_line:
                    if count >= len(indices):
                        raise ShardMergeError(
                            f"{document}: more page elements than its "
                            f"{len(indices)} sidecar index(es)"
                        )
                    yield indices[count], current
                    count += 1
                    current = None
            if current is not None or not closed:
                raise ShardMergeError(
                    f"{document}: truncated cluster document"
                )
        if count != len(indices):
            raise ShardMergeError(
                f"{document}: {count} page element(s) but "
                f"{len(indices)} sidecar index(es)"
            )


# --------------------------------------------------------------------- #
# Resume
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class ShardStatus:
    """One shard's health in an output directory, against a plan."""

    shard: int
    complete: bool
    reason: str = ""
    #: The complete shard's manifest ``output_format`` (``None`` while
    #: incomplete) — resume checks re-runs against it so one forgotten
    #: ``--format`` flag cannot produce an unmergeable mixed directory.
    output_format: Optional[str] = None
    #: The complete shard's registry artifact version (``None`` while
    #: incomplete or for registry-less runs) — resume refuses to mix
    #: re-runs against a different pinned version into the directory.
    artifact_version: Optional[str] = None


def shard_statuses(
    plan: ShardPlan,
    output_dir: Union[str, Path],
    verify_digests: bool = True,
) -> list[ShardStatus]:
    """Audit every shard of a plan against an output directory.

    A shard is complete when its manifest exists, parses, describes
    this plan (corpus digest, shard count, strategy, shard id), and
    its output exists with a matching content digest.  Anything else —
    a host that never ran, died mid-write, ran a different plan, or
    left a corrupt file — yields an explanatory reason, and ``shard
    resume`` re-runs exactly those shards.
    """
    directory = Path(output_dir)
    statuses: list[ShardStatus] = []

    def incomplete(shard: int, reason: str) -> ShardStatus:
        """A not-complete status for ``shard`` with ``reason``."""
        return ShardStatus(shard=shard, complete=False, reason=reason)

    for shard in range(plan.shards):
        manifest_path = directory / f"{shard_basename(shard)}.manifest.json"
        if not manifest_path.exists():
            statuses.append(incomplete(shard, "manifest missing"))
            continue
        try:
            manifest = ShardManifest.load(manifest_path)
        except ShardMergeError as exc:
            statuses.append(incomplete(shard, f"manifest unreadable: {exc}"))
            continue
        if manifest.shard != shard:
            statuses.append(incomplete(
                shard, f"manifest describes shard {manifest.shard}"
            ))
            continue
        if (
            manifest.corpus_digest != plan.corpus_digest
            or manifest.shards != plan.shards
            or manifest.strategy != plan.strategy
        ):
            statuses.append(incomplete(shard, "manifest from another plan"))
            continue
        if manifest.interrupted:
            # The checkpoint is internally consistent (digest matches
            # the partial output) but covers only a prefix — re-run.
            statuses.append(incomplete(shard, "interrupted checkpoint"))
            continue
        output_path = directory / manifest.output
        if manifest.output_format == "xml":
            if not output_path.is_dir():
                statuses.append(incomplete(shard, "output missing"))
                continue
            digest = _tree_sha256(output_path) if verify_digests else None
        else:
            if not output_path.is_file():
                statuses.append(incomplete(shard, "output missing"))
                continue
            digest = _file_sha256(output_path) if verify_digests else None
        if digest is not None and digest != manifest.sha256:
            statuses.append(incomplete(shard, "output digest mismatch"))
            continue
        statuses.append(ShardStatus(
            shard=shard, complete=True,
            output_format=manifest.output_format,
            artifact_version=manifest.artifact_version,
        ))
    return statuses


def incomplete_shards(
    plan: ShardPlan,
    output_dir: Union[str, Path],
    verify_digests: bool = True,
) -> list[ShardStatus]:
    """The shards ``shard resume`` must re-run, with reasons."""
    return [
        status
        for status in shard_statuses(plan, output_dir, verify_digests)
        if not status.complete
    ]
