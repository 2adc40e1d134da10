"""Command-line interface: the ``retrozilla`` tool.

Subcommands mirror the Figure-1 pipeline:

* ``demo``        — run the paper's worked example end to end
                    (Table 1 -> refinement -> Table 3 -> Figure 5 XML);
* ``generate``    — write a synthetic site to a directory as HTML files;
* ``cluster``     — cluster a directory of HTML files and print groups;
* ``build``       — build mapping rules for a cluster interactively
                    (console oracle) and save the repository;
* ``extract``     — apply a saved repository to HTML files and emit the
                    XML document (and optionally the XML Schema);
* ``batch``       — serve a directory through the streaming extraction
                    runtime (router -> compiled wrappers -> sink);
* ``serve``       — online loop: read ``{"url", "html"}`` JSON lines
                    from stdin, write extraction records to stdout.
                    Asynchronous (bounded in-flight pages, output in
                    input order); ``--http HOST:PORT``
                    serves the same contract over a socket instead
                    (``POST /extract``, streaming ``POST /batch``,
                    ``GET /healthz``, ``GET /metrics``) with graceful
                    drain on SIGINT/SIGTERM and optional admission
                    control (``--rate-limit``, ``--max-concurrent``);
* ``shard``       — multi-host batch execution in coordinator-free
                    steps: ``plan`` splits the corpus deterministically,
                    ``run`` extracts one shard (JSONL or XML +
                    manifest), ``resume`` re-runs only failed/missing
                    shards, ``merge`` mergesorts shard outputs into a
                    stream byte-identical to an unsharded ``batch`` run;
* ``registry``    — inspect and manage a versioned artifact registry
                    (``list`` / ``show`` / ``diff`` / ``pin`` /
                    ``rollback``).  ``serve``, ``batch`` and the shard
                    workers take ``--registry DIR`` to deploy its
                    pinned version, and ``serve --adapt
                    --canary-fraction`` shadow-tests every refit
                    candidate before promoting (or rolling back) it;
* ``lint``        — statically analyze rule-set files, cluster
                    directories or registry versions with the
                    :mod:`repro.analysis` analyzer; findings carry
                    stable ``RW*`` codes (``docs/lint.md``) and the
                    same gate refuses ``registry``-bound publishes of
                    error-severity artifacts unless
                    ``--allow-findings`` overrides it.

Every data-path subcommand is a composition over the same
:class:`~repro.service.runtime.StreamingRuntime`; see
``docs/architecture.md`` for the source -> runtime -> sink map.

``serve``, ``batch`` and the ``shard`` workers all accept ``--adapt``
(plus ``--drift-window`` / ``--drift-threshold`` / ``--adapt-log``):
an :class:`~repro.service.adapt.AdaptiveRouter` then watches the
stream for drift and refits the router online, with every event
auditable in the log.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import os
import re
import signal
import sys
from pathlib import Path
from typing import Callable, Optional, Sequence

from repro.errors import LintGateError, RegistryError, RepositoryError
from repro.clustering.cluster import PageClusterer
from repro.core.builder import MappingRuleBuilder
from repro.core.oracle import InteractiveOracle, ScriptedOracle
from repro.core.repository import RuleRepository
from repro.extraction.extractor import ExtractionProcessor
from repro.extraction.schema import generate_xml_schema
from repro.extraction.xml_writer import write_cluster_xml
from repro.sites.imdb import generate_imdb_site, make_paper_sample
from repro.sites.news import generate_news_site
from repro.sites.page import WebPage
from repro.sites.shop import generate_shop_site
from repro.sites.stocks import generate_stocks_site


#: ``generate`` names files ``<cluster_hint>-NNNN.html`` (4+ digits —
#: ``{index:04d}`` grows past 9999); loading recovers the hint so
#: routers can be fitted from labelled exemplars.
_HINTED_NAME_RE = re.compile(r"^(?P<hint>.+)-\d{4,}$")


def _page_paths(directory: Path) -> list[Path]:
    return sorted(directory.glob("*.html"))


def _page_from_path(path: Path) -> WebPage:
    """One page from one file (URL = file URI).

    File names following the ``generate`` convention
    (``<hint>-NNNN.html``) get their cluster hint restored; other
    names load with an empty hint.
    """
    return WebPage(
        url=path.resolve().as_uri(),
        html=path.read_text(encoding="utf-8"),
        cluster_hint=_filename_hint(path),
    )


def _load_pages(directory: Path) -> list[WebPage]:
    """Read ``*.html`` files from a directory as pages, eagerly.

    The ``batch`` command instead streams pages lazily
    (``_page_from_path`` over ``_page_paths``) so huge directories
    never sit in memory at once.
    """
    return [_page_from_path(path) for path in _page_paths(directory)]


def _corpus_source(paths: list[Path]):
    """The lazy, fault-tolerant page source every batch path shares.

    Pages are read (and dropped) as the runtime's bounded in-flight
    window advances; an unreadable or mis-encoded file is skipped with
    a note instead of aborting a million-page run, and records keep
    their corpus *positions* as submission indices (gaps where files
    were skipped), so ``batch`` output stays byte-compatible with a
    merged ``shard run``.
    """
    from repro.service.runtime import LoadingPageSource

    return LoadingPageSource(
        list(enumerate(paths)),
        _page_from_path,
        skip_unreadable=True,
        on_skip=lambda path, exc: print(
            f"skipping {path}: {exc}", file=sys.stderr
        ),
    )


def _save_site(site, directory: Path) -> int:
    directory.mkdir(parents=True, exist_ok=True)
    count = 0
    for index, page in enumerate(site):
        name = f"{page.cluster_hint or 'page'}-{index:04d}.html"
        (directory / name).write_text(page.html, encoding="utf-8")
        count += 1
    return count


# ----------------------------------------------------------------------- #
# Subcommand implementations
# ----------------------------------------------------------------------- #


def cmd_demo(args: argparse.Namespace) -> int:
    from repro.core.checking import check_rule, render_check_table

    sample = make_paper_sample()
    oracle = ScriptedOracle()
    builder = MappingRuleBuilder(
        sample, oracle, cluster_name="imdb-movies", seed=args.seed
    )
    selection = oracle.select_value(sample[0], "runtime")
    candidate = builder.candidate_from_selection("runtime", selection)
    print("Candidate rule (from one positive example):")
    print(candidate.describe())
    print()
    print("Table 1 - candidate rule checking:")
    print(render_check_table(check_rule(candidate, sample, oracle)))
    print()
    rule, report, trace = builder.engine.refine(candidate, sample)
    print(f"Refinement strategies applied: {trace.strategies_used}")
    print()
    print("Table 3 - rule checking after rule refinement:")
    print(render_check_table(report))
    print()
    builder.repository.record("imdb-movies", rule)
    processor = ExtractionProcessor(builder.repository, "imdb-movies")
    print("Figure 5 - generated XML document:")
    print(write_cluster_xml(processor.extract(sample), builder.repository))
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    generators = {
        "imdb": lambda: generate_imdb_site(
            n_movies=args.pages, n_actors=args.pages // 3,
            n_search=args.pages // 5, seed=args.seed,
        ),
        "shop": lambda: generate_shop_site(args.pages, seed=args.seed),
        "news": lambda: generate_news_site(args.pages, seed=args.seed),
        "stocks": lambda: generate_stocks_site(min(args.pages, 24), seed=args.seed),
    }
    if args.family not in generators:
        print(f"unknown site family {args.family!r}", file=sys.stderr)
        return 2
    count = _save_site(generators[args.family](), Path(args.output))
    print(f"wrote {count} page(s) to {args.output}")
    return 0


def cmd_cluster(args: argparse.Namespace) -> int:
    pages = _load_pages(Path(args.directory))
    if not pages:
        print("no *.html files found", file=sys.stderr)
        return 2
    result = PageClusterer().cluster(pages)
    for cluster in result.clusters:
        print(f"{cluster.name}  ({len(cluster)} page(s))")
        for url in cluster.urls()[: args.show]:
            print(f"  {url}")
        if len(cluster) > args.show:
            print(f"  ... and {len(cluster) - args.show} more")
    return 0


def cmd_build(args: argparse.Namespace) -> int:
    pages = _load_pages(Path(args.directory))
    if not pages:
        print("no *.html files found", file=sys.stderr)
        return 2
    sample = pages[: args.sample_size]
    oracle = InteractiveOracle()
    repository = (
        RuleRepository.load(args.repository)
        if Path(args.repository).exists()
        else RuleRepository()
    )
    builder = MappingRuleBuilder(
        sample, oracle, repository=repository, cluster_name=args.cluster
    )
    report = builder.build_all(args.components)
    print(report.summary())
    repository.save(args.repository)
    print(f"repository saved to {args.repository}")
    return 0 if not report.failed_components else 1


def cmd_extract(args: argparse.Namespace) -> int:
    pages = _load_pages(Path(args.directory))
    repository = RuleRepository.load(args.repository)
    processor = ExtractionProcessor(repository, args.cluster)
    result = processor.extract(pages)
    xml = write_cluster_xml(result, repository)
    if args.output:
        Path(args.output).write_text(xml, encoding="utf-8")
        print(f"XML written to {args.output}")
    else:
        print(xml)
    if args.schema:
        schema = generate_xml_schema(repository, args.cluster)
        Path(args.schema).write_text(schema, encoding="utf-8")
        print(f"XML Schema written to {args.schema}")
    if result.failures:
        print(f"{len(result.failures)} extraction failure(s) detected:",
              file=sys.stderr)
        for failure in result.failures[:10]:
            print(f"  {failure}", file=sys.stderr)
    return 0


def _take_per_cluster(items, hint_of, clusters, cap: int) -> dict:
    """Up to ``cap`` items per cluster, keyed by ``hint_of(item)``.

    Stops scanning early once every wanted cluster's bucket is full,
    so lazy iterables are consumed only as far as needed.
    """
    wanted = set(clusters)
    buckets: dict[str, list] = {}
    for item in items:
        hint = hint_of(item)
        if hint not in wanted:
            continue
        bucket = buckets.setdefault(hint, [])
        if len(bucket) < cap:
            bucket.append(item)
            if all(
                len(buckets.get(cluster, [])) >= cap for cluster in wanted
            ):
                break
    return buckets


def _filename_hint(path: Path) -> str:
    match = _HINTED_NAME_RE.match(path.stem)
    return match.group("hint") if match else ""


def _fit_router_from_paths(
    paths: list[Path],
    repository: RuleRepository,
    exemplars: int,
    threshold: float,
):
    """Fit a router from on-disk pages, selecting by file *name* hint.

    Only the selected exemplar files are ever read, so fitting over a
    huge directory costs a name scan plus ``exemplars`` reads per
    cluster — the rest of the corpus is left for the engine's single
    streaming pass.
    """
    path_buckets = _take_per_cluster(
        paths, _filename_hint, repository.clusters(), exemplars
    )
    if not path_buckets:
        return None
    # Unreadable exemplars are skipped, like everywhere else in batch
    # processing: one mis-encoded file must not abort the run.  Every
    # command fits from the same path list, so routing (and therefore
    # sharded/unsharded output) stays identical either way.
    by_cluster: dict[str, list[WebPage]] = {}
    for cluster, cluster_paths in path_buckets.items():
        pages = []
        for path in cluster_paths:
            try:
                pages.append(_page_from_path(path))
            except (OSError, UnicodeDecodeError) as exc:
                print(f"skipping exemplar {path}: {exc}", file=sys.stderr)
        if pages:
            by_cluster[cluster] = pages
    if not by_cluster:
        return None
    from repro.service import ClusterRouter

    return ClusterRouter.fit(by_cluster, threshold=threshold)


def _make_adapter(args, router):
    """Build the ``--adapt`` layer; ``None`` (with a message) on error.

    Adaptation watches routing decisions, so it needs a fitted
    signature router — hint-based routing has no profiles to refit.
    The audit log starts in-memory; :func:`_attach_adapter_log` opens
    the ``--adapt-log`` file only after the rest of the command has
    validated, so a command that never runs cannot truncate a
    previous run's audit trail.
    """
    from repro.errors import ClusteringError
    from repro.service import make_adapter

    try:
        return make_adapter(
            router,
            window=args.drift_window,
            threshold=args.drift_threshold,
            low_margin=args.drift_margin,
            spawn_clusters=args.adapt_spawn,
        )
    except (ClusteringError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return None


def _attach_adapter_log(adapter, args, log_suffix: str = "") -> None:
    """Point a validated adapter's audit log at ``--adapt-log``.

    ``log_suffix`` keeps audit logs apart when one process runs
    several adaptive workers (``shard resume``).  Raises ``OSError``
    when the path cannot be opened.
    """
    from repro.service import AdaptationLog

    if adapter is not None and args.adapt_log:
        adapter.log = AdaptationLog(args.adapt_log + log_suffix)


def _registry_pinned_artifact(args):
    """``(registry, repository, router, version)`` for ``--registry``.

    Opens the registry and loads its pinned artifact when one exists
    (repository/router/version come back ``None`` otherwise); the
    caller's repository and fitted router are then *replaced* by the
    pinned version's, so every worker of a run deploys the exact
    artifact the pin names.  ``RegistryError`` propagates to the
    caller's error path.
    """
    from repro.service import ArtifactRegistry

    registry = ArtifactRegistry(args.registry)
    pinned = registry.pinned()
    if pinned is None:
        return registry, None, None, None
    repository, router, _ = registry.load(pinned)
    print(f"registry: using pinned version {pinned}", file=sys.stderr)
    return registry, repository, router, pinned


def _publish_initial(
    registry, repository, router, allow_findings: bool = False
) -> str:
    """Seed an empty registry with the artifact this run deploys.

    Publishing runs the lint gate: error-severity analyzer findings
    raise :class:`~repro.errors.LintGateError` (a ``RegistryError``
    the callers' error paths already handle) unless the run passed
    ``--allow-findings``.
    """
    manifest = registry.publish(
        repository, router, source="initial", allow_findings=allow_findings
    )
    registry.pin(manifest.version)
    print(
        f"registry: published and pinned initial version "
        f"{manifest.version}",
        file=sys.stderr,
    )
    return manifest.version


def _print_lint_refusal(exc: LintGateError) -> None:
    """Render a publish refusal: the findings first, then the next move."""
    from repro.analysis import render_text

    print(render_text(exc.findings), file=sys.stderr)
    print(f"{exc} (pass --allow-findings to deploy anyway)", file=sys.stderr)


def _dump_metrics(path: str) -> None:
    """Snapshot the process-wide metrics registry to ``path``.

    The dump is the same Prometheus text exposition ``serve --http``
    answers on ``GET /metrics``; batch and shard runs have no socket,
    so ``--metrics PATH`` writes the registry on exit instead — after
    an interrupted run too, where the counters document how far the
    checkpoint got.
    """
    from repro.service import default_registry

    Path(path).write_text(default_registry().render(), encoding="utf-8")
    print(f"metrics written to {path}", file=sys.stderr)


def _progress_emitter(args, label: str):
    """The ``--progress`` JSONL emitter on stderr (``None`` when off)."""
    if not getattr(args, "progress", 0):
        return None
    from repro.service import ProgressEmitter

    return ProgressEmitter(
        sys.stderr, label=label, every_pages=args.progress
    )


def _announce_compile(progress, runtime) -> None:
    """Emit the one-off per-cluster compiler-stats progress event.

    Duck-typed: anything without ``announce_compile`` (progress off, or
    a bare-callable emitter) is silently skipped.
    """
    announce = getattr(progress, "announce_compile", None)
    if announce is not None:
        announce(runtime.wrapper_stats())


@contextlib.contextmanager
def _graceful_interrupt(token):
    """Turn the first SIGINT into a cooperative cancellation.

    The first ``^C`` cancels ``token`` — the runtime stops admitting
    pages, drains what is in flight, and the command exits 130 with
    line-complete output (and, for shards, a digest-valid checkpoint
    manifest that ``shard resume`` picks up).  A second ``^C`` raises
    :class:`KeyboardInterrupt` as usual for a hard abort.  The
    previous handler is restored on exit; on threads that cannot set
    signal handlers the context is a no-op.
    """

    def _handler(signum, frame):
        if token.is_set():
            raise KeyboardInterrupt
        token.cancel()
        print(
            "interrupt: finishing in-flight work (^C again to abort)",
            file=sys.stderr,
        )

    try:
        previous = signal.signal(signal.SIGINT, _handler)
    except ValueError:  # pragma: no cover - non-main thread
        yield
        return
    try:
        yield
    finally:
        signal.signal(signal.SIGINT, previous)


def cmd_batch(args: argparse.Namespace) -> int:
    from repro.service import (
        CancellationToken,
        JsonlSink,
        StreamingRuntime,
        XmlDirectorySink,
    )

    if args.jsonl and args.xml_dir:
        print("--jsonl and --xml-dir are mutually exclusive",
              file=sys.stderr)
        return 2
    paths = _page_paths(Path(args.directory))
    if not paths:
        print("no *.html files found", file=sys.stderr)
        return 2
    try:
        repository = RuleRepository.load(args.repository)
    except RepositoryError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    registry = None
    reg_router = None
    if args.registry:
        try:
            registry, reg_repository, reg_router, _ = (
                _registry_pinned_artifact(args)
            )
            if reg_repository is not None:
                repository = reg_repository
        except RegistryError as exc:
            print(str(exc), file=sys.stderr)
            return 2
    router = None
    if args.route == "auto":
        router = reg_router if reg_router is not None else (
            _fit_router_from_paths(
                paths, repository, args.exemplars, args.threshold
            )
        )
        if router is None:
            print(
                "no hint-labelled exemplar pages found; routing by hints",
                file=sys.stderr,
            )
    if registry is not None and registry.pinned() is None:
        try:
            _publish_initial(
                registry, repository, router,
                allow_findings=args.allow_findings,
            )
        except LintGateError as exc:
            _print_lint_refusal(exc)
            return 2
    adapter = None
    if args.adapt:
        adapter = _make_adapter(args, router)
        if adapter is None:
            return 2
    try:
        # ``ordered=True``: records leave in submission-index order, so
        # this output is byte-identical to a merged ``shard`` run.
        runtime = StreamingRuntime(
            repository,
            router=None if adapter is not None else router,
            workers=args.workers,
            executor=args.executor,
            chunk_size=args.chunk_size,
            ordered=True,
            adapter=adapter,
        )
        _attach_adapter_log(adapter, args)
    except (ValueError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    # Output files open only now, with everything validated: a
    # command that cannot run must not truncate a previous run's
    # records or audit log.
    if args.xml_dir:
        sink = XmlDirectorySink(Path(args.xml_dir), repository)
    elif args.jsonl:
        sink = JsonlSink(args.jsonl)
    else:
        sink = JsonlSink(sys.stdout)
    source = _corpus_source(paths)
    cancel = CancellationToken()
    progress = _progress_emitter(args, "batch")
    _announce_compile(progress, runtime)
    try:
        with sink:
            with _graceful_interrupt(cancel):
                report = runtime.run(
                    source, sink, cancel=cancel, on_progress=progress
                )
            if progress is not None:
                progress.finish(report)
    finally:
        if adapter is not None:
            adapter.log.close()
    print(report.summary(), file=sys.stderr)
    if source.unreadable:
        print(f"{len(source.unreadable)} unreadable file(s) skipped",
              file=sys.stderr)
    if args.xml_dir:
        print(f"XML documents written to {args.xml_dir}", file=sys.stderr)
    elif args.jsonl:
        print(f"records written to {args.jsonl}", file=sys.stderr)
    if args.metrics:
        _dump_metrics(args.metrics)
    if report.cancelled:
        print("interrupted; partial output is line-complete",
              file=sys.stderr)
        return 130
    return 0


# --------------------------------------------------------------------- #
# Sharded batch execution (multi-host, coordinator-free)
# --------------------------------------------------------------------- #


def cmd_shard_plan(args: argparse.Namespace) -> int:
    from repro.errors import ShardError
    from repro.service import ShardPlanner

    paths = _page_paths(Path(args.directory))
    if not paths:
        print("no *.html files found", file=sys.stderr)
        return 2
    try:
        planner = ShardPlanner(args.shards, args.strategy)
        plan = planner.plan([path.name for path in paths])
    except ShardError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    plan.save(args.output)
    sizes = ", ".join(
        f"#{shard}={size}" for shard, size in enumerate(plan.shard_sizes())
    )
    print(
        f"planned {len(paths)} page(s) into {plan.shards} "
        f"{plan.strategy} shard(s): {sizes}"
    )
    print(f"plan written to {args.output}")
    return 0


def _load_shard_inputs(args) -> Optional[tuple]:
    """Plan + repository + corpus-presence check shared by run/resume.

    With ``--registry``, the pinned artifact replaces the repository
    (and the fitted router), and its version id is returned for the
    shard manifests — every shard of a run must deploy one version.
    """
    from repro.errors import ShardError
    from repro.service import ShardPlan

    directory = Path(args.directory)
    try:
        plan = ShardPlan.load(args.plan)
        repository = RuleRepository.load(args.repository)
    except (ShardError, RepositoryError) as exc:
        print(str(exc), file=sys.stderr)
        return None
    registry = None
    reg_router = None
    artifact_version = None
    if args.registry:
        try:
            registry, reg_repository, reg_router, artifact_version = (
                _registry_pinned_artifact(args)
            )
            if reg_repository is not None:
                repository = reg_repository
        except RegistryError as exc:
            print(str(exc), file=sys.stderr)
            return None
    missing = [
        page_id for page_id in plan.page_ids
        if not (directory / page_id).exists()
    ]
    if missing:
        print(
            f"{len(missing)} page(s) named by the plan are missing from "
            f"{directory} (first: {missing[0]})",
            file=sys.stderr,
        )
        return None
    router = None
    if args.route == "auto":
        if reg_router is not None:
            router = reg_router
        else:
            # Fitted from the *full* corpus in plan order, so every
            # shard (and an unsharded ``batch``) routes identically.
            router = _fit_router_from_paths(
                [directory / page_id for page_id in plan.page_ids],
                repository, args.exemplars, args.threshold,
            )
        if router is None:
            print(
                "no hint-labelled exemplar pages found; routing by hints",
                file=sys.stderr,
            )
    if registry is not None and artifact_version is None:
        try:
            artifact_version = _publish_initial(
                registry, repository, router,
                allow_findings=args.allow_findings,
            )
        except LintGateError as exc:
            _print_lint_refusal(exc)
            return None
    return directory, plan, repository, router, artifact_version


def _run_one_shard(args, directory, plan, repository, router,
                   shard: int,
                   artifact_version: Optional[str] = None,
                   cancel=None):
    """Execute one shard worker; prints the run summary.

    Returns the shard's manifest (``manifest.interrupted`` is set when
    ``cancel`` fired and the output is a resumable checkpoint), or
    ``None`` on error.
    """
    from repro.errors import ShardError
    from repro.service import ShardWorker

    # Each shard adapts (and audits) independently: drift is a
    # property of the traffic a host actually serves.
    from repro.service.shard import shard_basename

    adapter = None
    if args.adapt:
        # Each shard adapts from the originally fitted profiles: the
        # fitted router is shared across the shards a resume runs in
        # one process, and refit() mutates its profile list, so every
        # worker gets its own clone — a resumed shard's output stays
        # identical to running that shard alone on its own host.
        own_router = None if router is None else router.clone()
        adapter = _make_adapter(args, own_router)
        if adapter is None:
            return None
    try:
        worker = ShardWorker(
            repository, plan, shard,
            router=None if adapter is not None else router,
            workers=args.workers,
            executor=args.executor,
            chunk_size=args.chunk_size,
            skip_unreadable=True,
            adapter=adapter,
        )
        _attach_adapter_log(
            adapter, args, log_suffix=f".{shard_basename(shard)}"
        )
        progress = _progress_emitter(args, shard_basename(shard))
        _announce_compile(progress, worker.runtime)
        manifest, report = worker.run(
            lambda page_id: _page_from_path(directory / page_id),
            Path(args.output_dir),
            output_format=args.format,
            artifact_version=artifact_version,
            cancel=cancel,
            on_progress=progress,
        )
        if progress is not None:
            progress.finish(report)
    except (ShardError, ValueError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return None
    finally:
        if adapter is not None:
            adapter.log.close()
    print(report.summary(), file=sys.stderr)
    if manifest.unreadable:
        print(f"{manifest.unreadable} unreadable file(s) skipped",
              file=sys.stderr)
    print(
        f"shard {manifest.shard} of {manifest.shards}: "
        f"{manifest.records} record(s) -> "
        f"{Path(args.output_dir) / manifest.output}",
        file=sys.stderr,
    )
    return manifest


def cmd_shard_run(args: argparse.Namespace) -> int:
    from repro.service import CancellationToken

    loaded = _load_shard_inputs(args)
    if loaded is None:
        return 2
    directory, plan, repository, router, artifact_version = loaded
    cancel = CancellationToken()
    with _graceful_interrupt(cancel):
        manifest = _run_one_shard(args, directory, plan, repository,
                                  router, args.shard,
                                  artifact_version=artifact_version,
                                  cancel=cancel)
    if manifest is None:
        return 2
    if args.metrics:
        _dump_metrics(args.metrics)
    if manifest.interrupted:
        print(
            "interrupted; checkpoint manifest written — `shard resume` "
            "re-runs this shard",
            file=sys.stderr,
        )
        return 130
    return 0


def cmd_shard_resume(args: argparse.Namespace) -> int:
    from repro.errors import ShardError
    from repro.service import ShardPlan, shard_statuses

    # Audit first: it needs only the plan and the output directory, so
    # a fully-complete resume is a cheap no-op even when the corpus is
    # gone from this host and no router has to be fitted.
    try:
        plan = ShardPlan.load(args.plan)
        statuses = shard_statuses(
            plan, args.output_dir, verify_digests=not args.no_verify
        )
    except ShardError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    mismatched = sorted({
        status.output_format for status in statuses
        if status.complete and status.output_format != args.format
    })
    if mismatched:
        print(
            f"existing complete shard(s) in {args.output_dir} are "
            f"{', '.join(mismatched)} but --format is {args.format}; "
            "re-run resume with the matching --format",
            file=sys.stderr,
        )
        return 2
    pending = [status for status in statuses if not status.complete]
    if not pending:
        print(
            f"all {plan.shards} shard(s) complete in {args.output_dir}; "
            "nothing to resume",
            file=sys.stderr,
        )
        return 0
    loaded = _load_shard_inputs(args)
    if loaded is None:
        return 2
    directory, plan, repository, router, artifact_version = loaded
    # Re-runs join a directory of already-complete shards: they must
    # deploy the artifact version those shards ran, or the directory
    # can never merge (``_validate_manifests`` enforces the same).
    stale = sorted({
        status.artifact_version or "(none)" for status in statuses
        if status.complete and status.artifact_version != artifact_version
    })
    if stale:
        print(
            f"existing complete shard(s) in {args.output_dir} ran "
            f"artifact version(s) {', '.join(stale)} but this run "
            f"deploys {artifact_version or '(none)'}; re-pin the "
            "registry or start a fresh output directory",
            file=sys.stderr,
        )
        return 2
    print(
        f"resuming {len(pending)} of {plan.shards} shard(s): "
        + ", ".join(f"#{s.shard} ({s.reason})" for s in pending),
        file=sys.stderr,
    )
    from repro.service import CancellationToken

    cancel = CancellationToken()
    interrupted = False
    with _graceful_interrupt(cancel):
        for status in pending:
            manifest = _run_one_shard(args, directory, plan, repository,
                                      router, status.shard,
                                      artifact_version=artifact_version,
                                      cancel=cancel)
            if manifest is None:
                return 2
            if manifest.interrupted:
                interrupted = True
                break
    if args.metrics:
        _dump_metrics(args.metrics)
    if interrupted:
        print(
            "interrupted; checkpoint manifest written — re-run "
            "`shard resume` to finish",
            file=sys.stderr,
        )
        return 130
    return 0


def cmd_shard_merge(args: argparse.Namespace) -> int:
    from repro.errors import ShardError
    from repro.service import ShardMerger, XmlShardMerger

    if args.format == "xml":
        if not args.output:
            print("--format xml needs --output DIRECTORY", file=sys.stderr)
            return 2
        merger = XmlShardMerger(verify_digests=not args.no_verify)
        try:
            report = merger.merge(args.inputs, args.output)
        except ShardError as exc:
            print(str(exc), file=sys.stderr)
            return 1
        print(report.summary(), file=sys.stderr)
        print(f"merged XML documents written to {args.output}",
              file=sys.stderr)
        return 0
    merger = ShardMerger(verify_digests=not args.no_verify)
    try:
        report = merger.merge(
            args.inputs, args.output if args.output else sys.stdout
        )
    except ShardError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    print(report.summary(), file=sys.stderr)
    if args.output:
        print(f"merged records written to {args.output}", file=sys.stderr)
    return 0


#: CLI override of the consecutive-decode-failure cap before ``serve``
#: gives up.  ``None`` defers to the single definition in
#: :data:`repro.service.serve.MAX_DECODE_FAILURES` (sync and async
#: front-ends can never drift); rebind to a number to tune the CLI.
#: Kept lazy so non-service subcommands never import the serve layer.
SERVE_MAX_DECODE_FAILURES: Optional[int] = None


def _serve_decode_failure_cap() -> int:
    from repro.service.serve import MAX_DECODE_FAILURES

    if SERVE_MAX_DECODE_FAILURES is not None:
        return SERVE_MAX_DECODE_FAILURES
    return MAX_DECODE_FAILURES


def _serve_output_closed() -> None:
    """The consumer closed our output mid-run: stop serving cleanly.

    Point the real stdout at devnull so the interpreter's shutdown
    flush cannot raise a second time.
    """
    try:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except (OSError, ValueError, AttributeError):
        pass
    print("output stream closed by consumer", file=sys.stderr)


#: Test seam: called with the started ``HttpFrontEnd`` once ``serve
#: --http`` is accepting connections (the CLI blocks in its event loop
#: from then on; tests use this to learn the bound port and to request
#: a stop from another thread).  ``None`` disables.
SERVE_HTTP_STARTED: Optional[Callable] = None


def _parse_http_address(value: str) -> tuple[str, int]:
    """``HOST:PORT`` (port 0 = pick a free one); host may be omitted.

    IPv6 literals use the standard bracketed spelling (``[::1]:8080``);
    the brackets come off before the bind.
    """
    host, sep, port_text = value.rpartition(":")
    if not sep:
        raise ValueError(
            f"--http takes HOST:PORT, got {value!r} (use :0 for any port)"
        )
    try:
        port = int(port_text)
        if not 0 <= port <= 65535:
            raise ValueError
    except ValueError:
        raise ValueError(
            f"--http port must be 0..65535, got {port_text!r}"
        ) from None
    if host.startswith("[") and host.endswith("]"):
        host = host[1:-1]
    return host or "127.0.0.1", port


def _serve_http(handler, args) -> int:
    """The socket front-end: serve until SIGINT/SIGTERM, then drain."""
    from repro.service.http import HttpFrontEnd

    try:
        host, port = _parse_http_address(args.http)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    async def _run():
        front = HttpFrontEnd(
            handler, host, port, drain_timeout=args.http_drain_timeout
        )
        await front.start()
        loop = asyncio.get_running_loop()
        hooked = []
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, front.stop)
                hooked.append(signum)
            except (NotImplementedError, ValueError, RuntimeError):
                pass  # platform (or thread) without loop signal handlers
        print(f"serving HTTP on {front.host}:{front.port}",
              file=sys.stderr, flush=True)
        if SERVE_HTTP_STARTED is not None:
            SERVE_HTTP_STARTED(front)
        try:
            await front.wait_stopped()
        finally:
            stats = await front.shutdown()
            for signum in hooked:
                loop.remove_signal_handler(signum)
        return stats

    try:
        stats = asyncio.run(_run())
    except KeyboardInterrupt:
        # No loop signal handlers on this platform: the interrupt
        # aborted the loop; sinks flush per line, so output is whole.
        print("interrupted", file=sys.stderr)
        return 130
    except OSError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(
        f"served {stats.served} page(s) over {stats.requests} "
        f"request(s) on {stats.connections} connection(s)",
        file=sys.stderr,
    )
    if stats.drained_connections:
        # Mirrors repro_http_drained_connections_total, so the drain
        # log and a final /metrics scrape always agree.
        print(
            f"drained {stats.drained_connections} connection(s) "
            "at shutdown",
            file=sys.stderr,
        )
    if stats.rate_limited or stats.shed:
        print(
            f"admission: {stats.rate_limited} rate-limited, "
            f"{stats.shed} shed",
            file=sys.stderr,
        )
    return 0


#: Test seam: called with the started ``ServeSupervisor`` once every
#: initial child is ready (ports are bound and published by then).
#: ``None`` disables.
SERVE_SUPERVISOR_STARTED: Optional[Callable] = None


def _serve_multiworker(handler, args) -> int:
    """The pre-fork supervisor: N ingress children behind one port."""
    from repro.service.supervisor import ServeSupervisor

    try:
        host, port = _parse_http_address(args.http)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    async def _run():
        supervisor = ServeSupervisor(
            handler,
            host,
            port,
            workers=args.workers,
            gateway=args.gateway,
            slice_lines=args.gateway_slice,
            status_port=args.status_port,
            drain_timeout=args.http_drain_timeout,
        )
        await supervisor.start()
        loop = asyncio.get_running_loop()
        hooked = []
        try:
            loop.add_signal_handler(
                signal.SIGINT, supervisor.interrupt
            )
            hooked.append(signal.SIGINT)
            loop.add_signal_handler(signal.SIGTERM, supervisor.stop)
            hooked.append(signal.SIGTERM)
        except (NotImplementedError, ValueError, RuntimeError):
            pass  # platform (or thread) without loop signal handlers
        mode = "gateway" if args.gateway else supervisor.mode
        print(
            f"serving HTTP on {host}:{supervisor.port} with "
            f"{supervisor.workers} worker(s) ({mode})",
            file=sys.stderr, flush=True,
        )
        if not args.gateway:
            print(
                f"supervisor status on {host}:{supervisor.status_port}",
                file=sys.stderr, flush=True,
            )
        if SERVE_SUPERVISOR_STARTED is not None:
            SERVE_SUPERVISOR_STARTED(supervisor)
        try:
            await supervisor.wait_stopped()
        finally:
            stats = await supervisor.shutdown()
            for signum in hooked:
                loop.remove_signal_handler(signum)
        return stats, supervisor.failed

    try:
        stats, failed = asyncio.run(_run())
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    except (OSError, TimeoutError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(
        f"served {stats.served} page(s) over {stats.requests} "
        f"request(s) on {stats.connections} connection(s)",
        file=sys.stderr,
    )
    if stats.drained_connections:
        print(
            f"drained {stats.drained_connections} connection(s) "
            "at shutdown",
            file=sys.stderr,
        )
    if stats.rate_limited or stats.shed:
        print(
            f"admission: {stats.rate_limited} rate-limited, "
            f"{stats.shed} shed",
            file=sys.stderr,
        )
    print(
        f"workers: {stats.workers} worker(s), "
        f"{stats.restarts} restart(s)",
        file=sys.stderr,
    )
    if args.gateway:
        print(
            f"gateway: {stats.gateway_slices} slice(s), "
            f"{stats.gateway_retries} retried",
            file=sys.stderr,
        )
    if failed:
        print("supervisor gave up: all workers crash-looping",
              file=sys.stderr)
        return 1
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import ServeHandler, ServePolicy

    multiworker = args.workers > 1 or args.gateway
    if args.workers < 1:
        print("--workers must be >= 1", file=sys.stderr)
        return 2
    if args.gateway_slice < 1:
        print("--gateway-slice must be >= 1", file=sys.stderr)
        return 2
    if multiworker and not args.http:
        print("--workers/--gateway need --http", file=sys.stderr)
        return 2
    if multiworker and args.adapt:
        # Each forked child would drift and refit independently — N
        # silently diverging artifacts behind one port.  Adaptation
        # stays a single-process concern; multi-worker serves a pinned
        # artifact.
        print("--workers/--gateway and --adapt are mutually exclusive "
              "(per-child refits would diverge)", file=sys.stderr)
        return 2
    try:
        repository = RuleRepository.load(args.repository)
    except RepositoryError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    registry = None
    reg_router = None
    reg_version = None
    if args.registry:
        try:
            registry, reg_repository, reg_router, reg_version = (
                _registry_pinned_artifact(args)
            )
            if reg_repository is not None:
                repository = reg_repository
        except RegistryError as exc:
            print(str(exc), file=sys.stderr)
            return 2
    if args.canary_fraction and not args.adapt:
        print("--canary-fraction needs --adapt (a canary shadows "
              "refit candidates)", file=sys.stderr)
        return 2
    router = None
    cluster = args.cluster
    if args.exemplars_dir:
        # Only the selected exemplar files are read (a name scan plus
        # ``exemplars`` reads per cluster), not the whole directory.
        router = _fit_router_from_paths(
            _page_paths(Path(args.exemplars_dir)),
            repository, args.exemplars, args.threshold,
        )
        if router is None:
            print(
                "exemplar directory has no hint-labelled pages",
                file=sys.stderr,
            )
            return 2
    elif reg_router is not None:
        # The pinned artifact ships its own fitted router.
        router = reg_router
    elif cluster:
        if cluster not in repository.clusters():
            print(
                f"unknown cluster {cluster!r}; repository has: "
                f"{', '.join(repository.clusters())}",
                file=sys.stderr,
            )
            return 2
    else:
        clusters = repository.clusters()
        if len(clusters) == 1:
            cluster = clusters[0]
        else:
            print(
                "repository has several clusters: pass --cluster or "
                "--exemplars-dir",
                file=sys.stderr,
            )
            return 2
    if args.max_inflight < 1:
        print("--max-inflight must be >= 1", file=sys.stderr)
        return 2
    adapter = None
    if args.adapt:
        adapter = _make_adapter(args, router)
        if adapter is None:
            return 2
    try:
        # One policy object, every front-end: the sync/async stdin
        # loops and the HTTP ingress inherit the same caps and
        # admission limits.
        policy = ServePolicy(
            max_decode_failures=_serve_decode_failure_cap(),
            max_inflight=args.max_inflight,
            rate_limit=args.rate_limit,
            rate_burst=args.rate_burst,
            max_concurrent_requests=args.max_concurrent,
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    handler = ServeHandler(
        repository,
        router=None if adapter is not None else router,
        cluster=cluster or None,
        adapter=adapter,
        policy=policy,
        # Compiled once, here; the supervisor's forked children inherit
        # this handler (and the stamped pin) without recompiling.
        artifact_version=reg_version,
    )
    try:
        _attach_adapter_log(adapter, args)
    except OSError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    try:
        if adapter is not None and (
            registry is not None or args.canary_fraction > 0
        ):
            from repro.service import CanaryController, wrapper_extractor

            deployer = CanaryController(
                adapter.router,
                repository,
                registry=registry,
                fraction=args.canary_fraction,
                window=args.canary_window,
                low_margin=args.drift_margin,
                extract=wrapper_extractor(handler.runtime),
                log=adapter.log,
                allow_findings=args.allow_findings,
            )
            deployer.ensure_baseline()
            adapter.deployer = deployer
        elif registry is not None and registry.pinned() is None:
            _publish_initial(
            registry, repository, router,
            allow_findings=args.allow_findings,
        )
    except LintGateError as exc:
        _print_lint_refusal(exc)
        return 2
    except (ValueError, RegistryError) as exc:
        print(str(exc), file=sys.stderr)
        return 2

    def _report_drift() -> None:
        if adapter is not None:
            print(
                f"drift: {adapter.drift_events} event(s), "
                f"{adapter.refits} refit(s)",
                file=sys.stderr,
            )
            deployer = adapter.deployer
            if deployer is not None:
                status = deployer.status()
                print(
                    f"registry: active "
                    f"{status['registry_version'] or '(unversioned)'}, "
                    f"shadow {status['shadow_version'] or '(none)'}, "
                    f"{status['canary_promotions']} promotion(s), "
                    f"{status['canary_rollbacks']} rollback(s)",
                    file=sys.stderr,
                )
            adapter.log.close()

    # The drift report (and the audit-log close behind it) must run on
    # *every* exit path — a session interrupted mid-stream still has to
    # leave a complete, flushed adaptation log behind.  The metrics
    # dump rides the same guarantee.
    try:
        if args.http and multiworker:
            return _serve_multiworker(handler, args)
        if args.http:
            return _serve_http(handler, args)
        return _serve_stdin(handler, args)
    finally:
        _report_drift()
        if args.metrics:
            _dump_metrics(args.metrics)


def _serve_stdin(handler, args) -> int:
    """The asyncio stdin front-end."""
    from repro.service import serve_async

    stdin = args.stdin if args.stdin is not None else sys.stdin
    stdout = args.stdout if args.stdout is not None else sys.stdout
    # Undecodable input bytes must surface as error records, not kill
    # the loop: where the stream supports it, decode troublesome bytes
    # to escapes (json.loads then rejects the line with a clean error).
    reconfigure = getattr(stdin, "reconfigure", None)
    if reconfigure is not None:
        try:
            reconfigure(errors="backslashreplace")
        except (ValueError, OSError):  # pragma: no cover - exotic stream
            pass
    try:
        stats = asyncio.run(serve_async(
            handler, stdin, stdout, on_output_closed=_serve_output_closed,
        ))
    except KeyboardInterrupt:
        # The interrupt hit the event loop itself rather than the
        # coroutine; in-flight output was flushed line-complete.
        print("interrupted; partial output is line-complete",
              file=sys.stderr)
        return 130
    if stats.interrupted:
        print("interrupted; partial output is line-complete",
              file=sys.stderr)
        return 130
    if stats.gave_up:
        print("too many undecodable reads; giving up", file=sys.stderr)
        return 1
    print(f"served {stats.served} page(s)", file=sys.stderr)
    return 0


# ----------------------------------------------------------------------- #
# Registry management
# ----------------------------------------------------------------------- #


def _open_registry(args):
    """The ``registry`` subcommands' store, or ``None`` (error printed)."""
    from repro.service import ArtifactRegistry

    try:
        return ArtifactRegistry(args.directory)
    except RegistryError as exc:
        print(str(exc), file=sys.stderr)
        return None


def cmd_registry_list(args: argparse.Namespace) -> int:
    registry = _open_registry(args)
    if registry is None:
        return 2
    try:
        pinned = registry.pinned()
        ids = registry.version_ids()
    except RegistryError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    if not ids:
        print("registry is empty", file=sys.stderr)
        return 0
    for version in ids:
        try:
            manifest = registry.manifest(version)
        except RegistryError as exc:
            print(f"{version}  !! {exc}")
            continue
        marker = "*" if version == pinned else " "
        print(
            f"{marker} {version}  {manifest.created}  "
            f"{manifest.source:<7}  "
            f"parent={manifest.parent or '-'}  "
            f"clusters={','.join(manifest.clusters) or '-'}  "
            f"router={'yes' if manifest.routed else 'no'}"
        )
    return 0


def cmd_registry_show(args: argparse.Namespace) -> int:
    import json

    registry = _open_registry(args)
    if registry is None:
        return 2
    try:
        manifest = registry.manifest(args.version)
        payload = manifest.to_dict()
        if args.stats:
            # Compile the version exactly as a deploy would and attach
            # each cluster's compiler stats (trie sharing + automaton
            # shape) to the printed manifest.
            payload["compiler_stats"] = {
                cluster: wrapper.stats.as_dict()
                for cluster, wrapper in sorted(
                    registry.compile(args.version).items()
                )
            }
    except RegistryError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def cmd_registry_diff(args: argparse.Namespace) -> int:
    import json

    registry = _open_registry(args)
    if registry is None:
        return 2
    try:
        diff = registry.diff(args.old, args.new)
    except RegistryError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    print(json.dumps(diff, indent=2, sort_keys=True))
    return 0


def cmd_registry_pin(args: argparse.Namespace) -> int:
    registry = _open_registry(args)
    if registry is None:
        return 2
    try:
        previous = registry.pinned()
        registry.pin(args.version)
    except RegistryError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    print(f"pinned {args.version} (was {previous or '(none)'})")
    return 0


def cmd_registry_rollback(args: argparse.Namespace) -> int:
    registry = _open_registry(args)
    if registry is None:
        return 2
    try:
        previous = registry.pinned()
        manifest = registry.rollback()
    except RegistryError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    print(f"pinned {manifest.version} (was {previous})")
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    """Statically analyze rule-set artifacts; exit 1 on gated findings.

    Targets are rule-set/artifact JSON files, cluster directories of
    them, and/or registry versions (``--registry``, every version
    unless ``--version`` narrows it).  Exit codes follow the compiler
    convention: 0 clean at the gate, 1 findings at or above the gate
    severity, 2 usage or I/O errors.
    """
    from repro.analysis import (
        analyze_path,
        analyze_registry,
        gate_findings,
        render_report,
        render_text,
    )

    if not args.paths and not args.registry:
        print(
            "nothing to lint: give rule-set paths and/or --registry DIR",
            file=sys.stderr,
        )
        return 2
    findings = []
    try:
        if args.registry:
            from repro.service import ArtifactRegistry

            registry = ArtifactRegistry(args.registry)
            versions = args.versions or None
            if versions:
                missing = [v for v in versions if not registry.exists(v)]
                if missing:
                    print(
                        f"no such version(s): {', '.join(missing)}",
                        file=sys.stderr,
                    )
                    return 2
            findings.extend(analyze_registry(registry, versions))
        for path in args.paths:
            target = Path(path)
            if not target.exists():
                print(f"no such file or directory: {path}", file=sys.stderr)
                return 2
            findings.extend(analyze_path(target))
    except RegistryError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    gated = gate_findings(findings, args.severity)
    if args.json:
        print(render_report(findings, gate=args.severity))
    else:
        text = render_text(findings)
        if text:
            print(text)
        print(
            f"lint: {len(findings)} finding(s), {len(gated)} at or "
            f"above {args.severity}",
            file=sys.stderr,
        )
    return 1 if gated else 0


# ----------------------------------------------------------------------- #
# Parser
# ----------------------------------------------------------------------- #


def _observability_arguments(parser) -> None:
    """``--progress`` / ``--metrics``, shared by batch and the shards."""
    parser.add_argument("--progress", type=int, default=0, metavar="N",
                        help="emit a JSONL progress line to stderr every "
                             "N pages (also every 10s while working; "
                             "0 disables)")
    parser.add_argument("--metrics", default="", metavar="PATH",
                        help="on exit, write the Prometheus text "
                             "exposition of this run's metrics here")


def _adaptation_arguments(parser) -> None:
    """The ``--adapt`` flag family shared by batch, serve and shard."""
    parser.add_argument("--adapt", action="store_true",
                        help="watch served traffic for drift and refit "
                             "the router online (needs a fitted router)")
    parser.add_argument("--drift-window", type=int, default=64,
                        help="observations per drift-detection window")
    parser.add_argument("--drift-threshold", type=float, default=None,
                        help="bad-signal fraction that trips a refit "
                             "(default: 0.5 per-cluster failures, "
                             "0.3 unroutable)")
    parser.add_argument("--drift-margin", type=float, default=0.0,
                        help="also count routed decisions with a "
                             "best-vs-runner-up margin below this as "
                             "drift signals (0 disables)")
    parser.add_argument("--adapt-spawn", action="store_true",
                        help="let a refit spawn a new cluster for an "
                             "unroutable cohort that resembles no "
                             "known profile")
    parser.add_argument("--adapt-log", default="",
                        help="JSONL audit log of drift/refit events "
                             "(shard commands append .shard-NNNN)")


def _registry_arguments(parser, canary: bool = False) -> None:
    """The ``--registry`` flag family (serve also gets the canary knobs)."""
    parser.add_argument("--registry", default="",
                        help="versioned artifact registry directory: "
                             "deploy its pinned version (an empty "
                             "registry is seeded with the artifact "
                             "this run would deploy)")
    parser.add_argument("--allow-findings", action="store_true",
                        help="publish artifacts past the lint gate "
                             "even with error-severity analyzer "
                             "findings (see docs/lint.md)")
    if canary:
        parser.add_argument("--canary-fraction", type=float, default=0.0,
                            help="fraction of served pages shadow-routed "
                                 "by a refit candidate before the "
                                 "promote/rollback verdict (0 promotes "
                                 "refits immediately; needs --adapt)")
        parser.add_argument("--canary-window", type=int, default=64,
                            help="paired shadow samples compared for a "
                                 "canary verdict")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="retrozilla",
        description="Semi-automated extraction of targeted data from web pages "
        "(Estiévenart et al., ICDE Workshops 2006 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="run the paper's worked example")
    demo.add_argument("--seed", type=int, default=0)
    demo.set_defaults(func=cmd_demo)

    generate = sub.add_parser("generate", help="write a synthetic site to disk")
    generate.add_argument("family", choices=["imdb", "shop", "news", "stocks"])
    generate.add_argument("output")
    generate.add_argument("--pages", type=int, default=30)
    generate.add_argument("--seed", type=int, default=0)
    generate.set_defaults(func=cmd_generate)

    cluster = sub.add_parser("cluster", help="cluster a directory of HTML files")
    cluster.add_argument("directory")
    cluster.add_argument("--show", type=int, default=5)
    cluster.set_defaults(func=cmd_cluster)

    build = sub.add_parser("build", help="build rules interactively")
    build.add_argument("directory")
    build.add_argument("components", nargs="+")
    build.add_argument("--cluster", default="cluster")
    build.add_argument("--repository", default="rules.json")
    build.add_argument("--sample-size", type=int, default=10)
    build.set_defaults(func=cmd_build)

    extract = sub.add_parser("extract", help="apply saved rules, emit XML")
    extract.add_argument("directory")
    extract.add_argument("--cluster", default="cluster")
    extract.add_argument("--repository", default="rules.json")
    extract.add_argument("--output", default="")
    extract.add_argument("--schema", default="")
    extract.set_defaults(func=cmd_extract)

    batch = sub.add_parser(
        "batch",
        help="serve a directory through the parallel extraction engine",
    )
    batch.add_argument("directory")
    batch.add_argument("--repository", default="rules.json")
    batch.add_argument("--jsonl", default="",
                       help="write records to this JSONL file "
                            "(default: stdout)")
    batch.add_argument("--xml-dir", default="",
                       help="write per-cluster Figure-5 XML documents here")
    batch.add_argument("--workers", type=int, default=2)
    batch.add_argument("--executor", choices=["thread", "process"],
                       default="thread")
    batch.add_argument("--chunk-size", type=int, default=16)
    batch.add_argument("--route", choices=["auto", "hint"], default="auto",
                       help="auto: fit a signature router from labelled "
                            "exemplars; hint: trust filename hints")
    batch.add_argument("--threshold", type=float, default=0.5,
                       help="router confidence threshold")
    batch.add_argument("--exemplars", type=int, default=8,
                       help="exemplar pages per cluster for router fitting")
    _observability_arguments(batch)
    _adaptation_arguments(batch)
    _registry_arguments(batch)
    batch.set_defaults(func=cmd_batch)

    shard = sub.add_parser(
        "shard",
        help="multi-host batch execution: plan / run / merge",
    )
    shard_sub = shard.add_subparsers(dest="shard_command", required=True)

    shard_plan = shard_sub.add_parser(
        "plan", help="split a corpus into N deterministic shards"
    )
    shard_plan.add_argument("directory")
    shard_plan.add_argument("--shards", type=int, default=2)
    shard_plan.add_argument("--strategy", choices=["hash", "range"],
                            default="hash",
                            help="hash: stable hash of the file name; "
                                 "range: contiguous index ranges")
    shard_plan.add_argument("--output", default="shard-plan.json")
    shard_plan.set_defaults(func=cmd_shard_plan)

    def shard_worker_arguments(shard_parser) -> None:
        """Engine/router knobs shared by ``shard run`` and ``resume``."""
        shard_parser.add_argument("--plan", default="shard-plan.json")
        shard_parser.add_argument("--repository", default="rules.json")
        shard_parser.add_argument("--output-dir", default="shards")
        shard_parser.add_argument("--format", choices=["jsonl", "xml"],
                                  default="jsonl",
                                  help="jsonl: one record file; xml: a "
                                       "directory of per-cluster Figure-5 "
                                       "documents + .index sidecars")
        shard_parser.add_argument("--workers", type=int, default=2)
        shard_parser.add_argument("--executor",
                                  choices=["thread", "process"],
                                  default="thread")
        shard_parser.add_argument("--chunk-size", type=int, default=16)
        shard_parser.add_argument("--route", choices=["auto", "hint"],
                                  default="auto")
        shard_parser.add_argument("--threshold", type=float, default=0.5)
        shard_parser.add_argument("--exemplars", type=int, default=8)
        _observability_arguments(shard_parser)
        _adaptation_arguments(shard_parser)
        _registry_arguments(shard_parser)

    shard_run = shard_sub.add_parser(
        "run", help="extract one shard (JSONL or XML output + manifest)"
    )
    shard_run.add_argument("directory")
    shard_run.add_argument("--shard", type=int, required=True)
    shard_worker_arguments(shard_run)
    shard_run.set_defaults(func=cmd_shard_run)

    shard_resume = shard_sub.add_parser(
        "resume",
        help="re-run only the failed/missing shards of an output directory",
    )
    shard_resume.add_argument("directory")
    shard_worker_arguments(shard_resume)
    shard_resume.add_argument("--no-verify", action="store_true",
                              help="trust existing outputs without "
                                   "re-checking content digests")
    shard_resume.set_defaults(func=cmd_shard_resume)

    shard_merge = shard_sub.add_parser(
        "merge",
        help="mergesort shard outputs into one deterministic stream",
    )
    shard_merge.add_argument(
        "inputs", nargs="+",
        help="shard output directories and/or manifest files",
    )
    shard_merge.add_argument("--format", choices=["jsonl", "xml"],
                             default="jsonl",
                             help="what the shards were run with; xml "
                                  "merges per-cluster documents by their "
                                  ".index sidecars")
    shard_merge.add_argument("--output", default="",
                             help="merged JSONL file (default: stdout) or, "
                                  "with --format xml, the output directory")
    shard_merge.add_argument("--no-verify", action="store_true",
                             help="skip shard content digest checks")
    shard_merge.set_defaults(func=cmd_shard_merge)

    serve = sub.add_parser(
        "serve",
        help='online loop: {"url","html"} JSON lines in, records out',
    )
    serve.add_argument("--repository", default="rules.json")
    serve.add_argument("--cluster", default="",
                       help="serve everything with this cluster's rules")
    serve.add_argument("--exemplars-dir", default="",
                       help="directory of hint-named pages to fit the router")
    serve.add_argument("--threshold", type=float, default=0.5)
    serve.add_argument("--exemplars", type=int, default=8)
    serve.add_argument("--http", default="", metavar="HOST:PORT",
                       help="serve over HTTP instead of stdin "
                            "(POST /extract, streaming POST /batch, "
                            "GET /healthz, GET /metrics; port 0 picks "
                            "a free port)")
    serve.add_argument("--workers", type=int, default=1, metavar="N",
                       help="pre-fork N HTTP ingress children behind one "
                            "port (needs --http; SO_REUSEPORT kernel "
                            "balancing where available, one inherited "
                            "listener elsewhere)")
    serve.add_argument("--gateway", action="store_true",
                       help="the supervisor owns the public port and fans "
                            "POST /batch across the workers in fixed-size "
                            "slices, merged back in input order (needs "
                            "--http)")
    serve.add_argument("--gateway-slice", type=int, default=64,
                       metavar="LINES",
                       help="lines per gateway batch slice — the unit of "
                            "fan-out and crash re-run")
    serve.add_argument("--status-port", type=int, default=0,
                       help="--workers without --gateway: port for the "
                            "supervisor's aggregated /healthz and "
                            "/metrics (0 picks a free port; gateway mode "
                            "serves them on the main port)")
    serve.add_argument("--http-drain-timeout", type=float, default=30.0,
                       help="graceful-shutdown window: seconds in-flight "
                            "HTTP requests get to finish before their "
                            "connections are force-closed (size it for "
                            "the largest legitimate batch)")
    serve.add_argument("--max-inflight", type=int, default=8,
                       help="async front-ends: concurrent pages in flight "
                            "(the memory/backpressure bound)")
    serve.add_argument("--rate-limit", type=float, default=0.0,
                       help="admission control: sustained requests/second "
                            "allowed per client before 429 responses "
                            "(0 disables)")
    serve.add_argument("--rate-burst", type=int, default=None,
                       help="token-bucket burst size for --rate-limit "
                            "(default: ceil of the rate, at least 1)")
    serve.add_argument("--max-concurrent", type=int, default=0,
                       help="load shedding: in-flight request cap before "
                            "503 responses (0 disables)")
    serve.add_argument("--metrics", default="", metavar="PATH",
                       help="on exit, write the Prometheus text "
                            "exposition of this run's metrics here "
                            "(--http serves it live on GET /metrics)")
    _adaptation_arguments(serve)
    _registry_arguments(serve, canary=True)
    serve.set_defaults(func=cmd_serve, stdin=None, stdout=None)

    registry = sub.add_parser(
        "registry",
        help="inspect and manage a versioned artifact registry",
    )
    registry_sub = registry.add_subparsers(
        dest="registry_command", required=True
    )

    r_list = registry_sub.add_parser(
        "list", help="every version, oldest first (* marks the pin)"
    )
    r_list.add_argument("directory")
    r_list.set_defaults(func=cmd_registry_list)

    r_show = registry_sub.add_parser(
        "show", help="one version's manifest as JSON"
    )
    r_show.add_argument("directory")
    r_show.add_argument("version")
    r_show.add_argument("--stats", action="store_true",
                        help="compile the version's wrappers and "
                             "include per-cluster compiler stats "
                             "(trie sharing and automaton shape)")
    r_show.set_defaults(func=cmd_registry_show)

    r_diff = registry_sub.add_parser(
        "diff", help="structural diff between two versions"
    )
    r_diff.add_argument("directory")
    r_diff.add_argument("old")
    r_diff.add_argument("new")
    r_diff.set_defaults(func=cmd_registry_diff)

    r_pin = registry_sub.add_parser(
        "pin", help="atomically point CURRENT at a version"
    )
    r_pin.add_argument("directory")
    r_pin.add_argument("version")
    r_pin.set_defaults(func=cmd_registry_pin)

    r_rollback = registry_sub.add_parser(
        "rollback",
        help="re-pin the current version's parent (undo a promote)",
    )
    r_rollback.add_argument("directory")
    r_rollback.set_defaults(func=cmd_registry_rollback)

    lint = sub.add_parser(
        "lint",
        help="statically analyze rule-set artifacts (RW error codes)",
        description="Walk rule-set files, cluster directories and/or "
                    "registry versions and report findings with stable "
                    "RW codes (docs/lint.md). Exit 0 when clean at the "
                    "gate severity, 1 on gated findings, 2 on usage or "
                    "I/O errors.",
    )
    lint.add_argument("paths", nargs="*",
                      help="rule-set/artifact JSON files or directories "
                           "of them")
    lint.add_argument("--registry", default="",
                      help="also lint versions of this registry "
                           "directory (integrity included)")
    lint.add_argument("--version", action="append", dest="versions",
                      metavar="VERSION",
                      help="limit --registry linting to this version "
                           "(repeatable; default: all versions)")
    lint.add_argument("--json", action="store_true",
                      help="emit the machine-readable findings report "
                           "instead of text")
    lint.add_argument("--severity", default="warning",
                      choices=["info", "warning", "error"],
                      help="findings at or above this severity fail "
                           "the lint (default: warning)")
    lint.set_defaults(func=cmd_lint)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Downstream pager/head closed its end; exit quietly with the
        # conventional SIGPIPE status instead of a traceback.  stdout is
        # already unusable, so detach it before the interpreter's
        # shutdown flush can raise a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
