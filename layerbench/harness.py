"""The process under test for batch_mix, and the set-up probes.

``run.py`` launches this file in a fresh interpreter, so what it
measures (set-up phases, peak RSS, busy time) belongs to the program
and not to the benchmark's generator.  Modes:

* ``ready``: build what a CLI command builds before it reads its first
  page, start its executor, print one JSON line with the phase times,
  and exit.  The line is printed only once the executor has started,
  so launch-to-line is the command's whole set-up.
* ``batch``: the ``batch`` composition (directory source, the
  registry's router, ordered JSONL sink, process executor, one worker
  per CPU) as one ``run()`` over the corpus, cycled until the
  deadline (at least once).  ``run()``'s progress callback, called after every
  drained chunk, cuts the run into windows of about one corpus batch.
  ``--keep-records`` leaves the JSONL output in place for the traced
  run to compare against.

Results go to ``--out`` as one JSON document.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import signal
import sys
import time
from pathlib import Path

from pages import batch_file

KINDS = ("batch", "serve")


def exit_on_sigterm() -> None:
    """Turn SIGTERM into ``SystemExit``, so that ``finally`` blocks run.

    Stopped this way, ``run()`` shuts its pool down and unlinks its
    shared-memory segments, and a generator stops what it started.
    """
    def handler(signum, _frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, handler)


def _now() -> float:
    return time.perf_counter()


def _rss_mb(who: int) -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(who).ru_maxrss / 1024.0


def cpu_seconds(who: int) -> float:
    """User plus system CPU time of ``RUSAGE_SELF`` or ``_CHILDREN``."""
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def build(kind: str, registry_dir: str, rules_path: str):
    """What ``batch``/``serve`` build before their first page, timed.

    Returns ``(repository, router, target, phases)``; ``target`` is the
    runtime (batch) or the serve handler (serve).
    """
    phases = {}
    started = _now()
    import repro.cli  # noqa: F401  (the import every CLI command pays)
    from repro.core.repository import RuleRepository
    from repro.service import (
        ArtifactRegistry,
        ServeHandler,
        StreamingRuntime,
    )

    phases["import_ms"] = (_now() - started) * 1000
    started = _now()
    RuleRepository.load(rules_path)
    registry = ArtifactRegistry(registry_dir)
    version = registry.pinned()
    repository, router, _ = registry.load(version)
    phases["registry_load_ms"] = (_now() - started) * 1000
    started = _now()
    if kind == "serve":
        target = ServeHandler(repository, router=router,
                              artifact_version=version)
    else:
        target = StreamingRuntime(
            repository, router=router, workers=os.cpu_count() or 1,
            executor="process", chunk_size=16, ordered=True,
        )
    phases["compile_ms"] = (_now() - started) * 1000
    return repository, router, target, phases


def _pool_start_ms(kind: str, target, sample: str) -> float:
    """Cost of starting the executor the command uses.

    serve: ``HttpFrontEnd.start()``.  batch: a one-page ``run()``,
    since ``run()`` starts (and joins) its process pool; that covers
    forking the workers, their initializer, one worker's compile of
    the page's cluster and the pool's shutdown.
    """
    if kind == "serve":
        import asyncio

        from repro.service import HttpFrontEnd

        async def start_stop() -> float:
            front = HttpFrontEnd(target, "127.0.0.1", 0)
            started = _now()
            await front.start()
            elapsed = _now() - started
            front.stop()
            await front.shutdown()
            return elapsed

        return asyncio.run(start_stop()) * 1000
    from repro.service import IterablePageSource
    from repro.sites.page import WebPage

    page = WebPage(url="file:///probe.html",
                   html=Path(sample).read_text(encoding="utf-8"))
    started = _now()
    target.run(IterablePageSource([page]))
    return (_now() - started) * 1000


def cmd_ready(args) -> int:
    if args.kind == "batch" and not args.sample:
        raise SystemExit("ready --kind batch needs --sample")
    _, _, target, phases = build(args.kind, args.registry, args.rules)
    phases["pool_start_ms"] = _pool_start_ms(args.kind, target, args.sample)
    print(json.dumps({"ready": phases}), flush=True)
    return 0


def load_file(path: Path):
    """A corpus file as ``batch`` reads it: file URI, no hint."""
    from repro.sites.page import WebPage

    return WebPage(url=path.resolve().as_uri(),
                   html=path.read_text(encoding="utf-8"))


def drained_windows(marks: list[tuple[float, int]],
                    size: int) -> list[tuple[int, float]]:
    """``(pages, seconds)`` of each window of at least ``size`` pages.

    ``marks`` are ``(time, pages drained so far)``, starting with the
    ``run()`` call at 0 pages, so the first window carries the executor
    start and the workers' first compiles, as the first pages of a
    ``batch`` invocation do.  A window ends at the first mark ``size``
    pages after the previous end (chunks drain whole, so a window
    holds up to one chunk more); a last, short window is dropped.
    """
    windows = []
    begin_time, begin_pages = marks[0]
    for now, pages in marks[1:]:
        if pages - begin_pages >= size:
            windows.append((pages - begin_pages, now - begin_time))
            begin_time, begin_pages = now, pages
    return windows


def cmd_batch(args) -> int:
    from estimators import Tally
    from pages import load_pages

    from repro.service import JsonlSink, LoadingPageSource

    _, _, runtime, _ = build("batch", args.registry, args.rules)
    corpus_dir = Path(args.corpus)
    rounds = load_pages(corpus_dir / "rounds.json")
    size = len(rounds[0])
    total = size * len(rounds)
    out_path = Path(args.out).with_suffix(".jsonl")

    def locate(position: int) -> tuple[int, int]:
        return divmod(position % total, size)

    def items(deadline: float):
        # At least one pass, so that even a short run has a window for
        # most corpus batches.
        position = 0
        while _now() < deadline or position < total:
            yield position, batch_file(corpus_dir, *locate(position))
            position += 1

    gc.collect()
    cpu_self = cpu_seconds(resource.RUSAGE_SELF)
    cpu_children = cpu_seconds(resource.RUSAGE_CHILDREN)
    started = _now()
    marks = [(started, 0)]

    def progress(report) -> None:
        marks.append((_now(), sum(stats.pages for stats
                                  in report.per_cluster.values())))

    source = LoadingPageSource(items(started + args.seconds), load_file)
    with JsonlSink(out_path) as sink:
        report = runtime.run(source, sink, on_progress=progress)
    elapsed = _now() - started
    # run() joins its pool, so the workers' CPU time and peak RSS are in
    # RUSAGE_CHILDREN by now.  Read both before the records below are
    # loaded, which would count the benchmark's memory as the program's.
    busy = [elapsed, cpu_seconds(resource.RUSAGE_SELF) - cpu_self,
            cpu_seconds(resource.RUSAGE_CHILDREN) - cpu_children]
    # The parent plus its largest worker.
    rss_mb = _rss_mb(resource.RUSAGE_SELF) + _rss_mb(resource.RUSAGE_CHILDREN)
    records = {}
    with open(out_path, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            records[record["index"]] = record
    if not args.keep_records:
        out_path.unlink()
    tally = Tally()
    unroutable = set(report.unroutable)
    for position in range(source.yielded):
        round_id, index = locate(position)
        tally.judge(rounds[round_id][index], records.get(position),
                    unroutable=batch_file(corpus_dir, round_id, index)
                    .resolve().as_uri() in unroutable)
    # Chunks drain by cluster, so a window's pages are not known one
    # by one; every corpus batch has the same family mix, so its KB is
    # its page count times the corpus's mean page size.  Window k is
    # keyed by its place in the corpus cycle.
    kb_per_page = sum(p.kb for chunk in rounds for p in chunk) / total
    windows = [
        [k % len(rounds), pages, pages * kb_per_page, seconds]
        for k, (pages, seconds) in enumerate(drained_windows(marks, size))
    ]
    result = {
        "windows": windows,
        "verdict": tally.to_dict(),
        "rss_mb": rss_mb,
        "busy": busy,
        "pages": source.yielded,
        "workers": runtime.workers,
        "records": str(out_path) if args.keep_records else None,
    }
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in ("ready", "batch"):
        one = sub.add_parser(mode)
        one.add_argument("--registry", required=True)
        one.add_argument("--rules", required=True)
        if mode == "ready":
            one.add_argument("--kind", choices=KINDS, required=True)
            one.add_argument("--sample", default="",
                             help="HTML file the batch pool start runs")
        else:
            one.add_argument("--corpus", required=True)
            one.add_argument("--seconds", type=float, required=True)
            one.add_argument("--out", required=True)
            one.add_argument("--keep-records", action="store_true",
                             help="keep the JSONL output beside --out")
    args = parser.parse_args(argv)
    exit_on_sigterm()
    return {"ready": cmd_ready, "batch": cmd_batch}[args.mode](args)


if __name__ == "__main__":
    sys.exit(main())
