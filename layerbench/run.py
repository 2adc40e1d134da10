"""End-to-end benchmark of raw-HTML extraction, with a layer trace.

Run from the repository root::

    python3 layerbench/run.py --workload serve_mix --seed 1 --seconds 20 --trace 0
    python3 layerbench/run.py --workload batch_mix --seed 1 --seconds 20 --trace 1

``--trace 0`` times the workload end to end; ``--trace 1`` makes the
separate traced run that splits the same corpus by layer.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit), with every
``end_to_end`` (trace 0) or ``per_layer`` (trace 1) metric that
``BENCHMARK.json`` declares, under its declared unit.  The full result,
with sample counts and failures by cause, is written to ``--results``
(default ``.layerbench/results/<workload>-seed<N>-trace<T>.json``).

The rules and router are induced once per source tree and cached under
``.layerbench/``, as are the generated inputs of each workload and
seed.  See ``layerbench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
STATE = ROOT / ".layerbench"

WORKLOADS = ("serve_mix", "batch_mix")

#: serve_mix: rounds x pages per family per round (600 pages).
SERVE_ROUNDS, SERVE_PER_FAMILY = 4, 30
#: batch_mix: batches x pages per family per batch (2400 pages).
BATCH_ROUNDS, BATCH_PER_FAMILY = 24, 20


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", default="",
                        help="where to write the result document")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def _artifact(cache: Path) -> tuple[Path, Path]:
    """The cached registry and rules file, built on first use.

    A new source tree gets a new cache; caches of other trees go.
    """
    from corpus import publish_artifact

    final = cache / "artifact"
    if not (final / "rules.json").is_file():
        for stale in cache.parent.glob("src-*"):
            if stale != cache:
                shutil.rmtree(stale, ignore_errors=True)
        building = cache / "artifact.building"
        shutil.rmtree(building, ignore_errors=True)
        building.mkdir(parents=True)
        publish_artifact(building / "registry", building / "rules.json")
        shutil.rmtree(final, ignore_errors=True)
        building.rename(final)
    return final / "registry", final / "rules.json"


def _inputs(cache: Path, workload: str, seed: int) -> Path:
    """The workload's generated inputs for ``seed``, built on first use.

    serve_mix gets one JSON file of pages; batch_mix a directory of
    HTML files per batch plus ``rounds.json`` with the ground truth, and
    ``padded.json``, the padded corpus its traced run takes.
    """
    from corpus import balanced_rounds, padded_corpus
    from pages import batch_file, save_pages

    inputs = cache / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    if workload == "serve_mix":
        path = inputs / f"serve_mix-{seed}.json"
        if not path.is_file():
            save_pages(path, balanced_rounds(seed, SERVE_ROUNDS,
                                             SERVE_PER_FAMILY))
        return path
    final = inputs / f"batch_mix-{seed}"
    if not (final / "rounds.json").is_file():
        building = inputs / f"batch_mix-{seed}.building"
        shutil.rmtree(building, ignore_errors=True)
        rounds = balanced_rounds(seed, BATCH_ROUNDS, BATCH_PER_FAMILY,
                                 salt=3)
        for round_id, pages in enumerate(rounds):
            for index, page in enumerate(pages):
                path = batch_file(building, round_id, index)
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(page.html, encoding="utf-8")
        save_pages(building / "rounds.json", rounds)
        save_pages(building / "padded.json", padded_corpus(seed))
        shutil.rmtree(final, ignore_errors=True)
        building.rename(final)
    return final


def _run(args, ctx, inputs: Path):
    import workloads
    from pages import load_pages

    if args.trace:
        import layers

        return layers.traced(args.workload, ctx, inputs, args.seconds)
    if args.workload == "serve_mix":
        return workloads.serve_mix(ctx, load_pages(inputs), args.seconds)
    return workloads.batch_mix(ctx, inputs, args.seconds)


def declared_metrics(trace: int) -> dict[str, str]:
    """Name -> unit of the metrics ``BENCHMARK.json`` declares for a
    timed (``end_to_end``) or traced (``per_layer``) run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"]
            for metric in spec["per_layer" if trace else "end_to_end"]}


def report_metrics(measured: dict, declared: dict, trace: int) -> tuple:
    """``(metrics with units, names not exercised)`` in declared order.

    Every measured metric must be declared.  A timed run must measure
    every declared metric; a traced run reports what its workload does
    not exercise as 0 and names it.
    """
    undeclared = sorted(set(measured) - set(declared))
    if undeclared:
        raise RuntimeError(f"metrics not in BENCHMARK.json: {undeclared}")
    missing = [name for name in declared if name not in measured]
    if missing and not trace:
        raise RuntimeError(f"end-to-end metrics not measured: {missing}")
    return {
        name: {"value": measured.get(name, 0.0), "unit": unit}
        for name, unit in declared.items()
    }, missing


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"program sources not found under {SRC}", file=sys.stderr)
        return 2
    declared = declared_metrics(args.trace)
    sys.path.insert(0, str(SRC))
    from harness import exit_on_sigterm
    from workloads import adopt_orphans, reap_children

    # Every process the run starts, and every process those leave
    # behind, has ended before this one does, also when it is stopped
    # with SIGTERM.
    exit_on_sigterm()
    adopt_orphans()
    try:
        return _measure(args, declared)
    finally:
        reap_children()


def _measure(args, declared: dict) -> int:
    """Build or load the inputs, run the workload, print the result."""
    from corpus import source_key
    from workloads import Context

    cache = STATE / f"src-{source_key()}"
    registry, rules = _artifact(cache)
    inputs = _inputs(cache, args.workload, args.seed)
    work = STATE / "work"
    work.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    ctx = Context(root=ROOT, env=env, registry=registry, rules=rules,
                  work=work)
    outcome = _run(args, ctx, inputs)
    tally = outcome.tally
    correct = tally.attempted > 0 and tally.failed == 0 and (
        outcome.details.get("byte_identical", True)
    )
    metrics, not_exercised = report_metrics(outcome.metrics, declared,
                                            args.trace)
    if args.trace:
        outcome.details["not_exercised"] = not_exercised
    document = {
        "workloads": {args.workload: {
            "correct": correct,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "answers_by_cause": tally.counts,
            "failures": tally.failures,
            "metrics": metrics,
            "details": outcome.details,
        }},
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }
    results = Path(args.results) if args.results else (
        STATE / "results"
        / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    results.parent.mkdir(parents=True, exist_ok=True)
    results.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n",
                       encoding="utf-8")
    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']:.6g} "
              f"{metric['unit']}")
    print(f"{args.workload} attempted = {tally.attempted}, "
          f"failed = {tally.failed} {tally.counts}")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
