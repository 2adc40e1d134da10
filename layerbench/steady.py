"""Steadiness check: run one workload N times and report each metric's spread.

    python3 layerbench/steady.py --workload serve_mix --runs 10 [--first-seed 1]
        [--seconds S] [--trace 0|1] [--out summary.json]

Each run uses another seed (``first-seed``, ``first-seed + 1``, ...).
For every metric it prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the distance
between the quartiles as a share of the median, next to the metric's
bound from ``BENCHMARK.json``.  A spread must stay within its bound,
and comfortably under a third of it, for a regression check on that
metric to mean anything.  ``--out`` writes every run's values and the
summary as one JSON document (the form a ``BENCH_*.json`` trajectory
file takes).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from estimators import spread

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def _bounds(spec: dict, trace: int) -> dict:
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m.get("bound") for m in spec[key]}


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark invocation; returns its final JSON line."""
    completed = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
        timeout=seconds + 600,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def summarize(runs: list[dict], bounds: dict) -> dict:
    """Per metric: values, median, quartiles, spread and bound."""
    summary = {}
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name]["value"] for run in runs]
        row = spread(values)
        row.update(unit=runs[0]["metrics"][name]["unit"],
                   bound=bounds.get(name), values=values)
        summary[name] = row
    return summary


def render(workload: str, summary: dict, runs: list[dict]) -> str:
    """The table the command prints."""
    lines = [
        f"{workload}: {len(runs)} runs, attempted "
        f"{sum(r['attempted'] for r in runs)}, failed "
        f"{sum(r['failed'] for r in runs)}, all correct: "
        f"{all(r['correct'] for r in runs)}",
        f"{'metric':<34}{'median':>12}{'q1':>12}{'q3':>12}"
        f"{'spread':>9}{'bound':>7}  verdict",
    ]
    for name, row in summary.items():
        bound = row["bound"]
        if bound is None:
            verdict = "no bound"
        elif row["spread"] <= bound / 3:
            verdict = "steady"
        elif row["spread"] <= bound:
            verdict = "within bound"
        else:
            verdict = "TOO NOISY"
        lines.append(
            f"{name:<34}{row['median']:>12.5g}{row['q1']:>12.5g}"
            f"{row['q3']:>12.5g}{row['spread']:>9.3f}"
            f"{'' if bound is None else bound:>7}  {verdict}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=0,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default="")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    runs = []
    for offset in range(args.runs):
        seed = args.first_seed + offset
        runs.append(run_once(args.workload, seed, seconds, args.trace))
        print(f"run {offset + 1}/{args.runs} seed {seed}: " + ", ".join(
            f"{k}={v['value']:.5g}" for k, v in runs[-1]["metrics"].items()
        ), flush=True)
    summary = summarize(runs, _bounds(spec, args.trace))
    print(render(args.workload, summary, runs))
    if args.out:
        Path(args.out).write_text(json.dumps({
            "workload": args.workload, "seconds": seconds,
            "trace": args.trace, "first_seed": args.first_seed,
            "runs": runs, "summary": summary,
        }, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
