"""How one run's samples become its metrics, and how answers are judged.

This host's speed is bimodal: a fixed loop alternates between a fast
and a slow mode about 40% apart, and the share of each drifts over
tens of seconds, so whole runs can land mostly in one mode.  A median
then flips between the modes from run to run, and an extreme (the
fastest round or send) chases the fast mode, whose own speed varies.
Measured across runs, the slow quartile moved least (README.md,
"Steadiness", has the numbers).  So:

* throughput is the lower quartile over the run's fixed-size rounds of
  each round's rate: the rate sustained in three rounds of four;
* latency is each distinct request's upper-quartile send; the median
  and the tail are then taken over requests;
* set-up time is the median of the run's cold starts, which are
  spread through the run;
* quartiles are nearest ranks on the slow side, never interpolated;
* the tail is the highest percentile with at least
  :data:`TAIL_BEYOND` samples beyond it, reported with its percentile
  and sample count.

A request that fails is never a latency sample: it counts against
``failed`` instead.
"""

from __future__ import annotations

import math
import statistics
from typing import Hashable, Iterable, Mapping, Optional, Sequence

#: Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10

#: Outcome of one answer (``OK`` is the only correct one).
OK = "ok"
HTTP_STATUS = "http_status"
ERROR = "error"
UNROUTABLE = "unroutable"
MISROUTE = "misroute"
WRONG_VALUE = "wrong_value"
MISSING = "missing"


def lower_quartile(values: Sequence[float]) -> float:
    """First quartile by rank, rounded toward the low end.

    Nearest rank, never interpolated: over a handful of samples (a
    request's few sends), interpolating would pull the estimate toward
    the fast mode this estimator exists to avoid.
    """
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    return ordered[(len(ordered) - 1) // 4]


def upper_quartile(values: Sequence[float]) -> float:
    """Third quartile by rank, rounded toward the high end."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    return ordered[-1 - (len(ordered) - 1) // 4]


def round_rates(rounds: Sequence[tuple[int, float, float]]) -> dict:
    """Page and KB rates over rounds of ``(pages, kb, seconds)``: the
    rate three rounds in four sustain (the lower quartile)."""
    if not rounds:
        raise ValueError("no timed rounds")
    for pages, kb, seconds in rounds:
        if pages <= 0 or kb <= 0 or seconds <= 0:
            raise ValueError(f"bad round {(pages, kb, seconds)}")
    return {
        "pages_per_s": lower_quartile(
            [pages / seconds for pages, _, seconds in rounds]
        ),
        "kb_per_s": lower_quartile(
            [kb / seconds for _, kb, seconds in rounds]
        ),
        "rounds": len(rounds),
    }


def request_latencies(
    samples: Iterable[tuple[Hashable, float]]
) -> dict[Hashable, float]:
    """Each distinct request's upper-quartile latency over its sends."""
    sends: dict[Hashable, list[float]] = {}
    for key, seconds in samples:
        sends.setdefault(key, []).append(seconds)
    return {key: upper_quartile(values) for key, values in sends.items()}


def tail_rank(n: int, beyond: int = TAIL_BEYOND) -> Optional[int]:
    """0-based rank of the tail sample among ``n`` sorted samples.

    The tail is the highest sample that still has ``beyond`` samples
    ranked above it; ``None`` when ``n <= beyond``.
    """
    if n <= beyond:
        return None
    return n - beyond - 1


def latency_summary(
    per_request: Mapping[Hashable, float], beyond: int = TAIL_BEYOND
) -> dict:
    """Median and tail (in ms) over distinct requests' latencies.

    The tail's percentile is ``100 * (rank + 1) / n``; it is recorded
    with the sample count because it depends on ``n``.
    """
    values = sorted(seconds * 1000.0 for seconds in per_request.values())
    rank = tail_rank(len(values), beyond)
    if rank is None:
        raise ValueError(
            f"{len(values)} distinct requests: a tail needs more than "
            f"{beyond}"
        )
    return {
        "p50_ms": statistics.median(values),
        "tail_ms": values[rank],
        "tail_percentile": 100.0 * (rank + 1) / len(values),
        "samples": len(values),
    }


def median_of(values: Sequence[float]) -> float:
    """Median, refusing an empty sample."""
    if not values:
        raise ValueError("no samples")
    return statistics.median(values)


def classify_record(
    record: Optional[dict],
    family: str,
    truth: Mapping[str, Sequence[str]],
    status: int = 200,
) -> str:
    """Judge one answer: :data:`OK` or the cause of failure.

    ``record`` is the decoded answer (``None`` when the page produced
    none).  It is correct only when it is a served record of the
    page's own cluster whose values equal the generator's ground truth
    for every component.
    """
    if status != 200:
        return HTTP_STATUS
    if record is None:
        return MISSING
    if "error" in record:
        return ERROR
    cluster = record.get("cluster")
    if cluster == UNROUTABLE:
        return UNROUTABLE
    if cluster != family:
        return MISROUTE
    values = record.get("values", {})
    for component, expected in truth.items():
        if list(values.get(component, [])) != list(expected):
            return WRONG_VALUE
    return OK


class Tally:
    """Judged answers: counts by outcome, plus the first few failures."""

    #: Failing answers kept with their URL, family and cause.
    KEEP = 20

    def __init__(self) -> None:
        self.counts: dict[str, int] = {}
        self.failures: list[dict] = []

    @property
    def attempted(self) -> int:
        """Answers judged."""
        return sum(self.counts.values())

    @property
    def failed(self) -> int:
        """Answers that were not correct."""
        return self.attempted - self.counts.get(OK, 0)

    def judge(self, page, record: Optional[dict], status: int = 200,
              unroutable: bool = False) -> str:
        """Judge ``page``'s answer and count it; returns the cause.

        ``unroutable`` marks a page the runtime reported as unroutable,
        which a batch run answers with no record at all.
        """
        cause = classify_record(record, page.family, page.truth, status)
        if cause == MISSING and unroutable:
            cause = UNROUTABLE
        self.counts[cause] = self.counts.get(cause, 0) + 1
        if cause != OK and len(self.failures) < self.KEEP:
            self.failures.append({"url": page.url, "family": page.family,
                                  "size": page.size, "cause": cause})
        return cause

    def to_dict(self) -> dict:
        """JSON form, for a harness result file."""
        return {"counts": self.counts, "failures": self.failures}

    def merge(self, data: dict) -> None:
        """Add what :meth:`to_dict` of another tally recorded."""
        for cause, n in data["counts"].items():
            self.counts[cause] = self.counts.get(cause, 0) + n
        room = max(self.KEEP - len(self.failures), 0)
        self.failures.extend(data["failures"][:room])


def spread(values: Sequence[float]) -> dict:
    """Median, quartiles and inter-quartile distance over median."""
    if len(values) < 2:
        raise ValueError("spread needs at least two values")
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / median if median else math.inf,
    }
