"""Batch windows, HTTP judging, and metrics reported as declared."""

import json

import pytest

import estimators as est
import run
from harness import drained_windows
from pages import Page
from workloads import judge_http

TRUTH = {"title": ["Alien"]}


def test_drained_windows_cut_at_the_first_mark_a_window_later():
    marks = [(10.0, 0), (10.5, 64), (11.0, 112), (11.2, 160),
             (11.4, 208), (12.0, 256)]
    # 112 pages from the run() call, then 144 more.
    assert drained_windows(marks, 100) == [(112, 1.0), (144, 1.0)]
    assert drained_windows(marks[:3], 200) == []


def test_drained_windows_keep_the_first_window_from_the_run_call():
    # The first mark comes late: executor start and first compiles.
    marks = [(0.0, 0), (0.75, 16), (1.0, 32), (1.25, 48), (1.5, 64)]
    assert drained_windows(marks, 32) == [(32, 1.0), (32, 0.5)]


def test_http_answers_are_judged_with_their_status():
    page = Page(url="http://x/", html="", family="imdb-movies", truth=TRUTH)
    body = json.dumps({"url": "http://x/", "cluster": "imdb-movies",
                       "values": {"title": ["Alien"]}, "failures": []})
    tally = est.Tally()
    judge_http(tally, page, 200, body.encode())
    judge_http(tally, page, 503, b'{"error": "overloaded"}')
    assert tally.counts == {est.OK: 1, est.HTTP_STATUS: 1}


def test_declared_metrics_come_from_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    timed = run.declared_metrics(0)
    assert list(timed) == [m["name"] for m in spec["end_to_end"]]
    assert timed["setup_s"] == "s"
    traced = run.declared_metrics(1)
    assert list(traced) == [m["name"] for m in spec["per_layer"]]


def test_report_metrics_refuses_undeclared_and_unmeasured_metrics():
    declared = {"a_ms": "ms", "b": "count"}
    with pytest.raises(RuntimeError, match="not in BENCHMARK.json"):
        run.report_metrics({"a_ms": 1.0, "c": 2.0}, declared, 0)
    with pytest.raises(RuntimeError, match="not measured"):
        run.report_metrics({"a_ms": 1.0}, declared, 0)


def test_traced_run_names_what_it_did_not_exercise_not_what_read_zero():
    declared = {"a_ms": "ms", "frac": "frac", "b": "count"}
    metrics, missing = run.report_metrics({"frac": 0.0, "a_ms": 1.5},
                                          declared, 1)
    assert missing == ["b"]
    assert list(metrics) == ["a_ms", "frac", "b"]
    assert metrics["frac"] == {"value": 0.0, "unit": "frac"}
    assert metrics["b"] == {"value": 0.0, "unit": "count"}
