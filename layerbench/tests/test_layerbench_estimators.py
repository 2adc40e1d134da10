"""The benchmark's estimators and its judgement of answers."""

import pytest

import estimators as est
from pages import Page

TRUTH = {"title": ["Alien"], "genres": ["Horror", "Sci-Fi"], "aka": []}


def served(cluster="imdb-movies", **values):
    record_values = {"title": ["Alien"], "genres": ["Horror", "Sci-Fi"],
                     "aka": []}
    record_values.update(values)
    return {"url": "http://x/", "cluster": cluster, "values": record_values,
            "failures": []}


def test_tail_rank_leaves_exactly_ten_samples_beyond():
    assert est.tail_rank(10) is None
    assert est.tail_rank(11) == 0
    assert est.tail_rank(600) == 589
    n = 35
    assert n - 1 - est.tail_rank(n) == est.TAIL_BEYOND


def test_latency_summary_reports_tail_percentile_and_count():
    per_request = {i: (i + 1) / 1000 for i in range(600)}  # 1..600 ms
    summary = est.latency_summary(per_request)
    assert summary["p50_ms"] == pytest.approx(300.5)
    # 591..600 ms lie beyond the tail: exactly ten samples.
    assert summary["tail_ms"] == pytest.approx(590.0)
    assert summary["tail_percentile"] == pytest.approx(100 * 590 / 600)
    assert summary["samples"] == 600


def test_latency_summary_refuses_a_sample_without_a_tail():
    with pytest.raises(ValueError):
        est.latency_summary({i: 0.001 for i in range(10)})


def test_quartiles_are_ranks_rounded_toward_the_slow_side():
    values = [4.0, 1.0, 3.0, 2.0, 5.0]
    assert est.lower_quartile(values) == 2.0
    assert est.upper_quartile(values) == 4.0
    seven = [7.0, 1.0, 6.0, 2.0, 5.0, 3.0, 4.0]
    assert est.lower_quartile(seven) == 2.0
    assert est.upper_quartile(seven) == 6.0
    assert est.upper_quartile([1.0, 2.0, 3.0, 4.0]) == 4.0
    assert est.lower_quartile([7.0]) == est.upper_quartile([7.0]) == 7.0
    with pytest.raises(ValueError):
        est.upper_quartile([])


def test_round_rates_are_the_rate_three_rounds_in_four_sustain():
    rounds = [(100, 50.0, 1.0), (100, 60.0, 0.5), (100, 40.0, 2.0),
              (100, 25.0, 0.25), (100, 10.0, 4.0)]
    rates = est.round_rates(rounds)
    # page rates 100, 200, 50, 400, 25 -> lower quartile 50
    assert rates["pages_per_s"] == pytest.approx(50.0)
    # KB rates 50, 120, 20, 100, 2.5 -> lower quartile 20
    assert rates["kb_per_s"] == pytest.approx(20.0)
    assert rates["rounds"] == 5


@pytest.mark.parametrize("rounds", [[], [(0, 1.0, 1.0)], [(5, 1.0, 0.0)]])
def test_round_rates_refuse_empty_or_degenerate_rounds(rounds):
    with pytest.raises(ValueError):
        est.round_rates(rounds)


def test_request_latency_is_each_requests_upper_quartile_send():
    samples = [("a", 0.003), ("b", 0.005), ("a", 0.001), ("a", 0.002),
               ("a", 0.004), ("a", 0.005)]
    assert est.request_latencies(samples) == {"a": 0.004, "b": 0.005}


@pytest.mark.parametrize("record, status, cause", [
    (served(), 200, est.OK),
    (served(), 503, est.HTTP_STATUS),
    (None, 200, est.MISSING),
    ({"error": "boom", "url": "http://x/"}, 200, est.ERROR),
    ({"url": "http://x/", "cluster": "unroutable", "values": {},
      "failures": []}, 200, est.UNROUTABLE),
    (served(cluster="shop-products"), 200, est.MISROUTE),
    (served(title=["Aliens"]), 200, est.WRONG_VALUE),
    (served(genres=["Sci-Fi", "Horror"]), 200, est.WRONG_VALUE),
    (served(aka=["Alien 1"]), 200, est.WRONG_VALUE),
])
def test_classify_record_names_the_cause(record, status, cause):
    assert est.classify_record(record, "imdb-movies", TRUTH, status) == cause


def test_classify_record_treats_an_absent_component_as_empty():
    record = served()
    del record["values"]["aka"]
    assert est.classify_record(record, "imdb-movies", TRUTH) == est.OK
    del record["values"]["title"]
    assert est.classify_record(record, "imdb-movies", TRUTH) == (
        est.WRONG_VALUE
    )


def test_spread_is_interquartile_distance_over_median():
    row = est.spread([1.0, 2.0, 3.0, 4.0, 5.0])
    assert row["median"] == 3.0
    assert (row["q1"], row["q3"]) == (1.5, 4.5)
    assert row["spread"] == pytest.approx(1.0)


def test_tally_counts_causes_and_marks_unroutable_batch_pages():
    page = Page(url="http://x/", html="", family="imdb-movies", truth=TRUTH)
    tally = est.Tally()
    tally.judge(page, served())
    tally.judge(page, None, unroutable=True)
    tally.judge(page, None)
    tally.judge(page, served(), status=500)
    assert tally.counts == {est.OK: 1, est.UNROUTABLE: 1, est.MISSING: 1,
                            est.HTTP_STATUS: 1}
    assert (tally.attempted, tally.failed) == (4, 3)
    assert [f["cause"] for f in tally.failures] == [
        est.UNROUTABLE, est.MISSING, est.HTTP_STATUS,
    ]
    merged = est.Tally()
    merged.merge(tally.to_dict())
    merged.merge(tally.to_dict())
    assert merged.attempted == 8 and merged.failed == 6
