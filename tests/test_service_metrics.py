"""The metrics core: registry, exposition, wiring, progress, cancel."""

import io
import json
import signal
import time

import pytest

from repro.errors import ShardMergeError
from repro.service.metrics import (
    METRIC_SPECS,
    NULL_METRICS,
    CancellationToken,
    MetricFamily,
    MetricsRegistry,
    ProgressEmitter,
    default_registry,
    merge_expositions,
    parse_exposition,
    render_metrics_table,
)
from repro.service.runtime import IterablePageSource, StreamingRuntime
from repro.service.shard import (
    ShardMerger,
    ShardPlanner,
    ShardWorker,
    shard_statuses,
)
from repro.service.sink import CollectingSink
from repro.sites.page import WebPage


# --------------------------------------------------------------------- #
# Registry + instrument semantics
# --------------------------------------------------------------------- #


class TestRegistry:
    def test_from_spec_returns_one_family_per_name(self):
        registry = MetricsRegistry()
        first = registry.from_spec("repro_refits_total")
        again = registry.from_spec("repro_refits_total")
        assert first is again

    def test_from_spec_refuses_undeclared_names(self):
        with pytest.raises(KeyError, match="not a declared metric"):
            MetricsRegistry().from_spec("repro_surprise_total")

    def test_register_refuses_conflicting_redefinition(self):
        registry = MetricsRegistry()
        registry.counter("jobs_total", "Jobs.", labels=("kind",))
        with pytest.raises(ValueError, match="re-registered"):
            registry.gauge("jobs_total", "Jobs.")

    def test_counter_is_monotonic(self):
        counter = MetricsRegistry().counter("c_total", "C.")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError, match="only go up"):
            counter.inc(-1)

    def test_gauge_moves_both_ways(self):
        gauge = MetricsRegistry().gauge("g", "G.")
        gauge.inc(3)
        gauge.dec()
        gauge.set(7.5)
        assert gauge.value == 7.5

    def test_label_arity_is_checked(self):
        family = MetricsRegistry().counter("l_total", "L.", labels=("a", "b"))
        with pytest.raises(ValueError, match="takes labels"):
            family.labels("only-one")

    def test_null_registry_swallows_everything(self):
        instrument = NULL_METRICS.from_spec("repro_refits_total")
        instrument.inc()
        instrument.labels("x").observe(1.0)
        instrument.dec()
        instrument.set(9)
        assert NULL_METRICS.render() == ""

    def test_default_registry_is_process_wide(self):
        assert default_registry() is default_registry()


class TestExposition:
    def _registry(self):
        registry = MetricsRegistry()
        registry.from_spec("repro_pages_routed_total").labels("m").inc(3)
        registry.from_spec("repro_request_seconds").observe(0.004)
        registry.from_spec("repro_inflight_requests").set(2)
        return registry

    def test_render_has_help_and_type_for_every_family(self):
        text = self._registry().render()
        for name in (
            "repro_pages_routed_total",
            "repro_request_seconds",
            "repro_inflight_requests",
        ):
            assert f"# HELP {name} " in text
            assert f"# TYPE {name} " in text
        assert text.endswith("\n")

    def test_exposition_parses_and_histogram_is_cumulative(self):
        parsed = parse_exposition(self._registry().render())
        series = parsed["repro_request_seconds"]
        buckets = {
            key: value for key, value in series.items() if "_bucket" in key
        }
        assert series["repro_request_seconds_count"] == 1.0
        assert series["repro_request_seconds_sum"] == pytest.approx(0.004)
        assert buckets['repro_request_seconds_bucket{le="+Inf"}'] == 1.0
        # Cumulative: every bound >= 0.004 already holds the observation.
        assert buckets['repro_request_seconds_bucket{le="0.005"}'] == 1.0
        assert buckets['repro_request_seconds_bucket{le="0.001"}'] == 0.0

    def test_labelless_series_render_from_process_start(self):
        registry = MetricsRegistry()
        registry.from_spec("repro_refits_total")
        assert "repro_refits_total 0" in registry.render()

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        family = registry.from_spec("repro_pages_routed_total")
        family.labels('we"ird\\clu\nster').inc()
        rendered = registry.render()
        assert '\\"' in rendered and "\\\\" in rendered and "\\n" in rendered
        parsed = parse_exposition(rendered)
        assert sum(parsed["repro_pages_routed_total"].values()) == 1.0

    def test_integer_values_render_without_decimal_point(self):
        registry = MetricsRegistry()
        registry.from_spec("repro_refits_total").inc(4)
        assert "repro_refits_total 4\n" in registry.render()


class TestMergeExpositions:
    """The supervisor's fleet-wide ``/metrics`` aggregation."""

    def _worker_text(self, served, inflight):
        registry = MetricsRegistry()
        registry.from_spec("repro_pages_unroutable_total").inc(served)
        registry.from_spec("repro_inflight_requests").set(inflight)
        return registry.render()

    def test_series_sum_pointwise_across_workers(self):
        merged = merge_expositions(
            [self._worker_text(3, 1), self._worker_text(5, 2)]
        )
        parsed = parse_exposition(merged)
        assert parsed["repro_pages_unroutable_total"][
            "repro_pages_unroutable_total"
        ] == 8.0
        # Gauges add too: fleet-wide in-flight *is* the sum.
        assert parsed["repro_inflight_requests"][
            "repro_inflight_requests"
        ] == 3.0

    def test_labelled_series_merge_per_label_and_sort(self):
        left = MetricsRegistry()
        left.from_spec("repro_pages_routed_total").labels("movies").inc(2)
        left.from_spec("repro_pages_routed_total").labels("actors").inc(1)
        right = MetricsRegistry()
        right.from_spec("repro_pages_routed_total").labels("movies").inc(4)
        merged = merge_expositions([left.render(), right.render()])
        parsed = parse_exposition(merged)
        series = parsed["repro_pages_routed_total"]
        assert series[
            'repro_pages_routed_total{cluster="movies"}'
        ] == 6.0
        assert series[
            'repro_pages_routed_total{cluster="actors"}'
        ] == 1.0
        # Deterministic body: series render in sorted order.
        lines = [
            line for line in merged.splitlines()
            if line.startswith("repro_pages_routed_total{")
        ]
        assert lines == sorted(lines)

    def test_histograms_add_like_counters(self):
        def one(value):
            registry = MetricsRegistry()
            registry.from_spec("repro_request_seconds").observe(value)
            return registry.render()

        parsed = parse_exposition(merge_expositions([one(0.004), one(0.4)]))
        series = parsed["repro_request_seconds"]
        assert series["repro_request_seconds_count"] == 2.0
        assert series["repro_request_seconds_sum"] == pytest.approx(0.404)
        assert series[
            'repro_request_seconds_bucket{le="+Inf"}'
        ] == 2.0

    def test_help_and_type_come_from_the_spec(self):
        merged = merge_expositions([self._worker_text(1, 0)])
        spec = next(
            s for s in METRIC_SPECS if s.name == "repro_pages_unroutable_total"
        )
        assert f"# HELP repro_pages_unroutable_total {spec.help}" in merged
        assert f"# TYPE repro_pages_unroutable_total {spec.kind}" in merged

    def test_undeclared_series_keep_their_first_inputs_comments(self):
        foreign = (
            "# HELP outside_total from another exporter\n"
            "# TYPE outside_total counter\n"
            "outside_total 2\n"
        )
        merged = merge_expositions([foreign, foreign])
        assert "# HELP outside_total from another exporter" in merged
        assert "# TYPE outside_total counter" in merged
        assert "outside_total 4" in merged

    def test_integer_totals_render_without_decimal_point(self):
        merged = merge_expositions(
            [self._worker_text(3, 0), self._worker_text(4, 0)]
        )
        assert "repro_pages_unroutable_total 7\n" in merged

    def test_invalid_input_raises(self):
        with pytest.raises(ValueError):
            merge_expositions(["repro_pages_unroutable_total 1\n"])  # untyped

    def test_empty_inputs_merge_to_empty(self):
        assert merge_expositions([]) == ""


class TestDocsTable:
    def test_table_covers_every_spec(self):
        table = render_metrics_table()
        for spec in METRIC_SPECS:
            assert f"`{spec.name}`" in table

    def test_spec_names_are_unique_and_prefixed(self):
        names = [spec.name for spec in METRIC_SPECS]
        assert len(names) == len(set(names))
        assert all(name.startswith("repro_") for name in names)


# --------------------------------------------------------------------- #
# Runtime wiring
# --------------------------------------------------------------------- #


def _values(parsed, name):
    return parsed.get(name, {})


class TestRuntimeInstrumentation:
    def test_counters_and_histograms_track_the_run(
        self, service_repository, service_site
    ):
        registry = MetricsRegistry()
        pages = service_site.pages_with_hint("imdb-movies")[:10]
        stray = WebPage(url="http://x/?", html="<html><p>?</p></html>",
                        cluster_hint="")
        runtime = StreamingRuntime(
            service_repository, executor="inline", metrics=registry
        )
        runtime.run(IterablePageSource(pages + [stray]), CollectingSink())
        parsed = parse_exposition(registry.render())
        routed = _values(parsed, "repro_pages_routed_total")
        assert routed['repro_pages_routed_total{cluster="imdb-movies"}'] == 10
        assert (
            _values(parsed, "repro_pages_unroutable_total")[
                "repro_pages_unroutable_total"
            ]
            == 1
        )
        route_hist = _values(parsed, "repro_route_seconds")
        assert route_hist["repro_route_seconds_count"] == 11
        extract = _values(parsed, "repro_extract_seconds")
        key = 'repro_extract_seconds_count{cluster="imdb-movies"}'
        assert extract[key] == 10

    def test_skipped_pages_are_counted(self, service_repository):
        registry = MetricsRegistry()
        # Routed by hint to a cluster the repository has no rules for.
        page = WebPage(url="http://x/s", html="<html><p>s</p></html>",
                       cluster_hint="imdb-search")
        runtime = StreamingRuntime(
            service_repository, executor="inline", metrics=registry
        )
        runtime.run(IterablePageSource([page]), CollectingSink())
        parsed = parse_exposition(registry.render())
        skipped = _values(parsed, "repro_pages_skipped_total")
        assert skipped["repro_pages_skipped_total"] == 1


class TestRouteSecondsExcludeParse:
    """``repro_route_seconds`` is signature and scoring in every path."""

    PARSE_DELAY = 0.02

    @pytest.fixture(scope="class")
    def router(self, service_site):
        from repro.service.router import ClusterRouter

        return ClusterRouter.fit({
            hint: service_site.pages_with_hint(hint)[:8]
            for hint in ("imdb-movies", "imdb-actors")
        })

    @pytest.fixture()
    def fresh_pages(self, service_site):
        # Unparsed copies: the site's own pages carry cached DOMs.
        return [
            WebPage(url=page.url, html=page.html, cluster_hint=hint)
            for hint in ("imdb-movies", "imdb-actors")
            for page in service_site.pages_with_hint(hint)[:4]
        ]

    @pytest.fixture()
    def slow_parses(self, monkeypatch):
        """Slow every parse by PARSE_DELAY; record the route timings."""
        import repro.sites.page as page_module

        parse_html = page_module.parse_html
        parses: list = []

        def slow_parse(*args, **kwargs):
            parses.append(1)
            time.sleep(self.PARSE_DELAY)
            return parse_html(*args, **kwargs)

        observed: list = []
        observe = MetricFamily.observe

        def recording_observe(family, value):
            if family.spec.name == "repro_route_seconds":
                observed.append(value)
            observe(family, value)

        monkeypatch.setattr(page_module, "parse_html", slow_parse)
        monkeypatch.setattr(MetricFamily, "observe", recording_observe)
        return parses, observed

    def test_inline_runtime_with_router(self, service_repository, router,
                                        fresh_pages, slow_parses):
        parses, observed = slow_parses
        runtime = StreamingRuntime(
            service_repository, router=router, executor="inline",
            metrics=MetricsRegistry(),
        )
        report = runtime.run(IterablePageSource(fresh_pages))
        assert report.pages_served == len(fresh_pages)
        assert len(parses) == len(fresh_pages)
        assert len(observed) == len(fresh_pages)
        assert max(observed) < self.PARSE_DELAY

    def test_serve_handler(self, service_repository, router, fresh_pages,
                           slow_parses):
        from repro.service.serve import ServeHandler

        parses, observed = slow_parses
        handler = ServeHandler(
            service_repository, router=router, metrics=MetricsRegistry()
        )
        for page in fresh_pages:
            _, served = handler.handle_line(
                json.dumps({"url": page.url, "html": page.html})
            )
            assert served
        assert len(parses) == len(fresh_pages)
        assert len(observed) == len(fresh_pages)
        assert max(observed) < self.PARSE_DELAY

    def test_hint_routing_never_parses_in_the_parent(
        self, service_repository, fresh_pages, slow_parses
    ):
        # Process workers parse what they are sent; routing by hint
        # needs no DOM, so the parent must not parse at all.
        parses, observed = slow_parses
        runtime = StreamingRuntime(
            service_repository, workers=2, executor="process",
            chunk_size=4, metrics=MetricsRegistry(),
        )
        report = runtime.run(IterablePageSource(fresh_pages))
        assert report.pages_served == len(fresh_pages)
        assert parses == []
        assert len(observed) == len(fresh_pages)


# --------------------------------------------------------------------- #
# Cooperative cancellation
# --------------------------------------------------------------------- #


class TestCancellation:
    def test_preset_token_stops_before_any_page(
        self, service_repository, service_site
    ):
        token = CancellationToken()
        token.cancel()
        assert token.is_set() and token.cancelled
        runtime = StreamingRuntime(service_repository, executor="inline")
        sink = CollectingSink()
        report = runtime.run(
            IterablePageSource(service_site.pages_with_hint("imdb-movies")),
            sink,
            cancel=token,
        )
        assert report.cancelled
        assert sink.records == []
        assert "interrupted" in report.summary()

    def test_mid_run_cancel_keeps_output_line_complete(
        self, service_repository, service_site
    ):
        pages = service_site.pages_with_hint("imdb-movies")[:20]
        token = CancellationToken()
        seen = []

        def on_progress(report):
            seen.append(report.pages_served)
            token.cancel()

        runtime = StreamingRuntime(
            service_repository, executor="inline", chunk_size=2,
            ordered=True,
        )
        sink = CollectingSink()
        report = runtime.run(
            IterablePageSource(pages), sink,
            cancel=token, on_progress=on_progress,
        )
        assert report.cancelled
        assert seen  # progress hook actually fired
        # Partial but whole: a prefix of the ordered stream, no holes.
        assert 0 < len(sink.records) < len(pages)
        assert [r.index for r in sink.records] == list(
            range(len(sink.records))
        )

    def test_uncancelled_run_reports_not_cancelled(
        self, service_repository, service_site
    ):
        runtime = StreamingRuntime(service_repository, executor="inline")
        report = runtime.run(
            IterablePageSource(
                service_site.pages_with_hint("imdb-movies")[:3]
            ),
            CollectingSink(),
            cancel=CancellationToken(),
        )
        assert not report.cancelled
        assert "interrupted" not in report.summary()


class TestProgressEmitter:
    def _report(self, pages):
        class _Report:
            total_pages = pages
            unroutable_count = 0
            errors_count = 0
            pages_served = pages
        return _Report()

    def test_emits_every_n_pages_and_final_done_line(self):
        stream = io.StringIO()
        clock = [0.0]
        emitter = ProgressEmitter(
            stream, label="batch", every_pages=10, every_seconds=1e9,
            clock=lambda: clock[0],
        )
        for pages in range(1, 26):
            emitter(self._report(pages))
        emitter.finish(self._report(25))
        lines = [json.loads(line) for line in stream.getvalue().splitlines()]
        assert [entry["pages"] for entry in lines] == [10, 20, 25]
        assert lines[-1]["done"] is True
        assert all(entry["event"] == "progress" for entry in lines)
        assert all(entry["label"] == "batch" for entry in lines)

    def test_emits_on_wall_clock_even_between_page_marks(self):
        stream = io.StringIO()
        clock = [0.0]
        emitter = ProgressEmitter(
            stream, label="x", every_pages=1000, every_seconds=10.0,
            clock=lambda: clock[0],
        )
        emitter(self._report(1))
        clock[0] = 11.0
        emitter(self._report(2))
        pages = [json.loads(line)["pages"]
                 for line in stream.getvalue().splitlines()]
        assert pages == [2]

    def test_dying_stream_is_swallowed(self):
        class _Broken(io.StringIO):
            def write(self, text):
                raise OSError("gone")

        emitter = ProgressEmitter(_Broken(), every_pages=1)
        emitter(self._report(1))  # must not raise
        emitter.finish(self._report(1))
        assert emitter.emitted == 0


# --------------------------------------------------------------------- #
# Shard checkpoints: interrupt -> resume -> merge
# --------------------------------------------------------------------- #


class TestShardCheckpoint:
    def _interrupt_after_first_progress(self):
        token = CancellationToken()

        def on_progress(report):
            token.cancel()

        return token, on_progress

    def test_interrupted_manifest_blocks_merge_until_resumed(
        self, service_repository, service_site, tmp_path
    ):
        pages = {p.url: p for p in service_site.pages_with_hint(
            "imdb-movies"
        )}
        plan = ShardPlanner(2, "range").plan(sorted(pages))
        out = tmp_path / "shards"
        token, on_progress = self._interrupt_after_first_progress()
        worker = ShardWorker(
            service_repository, plan, 0, chunk_size=2, executor="inline"
        )
        manifest, report = worker.run(
            lambda url: pages[url], out,
            cancel=token, on_progress=on_progress,
        )
        assert report.cancelled and manifest.interrupted
        assert manifest.records < len(plan.pages_for(0))

        # The checkpoint is audit-visible and merge-refused.
        statuses = shard_statuses(plan, out)
        reasons = {s.shard: s.reason for s in statuses if not s.complete}
        assert reasons[0] == "interrupted checkpoint"
        ShardWorker(service_repository, plan, 1).run(
            lambda url: pages[url], out
        )
        with pytest.raises(ShardMergeError, match="interrupted"):
            ShardMerger().merge([out], io.StringIO())

        # Resume (a fresh, uncancelled run) replaces the checkpoint;
        # the merged stream is then whole.
        ShardWorker(service_repository, plan, 0).run(
            lambda url: pages[url], out
        )
        stream = io.StringIO()
        merge_report = ShardMerger().merge([out], stream)
        assert merge_report.records == len(pages)
        assert all(s.complete for s in shard_statuses(plan, out))

    def test_clean_shard_run_is_not_interrupted(
        self, service_repository, service_site, tmp_path
    ):
        pages = {p.url: p for p in service_site.pages_with_hint(
            "imdb-actors"
        )}
        plan = ShardPlanner(1, "range").plan(sorted(pages))
        worker = ShardWorker(service_repository, plan, 0)
        manifest, report = worker.run(
            lambda url: pages[url], tmp_path / "s",
            cancel=CancellationToken(),
        )
        assert not manifest.interrupted and not report.cancelled


# --------------------------------------------------------------------- #
# CLI surface: --progress / --metrics / SIGINT handling
# --------------------------------------------------------------------- #


class TestCliObservability:
    @pytest.fixture()
    def corpus_dir(self, service_site, tmp_path):
        directory = tmp_path / "site"
        directory.mkdir()
        for index, page in enumerate(
            service_site.pages_with_hint("imdb-movies")[:12]
        ):
            name = f"imdb-movies-{index:04d}.html"
            (directory / name).write_text(page.html, encoding="utf-8")
        return directory

    @pytest.fixture()
    def rules_path(self, service_repository, tmp_path):
        path = tmp_path / "rules.json"
        service_repository.save(path)
        return path

    def test_batch_writes_progress_and_metrics(
        self, corpus_dir, rules_path, tmp_path, capsys
    ):
        from repro.cli import main

        metrics_path = tmp_path / "run.prom"
        out_path = tmp_path / "out.jsonl"
        assert main([
            "batch", str(corpus_dir), "--repository", str(rules_path),
            "--jsonl", str(out_path),
            "--progress", "5", "--metrics", str(metrics_path),
        ]) == 0
        err = capsys.readouterr().err
        progress = [json.loads(line) for line in err.splitlines()
                    if line.startswith("{")]
        assert progress and progress[-1]["done"] is True
        parsed = parse_exposition(
            metrics_path.read_text(encoding="utf-8")
        )
        assert sum(
            _values(parsed, "repro_pages_routed_total").values()
        ) >= 12

    def test_shard_run_dumps_metrics(
        self, corpus_dir, rules_path, tmp_path, capsys
    ):
        from repro.cli import main

        plan_path = tmp_path / "plan.json"
        assert main([
            "shard", "plan", str(corpus_dir), "--shards", "2",
            "--output", str(plan_path),
        ]) == 0
        metrics_path = tmp_path / "shard.prom"
        assert main([
            "shard", "run", str(corpus_dir), "--shard", "0",
            "--plan", str(plan_path), "--repository", str(rules_path),
            "--output-dir", str(tmp_path / "shards"),
            "--metrics", str(metrics_path), "--progress", "4",
        ]) == 0
        capsys.readouterr()
        assert "repro_route_seconds" in metrics_path.read_text(
            encoding="utf-8"
        )

    def test_graceful_interrupt_cancels_then_aborts(self, capsys):
        from repro.cli import _graceful_interrupt

        token = CancellationToken()
        with _graceful_interrupt(token):
            signal.raise_signal(signal.SIGINT)
            assert token.is_set()
            with pytest.raises(KeyboardInterrupt):
                signal.raise_signal(signal.SIGINT)
        # The previous handler is restored on exit.
        assert signal.getsignal(signal.SIGINT) is signal.default_int_handler
        assert "finishing in-flight work" in capsys.readouterr().err

    def test_interrupted_batch_exits_130(
        self, corpus_dir, rules_path, tmp_path, capsys, monkeypatch
    ):
        import repro.cli as cli

        # Deliver SIGINT from a thread as soon as the first progress
        # line fires, exactly as an operator's ^C would land.
        real_emitter = cli._progress_emitter

        def emitter_with_interrupt(args, label):
            emitter = real_emitter(args, label)
            fired = []

            def fire(report):
                if not fired:
                    fired.append(True)
                    signal.raise_signal(signal.SIGINT)
                return emitter(report)

            fire.finish = emitter.finish
            return fire

        monkeypatch.setattr(cli, "_progress_emitter", emitter_with_interrupt)
        out_path = tmp_path / "out.jsonl"
        # chunk-size 1 so in-flight backpressure drains (and therefore
        # progress callbacks) happen while pages are still unadmitted.
        code = cli.main([
            "batch", str(corpus_dir), "--repository", str(rules_path),
            "--jsonl", str(out_path), "--progress", "2",
            "--chunk-size", "1",
        ])
        assert code == 130
        err = capsys.readouterr().err
        assert "interrupt: finishing in-flight work" in err
        assert "partial output is line-complete" in err
        # Whatever made it out is whole JSON lines.
        for line in out_path.read_text(encoding="utf-8").splitlines():
            json.loads(line)
