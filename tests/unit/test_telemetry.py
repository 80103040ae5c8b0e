"""Unit tests for repro.telemetry: registry, spans, Prometheus text.

The metric machinery is a contract other layers build on (the serve
endpoints, ``eclc stats``, the CI smoke scrape), so the registry
semantics, the span accounting, and the exposition format itself are
all pinned here — including escaping, label ordering and histogram
bucket cumulativity, which a scraper would silently mis-ingest if we
got them wrong.
"""

import threading
import time

import pytest

from repro import telemetry
from repro.telemetry import (
    MetricsRegistry,
    exponential_buckets,
    format_profile,
    format_snapshot,
    format_value,
    parse_prometheus,
    profile_rows,
    quantile_from_buckets,
    render_prometheus,
)
from repro.telemetry.spans import SpanRecord


@pytest.fixture
def enabled():
    """Telemetry on with a clean default registry, restored after."""
    telemetry.reset()
    telemetry.enable(trace=True)
    yield telemetry.get_registry()
    telemetry.disable()
    telemetry.reset()


# ----------------------------------------------------------------------
# Registry semantics.


class TestRegistry:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        registry.counter("jobs_total").inc()
        registry.counter("jobs_total").inc(2.5)
        assert registry.counter("jobs_total").value == 3.5

    def test_counter_rejects_negative(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("jobs_total").inc(-1)

    def test_labelled_children_are_distinct(self):
        registry = MetricsRegistry()
        registry.counter("jobs", engine="native").inc()
        registry.counter("jobs", engine="efsm").inc(4)
        assert registry.counter("jobs", engine="native").value == 1
        assert registry.counter("jobs", engine="efsm").value == 4

    def test_label_order_does_not_matter(self):
        registry = MetricsRegistry()
        registry.counter("jobs", a="1", b="2").inc()
        # Same label set in another order resolves to the same child.
        assert registry.counter("jobs", b="2", a="1").value == 1

    def test_gauge_set_inc_dec(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth")
        gauge.set(7)
        gauge.inc(3)
        gauge.dec()
        assert gauge.value == 9

    def test_gauge_callback_reads_live(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth")
        state = {"n": 0}
        gauge.set_callback(lambda: state["n"])
        state["n"] = 5
        assert gauge.value == 5

    def test_gauge_callback_failure_keeps_last_value(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth")
        gauge.set(3)
        gauge.set_callback(lambda: 8)
        assert gauge.value == 8
        gauge.set_callback(lambda: 1 / 0)
        assert gauge.value == 8

    def test_histogram_observe_and_stats(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat", buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 3.0, 100.0):
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.sum == pytest.approx(105.0)

    def test_histogram_buckets_are_cumulative(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat", buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 0.7, 1.5, 3.0, 9.0):
            histogram.observe(value)
        assert histogram.cumulative_buckets() == [
            (1.0, 2), (2.0, 3), (4.0, 4), (float("inf"), 5),
        ]

    def test_histogram_upper_bound_is_inclusive(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat", buckets=(1.0, 2.0))
        histogram.observe(1.0)  # exactly on the bound: le="1" bucket
        assert histogram.cumulative_buckets()[0] == (1.0, 1)

    def test_type_conflict_is_an_error(self):
        registry = MetricsRegistry()
        registry.counter("thing")
        with pytest.raises(ValueError):
            registry.gauge("thing")
        with pytest.raises(ValueError):
            registry.histogram("thing")

    def test_reset_drops_families(self):
        registry = MetricsRegistry()
        registry.counter("thing").inc()
        registry.reset()
        assert registry.snapshot() == {"metrics": []}
        # and the name is free to be a different type afterwards
        registry.gauge("thing").set(1)

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("jobs", help="Jobs.", engine="efsm").inc(2)
        snapshot = registry.snapshot()
        assert snapshot["metrics"] == [{
            "name": "jobs", "type": "counter", "help": "Jobs.",
            "samples": [{"labels": {"engine": "efsm"}, "value": 2.0}],
        }]

    def test_exponential_buckets(self):
        assert exponential_buckets(1.0, 2.0, 4) == (1.0, 2.0, 4.0, 8.0)
        with pytest.raises(ValueError):
            exponential_buckets(0.0, 2.0, 4)
        with pytest.raises(ValueError):
            exponential_buckets(1.0, 1.0, 4)
        with pytest.raises(ValueError):
            exponential_buckets(1.0, 2.0, 0)

    def test_thread_safety_under_contention(self):
        registry = MetricsRegistry()

        def hammer():
            for _ in range(1000):
                registry.counter("n").inc()
                registry.histogram("h", buckets=(1.0, 2.0)).observe(1.5)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert registry.counter("n").value == 8000
        assert registry.histogram("h").count == 8000


# ----------------------------------------------------------------------
# No-op mode.


class TestNoOpMode:
    def test_disabled_accessors_return_null_metric(self):
        telemetry.disable()
        assert telemetry.counter("x") is telemetry.NULL_METRIC
        assert telemetry.gauge("x") is telemetry.NULL_METRIC
        assert telemetry.histogram("x") is telemetry.NULL_METRIC

    def test_null_metric_absorbs_everything(self):
        telemetry.disable()
        metric = telemetry.counter("x")
        metric.inc()
        metric.dec()
        metric.set(5)
        metric.observe(1.0)
        metric.set_callback(lambda: 1)
        assert metric.value == 0.0

    def test_disabled_records_nothing(self, enabled):
        telemetry.disable()
        telemetry.counter("ghost").inc()
        with telemetry.span("ghost.span"):
            pass
        assert telemetry.snapshot() == {"metrics": []}

    def test_disabled_span_is_shared_singleton(self):
        telemetry.disable()
        assert telemetry.span("a") is telemetry.span("b", tag="x")


# ----------------------------------------------------------------------
# Spans.


class TestSpans:
    def test_span_records_wall_and_cpu_histograms(self, enabled):
        with telemetry.span("unit.work", engine="efsm"):
            pass
        snapshot = telemetry.snapshot()
        names = {family["name"] for family in snapshot["metrics"]}
        assert "ecl_span_seconds" in names
        assert "ecl_span_cpu_seconds" in names
        wall = enabled.histogram("ecl_span_seconds",
                                 span="unit.work", engine="efsm")
        assert wall.count == 1

    def test_nesting_depth_parent_and_self_wall(self, enabled):
        with telemetry.span("outer"):
            with telemetry.span("inner"):
                pass
        records = {r.name: r for r in telemetry.trace_log().entries()}
        assert records["inner"].depth == 1
        assert records["inner"].parent == "outer"
        assert records["outer"].depth == 0
        assert records["outer"].parent is None
        # outer's self wall excludes inner's wall
        assert records["outer"].self_wall <= records["outer"].wall
        assert records["outer"].self_wall == pytest.approx(
            records["outer"].wall - records["inner"].wall)

    def test_span_cpu_excludes_other_threads(self, enabled):
        # The span's thread sleeps while a second thread burns CPU; the
        # span must report (roughly) its own CPU, not the process's.
        stop = threading.Event()
        burned = [0.0]

        def burn():
            start = time.thread_time()
            while not stop.is_set():
                sum(range(1000))
                burned[0] = time.thread_time() - start

        burner = threading.Thread(target=burn)
        burner.start()
        try:
            with telemetry.span("sleeper"):
                deadline = time.monotonic() + 30
                while burned[0] < 0.2 and time.monotonic() < deadline:
                    time.sleep(0.01)
                during = burned[0]
        finally:
            stop.set()
            burner.join(timeout=10)
        assert not burner.is_alive()
        record = telemetry.trace_log().entries()[-1]
        assert record.name == "sleeper"
        assert during >= 0.2
        assert record.cpu < 0.25 * during

    def test_trace_ring_buffer_is_bounded(self, enabled):
        log = telemetry.install_trace(capacity=3)
        for i in range(10):
            with telemetry.span("s%d" % i):
                pass
        assert len(log) == 3
        assert [r.name for r in log.entries()] == ["s7", "s8", "s9"]

    def test_span_tags_become_labels(self, enabled):
        with telemetry.span("tagged", tenant="acme", engine="native"):
            pass
        sample = enabled.histogram(
            "ecl_span_seconds", span="tagged",
            tenant="acme", engine="native").sample()
        assert sample["count"] == 1
        assert sample["labels"] == {
            "span": "tagged", "tenant": "acme", "engine": "native"}


# ----------------------------------------------------------------------
# Profile rows (the --profile table).


def _record(name, wall, self_wall=None, cpu=0.0, parent=None, depth=0):
    return SpanRecord(name, {}, depth, parent, wall, cpu,
                      wall if self_wall is None else self_wall)


class TestProfile:
    def test_rows_partition_the_wall_exactly(self):
        entries = [
            _record("compile", 0.6),
            _record("run", 0.3),
            _record("run", 0.05),
        ]
        rows = profile_rows(entries, wall_total=1.0)
        assert [row["phase"] for row in rows] == [
            "compile", "run", "(untracked)"]
        assert rows[1]["count"] == 2
        # the rows always total the measured wall time
        assert sum(row["wall"] for row in rows) == pytest.approx(1.0)
        assert rows[-1]["wall"] == pytest.approx(0.05)

    def test_untracked_never_negative(self):
        rows = profile_rows([_record("x", 2.0)], wall_total=1.0)
        assert rows[-1]["wall"] == 0.0

    def test_format_profile_table(self):
        entries = [_record("compile", 0.75), _record("run", 0.20)]
        text = format_profile(entries, wall_total=1.0)
        assert "profile: 2 span(s), wall 1.000s (95.0% tracked)" in text
        assert "compile" in text and "(untracked)" in text
        assert "total" in text
        # total row shows the full measured wall
        assert "1.000s" in text


# ----------------------------------------------------------------------
# Prometheus formatter: the wire contract.


class TestPrometheusFormat:
    def test_empty_registry_renders_empty(self):
        assert render_prometheus(MetricsRegistry()) == ""
        assert render_prometheus({"metrics": []}) == ""

    def test_counter_exposition(self):
        registry = MetricsRegistry()
        registry.counter("ecl_jobs_total", help="Jobs.",
                         engine="efsm").inc(3)
        text = render_prometheus(registry)
        assert "# HELP ecl_jobs_total Jobs." in text
        assert "# TYPE ecl_jobs_total counter" in text
        assert 'ecl_jobs_total{engine="efsm"} 3' in text
        assert text.endswith("\n")

    def test_labels_are_sorted(self):
        registry = MetricsRegistry()
        registry.counter("m", zebra="z", alpha="a", mid="m").inc()
        text = render_prometheus(registry)
        assert 'm{alpha="a",mid="m",zebra="z"} 1' in text

    def test_label_value_escaping(self):
        registry = MetricsRegistry()
        registry.counter("m", path='a\\b', note='say "hi"\nbye').inc()
        text = render_prometheus(registry)
        assert 'path="a\\\\b"' in text
        assert 'note="say \\"hi\\"\\nbye"' in text
        # and the parser reads the original values back
        ((labels, value),) = parse_prometheus(text)["m"]
        assert labels == {"path": "a\\b", "note": 'say "hi"\nbye'}
        assert value == 1.0

    def test_help_escaping(self):
        registry = MetricsRegistry()
        registry.counter("m", help="line one\nline \\ two").inc()
        text = render_prometheus(registry)
        assert "# HELP m line one\\nline \\\\ two" in text

    def test_histogram_buckets_cumulative_and_terminated(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat", buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 3.0, 9.0):
            histogram.observe(value)
        text = render_prometheus(registry)
        assert 'lat_bucket{le="1"} 1' in text
        assert 'lat_bucket{le="2"} 2' in text
        assert 'lat_bucket{le="4"} 3' in text
        assert 'lat_bucket{le="+Inf"} 4' in text
        assert "lat_sum 14" in text
        assert "lat_count 4" in text
        # cumulativity invariant as a scraper would check it
        buckets = parse_prometheus(text)["lat_bucket"]
        counts = [count for _, count in buckets]
        assert counts == sorted(counts)
        assert buckets[-1][0]["le"] == "+Inf"
        assert counts[-1] == parse_prometheus(text)["lat_count"][0][1]

    def test_histogram_labels_keep_le_last_and_sorted(self):
        registry = MetricsRegistry()
        registry.histogram("lat", buckets=(1.0,),
                           tenant="t", engine="e").observe(0.5)
        text = render_prometheus(registry)
        assert 'lat_bucket{engine="e",tenant="t",le="1"} 1' in text

    def test_format_value(self):
        assert format_value(float("inf")) == "+Inf"
        assert format_value(float("-inf")) == "-Inf"
        assert format_value(3.0) == "3"
        assert format_value(0.25) == "0.25"

    def test_round_trip_through_parser(self):
        registry = MetricsRegistry()
        registry.counter("a_total", k="v").inc(2)
        registry.gauge("b").set(1.5)
        registry.histogram("c", buckets=(1.0, 2.0)).observe(0.5)
        parsed = parse_prometheus(render_prometheus(registry))
        assert parsed["a_total"] == [({"k": "v"}, 2.0)]
        assert parsed["b"] == [({}, 1.5)]
        assert parsed["c_count"] == [({}, 1.0)]
        assert ({"le": "+Inf"}, 1.0) in parsed["c_bucket"]


# ----------------------------------------------------------------------
# Stats renderers.


class TestStats:
    def test_quantile_from_buckets(self):
        buckets = [[1.0, 50], [2.0, 100]]
        assert quantile_from_buckets(buckets, 100, 0.25) == pytest.approx(0.5)
        assert quantile_from_buckets(buckets, 100, 0.75) == pytest.approx(1.5)
        assert quantile_from_buckets([], 0, 0.5) is None

    def test_format_snapshot_empty(self):
        assert "no metrics recorded" in format_snapshot({"metrics": []})

    def test_format_snapshot_sections(self, enabled):
        enabled.counter("jobs_total", engine="efsm").inc(3)
        enabled.gauge("depth").set(2)
        enabled.histogram("lat").observe(0.01)
        text = format_snapshot(telemetry.snapshot())
        assert "counters:" in text and "gauges:" in text
        assert "histograms:" in text
        assert "jobs_total{engine=efsm}" in text
