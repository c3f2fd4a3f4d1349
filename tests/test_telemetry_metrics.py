"""Metrics registry: instruments, exposition, and lossless round-trips."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry.metrics import (
    DEFAULT_BUCKETS,
    MetricError,
    MetricsRegistry,
)
from repro.telemetry.schema import validate_metrics_payload


class TestInstruments:
    def test_counter_accumulates_per_series(self):
        reg = MetricsRegistry()
        c = reg.counter("requests_total", "Requests.", labels=("kind",))
        c.inc(kind="a")
        c.inc(2.5, kind="a")
        c.inc(kind="b")
        snap = reg.snapshot()
        series = snap["metrics"][0]["series"]
        values = {s["labels"]["kind"]: s["value"] for s in series}
        assert values == {"a": 3.5, "b": 1.0}

    def test_counter_rejects_negative(self):
        reg = MetricsRegistry()
        with pytest.raises(MetricError):
            reg.counter("c_total").inc(-1.0)

    def test_gauge_set_inc_dec(self):
        reg = MetricsRegistry()
        g = reg.gauge("level")
        g.set(5.0)
        g.inc(2.0)
        g.inc(-3.0)
        assert reg.snapshot()["metrics"][0]["series"][0]["value"] == 4.0

    def test_histogram_buckets_cumulative_in_text(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 5.0):
            h.observe(v)
        text = reg.render_text()
        assert 'lat_bucket{le="0.1"} 1' in text
        assert 'lat_bucket{le="1"} 2' in text
        assert 'lat_bucket{le="+Inf"} 3' in text
        assert "lat_count 3" in text

    def test_type_clash_raises(self):
        reg = MetricsRegistry()
        reg.counter("x_total")
        with pytest.raises(MetricError):
            reg.gauge("x_total")

    def test_label_clash_raises(self):
        reg = MetricsRegistry()
        reg.counter("y_total", labels=("a",))
        with pytest.raises(MetricError):
            reg.counter("y_total", labels=("b",))

    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("z_total", labels=("k",)) is reg.counter(
            "z_total", labels=("k",)
        )


class TestMerge:
    def test_counters_and_histograms_add_gauges_overwrite(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for reg, n in ((a, 1.0), (b, 2.0)):
            reg.counter("c_total").inc(n)
            reg.gauge("g").set(n)
            reg.histogram("h", buckets=(1.0,)).observe(n)
        a.merge(b.snapshot())
        snap = {m["name"]: m for m in a.snapshot()["metrics"]}
        assert snap["c_total"]["series"][0]["value"] == 3.0
        assert snap["g"]["series"][0]["value"] == 2.0  # last write wins
        assert snap["h"]["series"][0]["count"] == 2
        assert snap["h"]["series"][0]["sum"] == 3.0
        assert snap["h"]["series"][0]["bucket_counts"] == [1, 1]


# Hypothesis: arbitrary instrument traffic survives
# snapshot -> JSON -> parse -> merge-into-empty -> snapshot unchanged.
_names = st.sampled_from(["alpha_total", "beta", "gamma_seconds"])
_labels = st.sampled_from(["", "x", "y"])
_amounts = st.floats(
    min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
)
_ops = st.lists(
    st.tuples(
        st.sampled_from(["counter", "gauge", "histogram"]),
        _names,
        _labels,
        _amounts,
    ),
    max_size=60,
)


def _apply(ops):
    reg = MetricsRegistry()
    for kind, base, label, amount in ops:
        # Labelled and label-less traffic must use distinct names: the
        # registry (correctly) rejects redefining a metric's label set.
        name = f"{kind}_{base}" + ("_l" if label else "")
        labels = ("tag",) if label else ()
        kwargs = {"tag": label} if label else {}
        if kind == "counter":
            reg.counter(name, labels=labels).inc(amount, **kwargs)
        elif kind == "gauge":
            reg.gauge(name, labels=labels).set(amount, **kwargs)
        else:
            reg.histogram(
                name, labels=labels, buckets=DEFAULT_BUCKETS
            ).observe(amount, **kwargs)
    return reg


class TestRoundTripProperties:
    @settings(max_examples=50, deadline=None)
    @given(_ops)
    def test_snapshot_json_merge_round_trip_is_lossless(self, ops):
        reg = _apply(ops)
        snap = reg.snapshot()
        validate_metrics_payload(snap)

        # JSON round-trip preserves the snapshot exactly.
        parsed = json.loads(reg.to_json())
        assert parsed == snap

        # Merging the parsed JSON rebuilds an equivalent registry.
        rebuilt = MetricsRegistry()
        rebuilt.merge(parsed)
        assert rebuilt.snapshot() == snap

        # Merging into an empty registry reproduces the snapshot.
        merged = MetricsRegistry()
        merged.merge(snap)
        assert merged.snapshot() == snap

    @settings(max_examples=25, deadline=None)
    @given(_ops)
    def test_merge_is_additive_for_counters_and_histograms(self, ops):
        snap = _apply(ops).snapshot()
        doubled = MetricsRegistry()
        doubled.merge(snap)
        doubled.merge(snap)
        for one, two in zip(
            snap["metrics"], doubled.snapshot()["metrics"]
        ):
            assert one["name"] == two["name"]
            for s1, s2 in zip(one["series"], two["series"]):
                if one["type"] == "counter":
                    assert s2["value"] == s1["value"] * 2
                elif one["type"] == "histogram":
                    assert s2["count"] == s1["count"] * 2
                    assert s2["bucket_counts"] == [
                        c * 2 for c in s1["bucket_counts"]
                    ]
                else:  # gauge: last write wins
                    assert s2["value"] == s1["value"]


class TestExposition:
    def test_render_text_declares_types_and_help(self):
        reg = MetricsRegistry()
        reg.counter("c_total", "Things counted.").inc()
        reg.gauge("g", "A level.").set(1.0)
        text = reg.render_text()
        assert "# TYPE c_total counter" in text
        assert "# HELP c_total Things counted." in text
        assert "# TYPE g gauge" in text

    def test_series_count(self):
        reg = MetricsRegistry()
        c = reg.counter("c_total", labels=("k",))
        c.inc(k="a")
        c.inc(k="b")
        reg.gauge("g").set(0.0)
        assert reg.series_count() == 3
