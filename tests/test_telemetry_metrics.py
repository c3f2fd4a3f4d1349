"""Metrics registry: instruments, exposition, and lossless round-trips."""

import json
import math

import pytest
from hypothesis import Phase, given, settings
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

    def test_gauge_set_overwrites(self):
        reg = MetricsRegistry()
        g = reg.gauge("level")
        g.set(5.0)
        g.set(4.0)
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


# Hypothesis: the cached compact encoder stays equal to encoding a
# fresh snapshot while traffic lands between encodes.
#: name -> (instrument kind, label names); histograms get two bucket
#: layouts so their head text differs.
_ENCODED = {
    "c_tagged_total": ("counter", ("tag",)),
    "c_plain_total": ("counter", ()),
    "g_tagged": ("gauge", ("tag",)),
    "g_pair": ("gauge", ("tag", "zone")),
    "h_tagged": ("histogram", ("tag",)),
    "h_plain": ("histogram", ()),
}
_BUCKETS = {"h_tagged": (-1.0, 0.0, 2.5), "h_plain": DEFAULT_BUCKETS}
_edge_floats = st.one_of(
    st.sampled_from([
        0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324,
        2.2250738585072014e-308, 1e308, -1e308, 1e16, 0.1,
    ]),
    st.floats(allow_nan=True, allow_infinity=True),
)
_label_values = st.one_of(
    st.sampled_from(['', 'x', 'say "hi"', 'back\\slash', 'na\u00efve',
                     '\u96ea', 'tab\tnew\nline', '\u2028']),
    st.text(max_size=3),
)
_traffic = st.lists(
    st.tuples(
        st.sampled_from(sorted(_ENCODED) + ["gauge_set", "merge"]),
        _label_values,
        _label_values,
        _edge_floats,
    ),
    max_size=12,
)
#: Report a counterexample as found; shrinking float lattices is slow.
NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate)


def _record(reg, name, tag, zone, amount):
    kind, labels = _ENCODED[name]
    values = dict(zip(("tag", "zone"), (tag, zone)))
    kwargs = {label: values[label] for label in labels}
    if kind == "counter":
        counter = reg.counter(name, f"{name} help", labels=labels)
        counter.inc(abs(amount), **kwargs)
    elif kind == "gauge":
        reg.gauge(name, f'"{name}" \\ help', labels=labels).set(
            amount, **kwargs
        )
    else:
        reg.histogram(
            name, "h\u00e9lp", labels=labels, buckets=_BUCKETS[name]
        ).observe(amount, **kwargs)


def _play(reg, traffic):
    for op, tag, zone, amount in traffic:
        if op == "gauge_set":
            reg.gauge("g_tagged", '"g_tagged" \\ help', labels=("tag",)).set(
                amount, tag=tag
            )
        elif op == "merge":
            # A snapshot of other traffic, folded in (resume's path).
            other = MetricsRegistry()
            _record(other, "c_tagged_total", tag, zone, amount)
            _record(other, "h_tagged", tag, zone, amount)
            _record(other, "g_pair", zone, tag, amount)
            reg.merge(other.snapshot())
        else:
            _record(reg, op, tag, zone, amount)


class TestIncrementalEncoding:
    @settings(max_examples=40, deadline=None, phases=NO_SHRINK)
    @given(st.lists(_traffic, min_size=1, max_size=6))
    def test_to_json_equals_dumps_of_snapshot_after_every_encode(
        self, batches
    ):
        reg = MetricsRegistry()
        for batch in batches:
            _play(reg, batch)
            assert reg.to_json() == json.dumps(reg.snapshot(), sort_keys=True)

    def test_edge_values_re_render(self):
        """Values that compare equal but print differently, non-finite
        values and series added after an encode."""
        reg = MetricsRegistry()
        gauge = reg.gauge("g", labels=("tag",))

        def check():
            assert reg.to_json() == json.dumps(reg.snapshot(), sort_keys=True)

        gauge.set(0.0, tag="a")
        check()
        gauge.set(-0.0, tag="a")  # == 0.0, prints "-0.0"
        check()
        gauge.set(math.nan, tag="a")
        check()
        gauge.set(math.nan, tag="a")
        gauge.set(math.inf, tag='q"uote\\')
        check()
        reg.histogram("h", buckets=(1.0,)).observe(-0.0)
        check()
        reg.histogram("h", buckets=(1.0,)).observe(0.0)
        check()
        reg.counter("late_total").inc(1e308)
        check()
        assert '"value": NaN' in reg.to_json()

    def test_merge_refuses_non_integer_bucket_counts(self):
        reg = MetricsRegistry()
        reg.histogram("h", buckets=(1.0,)).observe(0.5)
        snap = reg.snapshot()
        snap["metrics"][0]["series"][0]["bucket_counts"] = [1.0, 0]
        with pytest.raises(MetricError, match="integers"):
            MetricsRegistry().merge(snap)


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
