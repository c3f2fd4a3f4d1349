"""Span accounting: self times are exact and account for all traced time."""

import pytest

import spans


class FakeClock:
    def __init__(self, times):
        self._times = iter(times)

    def __call__(self):
        return next(self._times)


def test_self_times_of_a_nested_tree_are_exact():
    # root [0, 10] > a [1, 5] > leaf [2, 4]; root > b [6, 9]; other [12, 13]
    tracer = spans.Tracer(FakeClock([0, 1, 2, 4, 5, 6, 9, 10, 12, 13]))
    root = tracer.begin("root")
    a = tracer.begin("a")
    leaf = tracer.begin("leaf")
    assert tracer.end(leaf) == 2
    assert tracer.end(a) == 4
    b = tracer.begin("b")
    tracer.end(b)
    tracer.end(root)
    other = tracer.begin("root")
    tracer.end(other)

    assert tracer.self_times() == {"root": 3 + 1, "a": 2, "leaf": 2, "b": 3}
    assert tracer.root_seconds() == 11
    assert sum(tracer.self_times().values()) == tracer.root_seconds()


def test_spans_must_close_innermost_first():
    tracer = spans.Tracer(FakeClock(range(10)))
    outer = tracer.begin("outer")
    tracer.begin("inner")
    with pytest.raises(RuntimeError):
        tracer.end(outer)


def test_wrappers_nest_count_and_keep_results():
    tracer = spans.Tracer(FakeClock([0, 1, 3, 7]))
    inner = spans._wrap(
        lambda xs: [x * 2 for x in xs],
        tracer,
        "inner",
        [("inner.calls", None), ("inner.items", spans._len_arg(0))],
    )
    outer = spans._wrap(lambda xs: inner(xs) + [0], tracer, "outer", [])

    assert outer([1, 2, 3]) == [2, 4, 6, 0]
    assert tracer.self_times() == {"outer": 5, "inner": 2}
    assert tracer.counts == {"inner.calls": 1, "inner.items": 3}


def test_wrapper_closes_its_span_when_the_call_raises():
    tracer = spans.Tracer(FakeClock([0, 1, 2, 3]))

    def fail():
        raise ValueError("boom")

    wrapped = spans._wrap(fail, tracer, "fail", [("fail.calls", None)])
    root = tracer.begin("root")
    with pytest.raises(ValueError):
        wrapped()
    tracer.end(root)
    assert tracer.self_times() == {"root": 2, "fail": 1}
    assert tracer.counts == {}


def test_uninstall_restores_the_original_methods():
    import importlib

    owners = [
        (getattr(importlib.import_module(module), cls), attr)
        for module, cls, attr, _, _ in spans.TARGETS
    ]
    before = [owner.__dict__[attr] for owner, attr in owners]
    instrumentation = spans.Instrumentation(spans.Tracer())
    with instrumentation:
        assert all(
            owner.__dict__[attr] is not raw
            for (owner, attr), raw in zip(owners, before)
        )
        context = importlib.import_module("repro.engine.context")
        assert isinstance(
            context.DeploymentContext.__dict__["build"], classmethod
        )
    assert [owner.__dict__[attr] for owner, attr in owners] == before
