"""Span bookkeeping: self time, nesting, and spans from forked workers."""

import multiprocessing
import os

import pytest

from layers import layer_metrics
from spans import Span, Tracer, covered_length, self_times


def span(n, name, start, end, parent=None, pid=1, **attrs):
    return Span((pid, n), name, start, end, (1, parent) if parent is not None else None, attrs)


def test_covered_length_merges_overlaps_and_clips():
    assert covered_length([(1, 3), (2, 5), (8, 12)], 0, 10) == 6
    assert covered_length([], 0, 10) == 0
    assert covered_length([(11, 12)], 0, 10) == 0


def test_self_time_subtracts_the_union_of_children():
    spans = [
        span(0, "outer", 0.0, 10.0),
        span(1, "child", 1.0, 3.0, parent=0),
        span(2, "child", 2.0, 5.0, parent=0),   # overlaps its sibling
        span(3, "grandchild", 1.5, 2.5, parent=1),
    ]
    own = self_times(spans)
    assert own[(1, 0)] == pytest.approx(6.0)
    assert own[(1, 1)] == pytest.approx(1.0)
    assert own[(1, 2)] == pytest.approx(3.0)
    assert own[(1, 3)] == pytest.approx(1.0)


def test_tracer_records_nesting_attributes_and_errors(tmp_path):
    tracer = Tracer(str(tmp_path))

    def leaf(x):
        if x < 0:
            raise ValueError("negative")
        return x * 2

    leaf_t = tracer.wrap("leaf", leaf, after=lambda attrs, a, k, r: attrs.update(out=r))

    def outer():
        leaf_t(1)
        with pytest.raises(ValueError):
            leaf_t(-1)
        return leaf_t(3)

    assert tracer.wrap("outer", outer)() == 6
    spans = tracer.collect()
    outer_span = next(s for s in spans if s.name == "outer")
    leaves = [s for s in spans if s.name == "leaf"]
    assert len(leaves) == 3
    assert all(s.parent == outer_span.sid for s in leaves)
    assert [s.attrs.get("out") for s in leaves] == [2, None, 6]
    assert [s.attrs.get("error") for s in leaves] == [None, "ValueError", None]
    assert tracer.collect() == []


def test_paused_tracer_records_nothing(tmp_path):
    tracer = Tracer(str(tmp_path))
    f = tracer.wrap("f", lambda: 1)
    with tracer.paused():
        f()
    assert tracer.collect() == []


def test_patch_and_restore(tmp_path):
    import types

    module = types.SimpleNamespace(f=lambda: 5)
    original = module.f
    tracer = Tracer(str(tmp_path))
    tracer.patch(module, "f", "layer.f")
    assert module.f() == 5
    tracer.restore()
    assert module.f is original
    assert [s.name for s in tracer.collect()] == ["layer.f"]


def test_worker_spans_are_merged_under_the_open_parent(tmp_path):
    tracer = Tracer(str(tmp_path))
    leaf = tracer.wrap("leaf", lambda: sum(range(1000)))
    ctx = multiprocessing.get_context("fork")

    def fan_out():
        workers = [ctx.Process(target=leaf) for _ in range(2)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=30)
        assert all(w.exitcode == 0 for w in workers)
        leaf()

    tracer.wrap("study", fan_out)()
    spans = tracer.collect()
    study = next(s for s in spans if s.name == "study")
    leaves = [s for s in spans if s.name == "leaf"]
    assert len(leaves) == 3
    assert all(s.parent == study.sid for s in leaves)
    assert len({s.sid[0] for s in leaves}) == 3
    assert sum(s.sid[0] == os.getpid() for s in leaves) == 1
    assert not any(p.name.startswith("spans-") for p in tmp_path.iterdir())


def test_pool_metrics_from_worker_spans():
    spans = [
        span(0, "driver.study", 0.0, 10.0, jobs=2),
        span(1, "driver.study_row", 0.5, 8.5, parent=0, pid=2),
        span(2, "driver.study_row", 0.5, 6.5, parent=0, pid=3),
    ]
    values = layer_metrics(spans, 10.0)
    assert values["driver.pool_busy_s"] == pytest.approx(14.0)
    assert values["driver.pool_idle_s"] == pytest.approx(6.0)
    assert values["driver.parallel_efficiency"] == pytest.approx(0.7)


def test_unused_layers_report_zero():
    values = layer_metrics([], 1.0)
    assert values["reduction.trisolves"] == 0
    assert values["driver.parallel_efficiency"] == 0.0
    assert values["trace.wall_s"] == 1.0
