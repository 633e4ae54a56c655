"""Span recording, self-time subtraction and Chrome trace export."""

import json
import threading

from tracing import Span, Tracer, descendants, layer_table, self_times


def span(i, parent, name, start, end, thread=1, request=None):
    return Span(i, parent, name, start, end, thread, request)


def test_self_time_subtracts_children():
    spans = [span(1, 0, "root", 0, 100),
             span(2, 1, "a", 10, 30),
             span(3, 1, "b", 40, 70),
             span(4, 3, "c", 50, 60)]
    st = self_times(spans)
    assert st == {1: 50, 2: 20, 3: 20, 4: 10}
    # Self times of a tree add up to its root's duration.
    assert sum(st.values()) == 100


def test_self_time_counts_overlapping_children_once():
    spans = [span(1, 0, "root", 0, 100),
             span(2, 1, "a", 10, 50, thread=2),
             span(3, 1, "b", 30, 70, thread=3),
             span(4, 1, "late", 90, 120)]     # clipped to the parent
    assert self_times(spans)[1] == 100 - (70 - 10) - (100 - 90)


def test_layer_table_does_not_double_count_recursion():
    spans = [span(1, 0, "f", 0, 100), span(2, 1, "f", 10, 60),
             span(3, 2, "g", 20, 40)]
    table = layer_table(spans)
    assert table["f"]["calls"] == 2
    assert table["f"]["total_ms"] == 100 / 1e6
    assert table["f"]["self_ms"] == (100 - 50 + 50 - 20) / 1e6
    assert table["g"]["self_ms"] == 20 / 1e6


def test_descendants():
    spans = [span(1, 0, "r", 0, 10), span(2, 1, "a", 1, 2),
             span(3, 2, "b", 1, 2), span(4, 0, "other", 0, 10)]
    assert {s.id for s in descendants(spans, [1])} == {1, 2, 3}


class Thing:
    def work(self, x):
        return helper(x) + 1

    @classmethod
    def make(cls, x):
        return x * 2


def helper(x):
    return x * 10


def test_wrap_records_parents_requests_and_unwraps():
    import sys
    module = sys.modules[__name__]
    originals = (Thing.__dict__["work"], Thing.__dict__["make"], helper)
    tracer = Tracer()
    tracer.wrap(Thing, "work", "thing.work", request_of=lambda s, x: x)
    tracer.wrap(Thing, "make", "thing.make")
    tracer.wrap(module, "helper", "helper")
    assert Thing().work(3) == 31          # disabled: plain call
    assert tracer.spans == []
    tracer.enabled = True
    assert tracer.run("top", Thing().work, 4) == 41
    assert Thing.make(5) == 10
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["thing.work"].parent == by_name["top"].id
    assert by_name["helper"].parent == by_name["thing.work"].id
    assert by_name["helper"].request == 4  # inherited from its parent
    assert by_name["top"].request is None
    assert by_name["thing.make"].parent == 0
    assert tracer.layers == ["thing.work", "thing.make", "helper"]
    tracer.unwrap()
    assert (Thing.__dict__["work"], Thing.__dict__["make"],
            module.helper) == originals
    assert Thing.make(2) == 4


def test_threads_get_their_own_parent_stack():
    tracer = Tracer()
    tracer.enabled = True
    done = []

    def worker():
        tracer.run("child", done.append, 1)

    def parent():
        t = threading.Thread(target=worker)
        t.start()
        t.join()

    tracer.run("parent", parent)
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["child"].parent == 0
    assert by_name["child"].thread != by_name["parent"].thread


def test_chrome_trace_is_valid(tmp_path):
    tracer = Tracer()
    tracer.enabled = True
    tracer.run("outer", tracer.run, "inner", sum, [1, 2], request=7)
    path = tmp_path / "t.json"
    assert tracer.chrome_trace(str(path), {"seed": 1}) == 3
    doc = json.loads(path.read_text())
    events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert {e["name"] for e in events} == {"outer", "inner"}
    for e in events:
        assert {"name", "ph", "ts", "dur", "pid", "tid"} <= set(e)
        assert e["dur"] >= 0 and e["ts"] >= 0
    inner = next(e for e in events if e["name"] == "inner")
    outer = next(e for e in events if e["name"] == "outer")
    assert inner["args"]["parent"] == outer["args"]["id"]
    assert inner["args"]["request"] == 7
    assert any(e["ph"] == "M" for e in doc["traceEvents"])


def test_during_adds_other_threads_work_inside_the_phase():
    tracer = Tracer()
    tracer.spans = [span(1, 0, "phase", 100, 200, thread=1),
                    span(2, 1, "submit", 110, 120, thread=1),
                    span(3, 0, "worker", 150, 250, thread=2),
                    span(4, 3, "acquire", 150, 160, thread=2),
                    span(5, 0, "worker", 300, 400, thread=2),
                    span(6, 0, "phase", 500, 600, thread=1)]
    got = {s.id for s in tracer.during("phase")}
    assert got == {1, 2, 3, 4, 6}


def test_layer_metrics_report_every_wrapped_layer():
    from common import layer_metrics
    tracer = Tracer()
    tracer.layers = ["a", "unreached"]
    ms = 1_000_000
    tracer.spans = [span(1, 0, "run.x", 0, 100 * ms),
                    span(2, 1, "a", 10 * ms, 30 * ms),
                    span(3, 1, "a", 40 * ms, 50 * ms),
                    span(4, 0, "run.y", 100 * ms, 200 * ms),
                    span(5, 0, "setup", 200 * ms, 300 * ms),
                    span(6, 5, "a", 200 * ms, 300 * ms)]
    got = layer_metrics(tracer, "run.", ops=4)
    assert got == {"a.calls_per_op": (0.5, "count"),
                   "a.busy_pct": (15.0, "%"),
                   "unreached.calls_per_op": (0.0, "count"),
                   "unreached.busy_pct": (0.0, "%")}
