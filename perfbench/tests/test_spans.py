"""Span recording and self-time subtraction."""

import json
import threading

import pytest

import run
import spans


def test_covered_merges_overlaps_and_clips():
    assert spans.covered((0.0, 10.0), []) == 0.0
    assert spans.covered((0.0, 10.0), [(1.0, 3.0), (2.0, 5.0)]) == 4.0
    assert spans.covered((0.0, 10.0), [(8.0, 12.0), (-2.0, 1.0)]) == 3.0
    assert spans.covered((0.0, 10.0), [(2.0, 3.0), (2.5, 2.7), (4.0, 6.0)]) == 3.0
    assert spans.covered((0.0, 10.0), [(11.0, 12.0)]) == 0.0


def _dump(names, rows):
    return {"names": names, "spans": rows, "counts": {}}


def test_self_time_subtracts_children_once():
    # parent 0..10; children 1..3 and 2..5 overlap; a grandchild inside
    # the first child only reduces the child's self time.
    dump = _dump(["a", "b", "c"], [
        (1, 1, 1.0, 3.0, 0),
        (2, 1, 2.0, 5.0, 0),
        (3, 2, 1.5, 2.0, 1),
        (0, 0, 0.0, 10.0, spans.ROOT),
    ])
    agg = spans.aggregate(dump)
    assert agg["a"] == {"calls": 1, "total_s": 10.0, "self_s": 6.0}
    assert agg["b"]["calls"] == 2
    assert agg["b"]["total_s"] == 5.0
    assert agg["b"]["self_s"] == 4.5
    assert agg["c"] == {"calls": 1, "total_s": 0.5, "self_s": 0.5}


def test_merge_sums_processes():
    one = {"x": {"calls": 1, "total_s": 2.0, "self_s": 1.0}}
    two = {"x": {"calls": 2, "total_s": 1.0, "self_s": 1.0},
           "y": {"calls": 1, "total_s": 0.5, "self_s": 0.5}}
    assert spans.merge([one, two]) == {
        "x": {"calls": 3, "total_s": 3.0, "self_s": 2.0},
        "y": {"calls": 1, "total_s": 0.5, "self_s": 0.5},
    }


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_wrap_records_parents_and_counts(tmp_path):
    recorder = spans.SpanRecorder(clock=FakeClock())

    def observe(counts, result, value):
        counts["seen"] += result

    inner = recorder.wrap("inner", lambda value: value * 2, observe)
    outer = recorder.wrap("outer", lambda: inner(1) + inner(2))
    assert outer() == 6
    assert recorder.counts["seen"] == 6
    path = tmp_path / "spans.json"
    recorder.dump(str(path))
    agg = spans.aggregate(json.loads(path.read_text()))
    # outer: clock 1..6; inners 2..3 and 4..5.
    assert agg["outer"] == {"calls": 1, "total_s": 5.0, "self_s": 3.0}
    assert agg["inner"] == {"calls": 2, "total_s": 2.0, "self_s": 2.0}


def test_reentrant_call_of_the_same_name_records_one_span():
    recorder = spans.SpanRecorder()

    def base(n):
        return n

    wrapped_base = recorder.wrap("cost_table", base)
    delegate = recorder.wrap("cost_table", lambda n: wrapped_base(n) + 1)
    assert delegate(1) == 2
    assert [row[1] for row in recorder.spans] == [0]


def test_exceptions_still_close_the_span():
    recorder = spans.SpanRecorder()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        recorder.wrap("boom", boom)()
    assert len(recorder.spans) == 1
    assert recorder._stack() == []


def test_threads_keep_separate_parent_stacks():
    recorder = spans.SpanRecorder()
    leaf = recorder.wrap("leaf", lambda: None)
    ready = threading.Event()
    release = threading.Event()

    def hold():
        ready.set()
        release.wait(5)
        leaf()

    holder = recorder.wrap("holder", hold)
    thread = threading.Thread(target=holder)
    thread.start()
    ready.wait(5)
    leaf()  # on the main thread: no parent, although "holder" is open
    release.set()
    thread.join(5)
    assert not thread.is_alive()
    names = recorder.names
    parents = {names[name_id]: parent for _, name_id, _, _, parent
               in recorder.spans if names[name_id] == "leaf" and parent == spans.ROOT}
    assert parents == {"leaf": spans.ROOT}
    leaf_parents = sorted(parent for _, name_id, _, _, parent in recorder.spans
                          if names[name_id] == "leaf")
    holder_id = [span_id for span_id, name_id, _, _, _ in recorder.spans
                 if names[name_id] == "holder"][0]
    assert leaf_parents == sorted([spans.ROOT, holder_id])


IMPORTTIME = """\
import time: self [us] | cumulative | imported package
import time:         5 |          5 | repro
import time:       100 |        100 |       numpy.core
import time:       200 |        300 |     numpy
import time:        50 |         50 |       scipy._lib
import time:        10 |         60 |     scipy
import time:        40 |         40 |     numpy.linalg
import time:        20 |        420 |   repro.analysis
import time:        30 |        450 | repro.cli
"""


def test_importtime_sums_outermost_lines_per_package():
    times = run.parse_importtime(
        IMPORTTIME, ("repro", "repro.analysis", "scipy", "numpy"))
    assert times == pytest.approx({
        "repro": 455e-6,            # the package, then repro.cli at top level
        "repro.analysis": 420e-6,
        "scipy": 60e-6,
        # numpy, plus numpy.linalg imported later by a non-numpy module
        "numpy": 340e-6,
    })
