import pytest

import tracing
from tracing import Recorder, Span, covered, self_times


def _span(sid, name, start, end, parent=None):
    return Span(sid, name, parent, thread=1, start=start, end=end)


def test_self_time_subtracts_what_children_cover():
    root = _span(1, "root", 0.0, 10.0)
    a = _span(2, "a", 1.0, 4.0, root)
    b = _span(3, "b", 5.0, 9.0, root)
    b1 = _span(4, "b1", 6.0, 7.0, b)
    b2 = _span(5, "b2", 7.5, 8.0, b)
    selfs = self_times([b1, b2, a, b, root])
    assert selfs == pytest.approx({1: 3.0, 2: 3.0, 3: 2.5, 4: 1.0, 5: 0.5})


def test_self_time_counts_overlapping_children_once():
    # two worker threads run children of the same step span at once
    step = _span(1, "step", 0.0, 10.0)
    left = _span(2, "left", 1.0, 6.0, step)
    right = _span(3, "right", 4.0, 8.0, step)
    late = _span(4, "late", 9.0, 12.0, step)  # clipped at the parent's end
    assert self_times([step, left, right, late])[1] == pytest.approx(10.0 - 7.0 - 1.0)
    assert covered(0.0, 10.0, []) == 0.0


def test_recorder_nests_spans_per_thread_and_resolves_instance_ids():
    recorder = Recorder()
    outer = recorder.open("outer")
    inner = recorder.open("inner")
    recorder.close(inner)
    recorder.close(outer)
    outer.instance = "x-1"
    assert inner.parent is outer and outer.parent is None
    assert inner.instance_id() == "x-1" and inner.has_ancestor("outer")
    assert [s.name for s in recorder.spans] == ["inner", "outer"]


def test_install_wraps_every_site_and_restore_puts_the_originals_back():
    from graphstage import cli, generator

    before = (generator.build_graph, cli.generate_corpus)
    recorder = Recorder()
    restore = tracing.install(recorder)
    try:
        assert generator.build_graph is not before[0]
        generator.build_graph(False, 2, [(0, 1)])
    finally:
        restore()
    assert (generator.build_graph, cli.generate_corpus) == before
    assert [s.name for s in recorder.spans] == ["graphs.build_graph"]


def test_schedule_cycles_inputs_and_traces_the_middle_of_each_group_of_four():
    from itertools import islice

    from worker import schedule

    assert list(islice(schedule(3, False), 7)) == [(0, False), (1, False), (2, False), (0, False),
                                                   (1, False), (2, False), (0, False)]
    traced = list(islice(schedule(2, True), 12))
    assert [which for which, _ in traced] == [0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 0, 0]
    assert [flag for _, flag in traced] == [False, True, True, False] * 3
