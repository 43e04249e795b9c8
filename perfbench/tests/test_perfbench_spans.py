"""Span recording and reduction of the traced benchmark run."""

import sys
import threading
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from perfbench import tracing  # noqa: E402


def span(sid, parent, name, start, end, ok=True):
    return (sid, parent, name, start, end, ok)


# root [0, 10] with children a [1, 4] and b [2, 6] from two pool threads
# (overlapping), and c [8, 9]; a has the child d [1.5, 2.5].
TREE = [
    span(1, None, "root", 0.0, 10.0),
    span(2, 1, "a", 1.0, 4.0),
    span(3, 1, "b", 2.0, 6.0),
    span(4, 1, "c", 8.0, 9.0),
    span(5, 2, "d", 1.5, 2.5),
]


def test_self_time_subtracts_union_of_overlapping_children():
    by_name = tracing.reduce_spans(TREE)
    # union of [1, 4], [2, 6] and [8, 9] is 6 long
    assert by_name["root"]["self_s"] == pytest.approx(4.0)
    assert by_name["root"]["total_s"] == pytest.approx(10.0)
    assert by_name["a"]["self_s"] == pytest.approx(2.0)
    assert by_name["b"]["self_s"] == pytest.approx(4.0)
    assert by_name["d"]["self_s"] == pytest.approx(1.0)
    assert tracing.largest_self(TREE) == ("root", pytest.approx(4.0))


def test_self_time_sums_over_calls_and_clips_children():
    spans = [
        span(1, None, "root", 0.0, 4.0),
        span(2, 1, "leaf", 0.0, 1.0),
        span(3, 1, "leaf", 3.5, 5.0, ok=False),  # outlives its parent: clipped
    ]
    by_name = tracing.reduce_spans(spans)
    assert by_name["root"]["self_s"] == pytest.approx(2.5)
    assert by_name["leaf"] == {"calls": 2, "raised": 1, "total_s": pytest.approx(2.5),
                               "self_s": pytest.approx(2.5)}


def test_recorder_parents_pool_thread_spans_to_the_root():
    rec = tracing.Recorder()
    leaf = rec.wrap("leaf", lambda: None)

    def job():
        leaf()

    def root():
        workers = [threading.Thread(target=rec.wrap("job", job)) for _ in range(2)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=10)
        assert not any(w.is_alive() for w in workers)
        leaf()

    rec.wrap("root", root)()
    by_id = {s[0]: s for s in rec.spans}
    (root_span,) = [s for s in rec.spans if s[2] == "root"]
    assert root_span[1] is None and rec.root == root_span[0]
    jobs = [s for s in rec.spans if s[2] == "job"]
    assert [s[1] for s in jobs] == [root_span[0]] * 2
    leaves = [s for s in rec.spans if s[2] == "leaf"]
    assert sorted(by_id[s[1]][2] for s in leaves) == ["job", "job", "root"]


def test_recorder_marks_raising_calls_and_reraises():
    rec = tracing.Recorder()

    def boom():
        raise ValueError("stage")

    wrapped = rec.wrap("boom", boom, count=lambda r, a, res, dt: r.add("never", 1))
    with pytest.raises(ValueError):
        wrapped()
    assert rec.spans[0][5] is False
    assert "never" not in rec.counts


def test_layer_metrics_reads_spans_and_counters():
    spans = [
        span(1, None, "cli.main", 0.0, 10.0),
        span(2, 1, "cli.job", 0.0, 6.0),
        span(3, 1, "cli.job", 1.0, 7.0),
        span(4, 2, "integrator.integrate", 0.5, 5.5),
        span(5, 4, "dynamics.rhs", 1.0, 2.0),
        span(6, 4, "dynamics.rhs", 2.0, 2.1, ok=False),
        span(7, 5, "dynamics.convolve", 1.0, 1.5),
    ]
    counts = {"integrator.accepted": 1, "integrator.rejected_guard": 1,
              "integrator.rhs_evals": 1, "dynamics.rhs_particles": 101}
    m = tracing.layer_metrics(spans, counts)
    assert m["cli.job_concurrency"] == pytest.approx(1.2)
    assert m["cli.self_s"] == pytest.approx(3.0)
    assert m["integrator.self_s"] == pytest.approx(3.9)
    assert m["integrator.accept_ratio"] == pytest.approx(0.5)
    assert m["dynamics.rhs_calls"] == 1 and m["dynamics.rhs_raised"] == 1
    assert m["dynamics.rhs_us_per_particle"] == pytest.approx(1.1e6 / 101)
    assert m["dynamics.convolve_s"] == pytest.approx(0.5)
    assert m["reference.fv_run_s"] == 0.0
    assert set(m) | {"trace.overhead_s"} == set(tracing.PER_LAYER_UNITS)
