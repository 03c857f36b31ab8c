"""Tests of the benchmark's own arithmetic on synthetic spans and runs.

    python3 -m pytest bench/test_bench.py
"""

import pytest

import analysis
import workloads
from spans import Tracer


def span(name, start, end, parent=-1, counted=0.0):
    return (name, start, end, parent, counted)


def test_self_time_subtracts_nested_children():
    spans = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 4.0, parent=0),
        span("a.inner", 2.0, 3.0, parent=1),
        span("b", 5.0, 6.0, parent=0),
    ]
    assert analysis.span_self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_overlapping_children_count_once():
    spans = [
        span("root", 0.0, 10.0),
        span("x", 1.0, 5.0, parent=0),
        span("y", 3.0, 7.0, parent=0),  # overlaps x on [3, 5]
        span("z", 6.0, 6.5, parent=0),  # inside y
    ]
    selves = analysis.span_self_times(spans)
    assert selves[0] == pytest.approx(10.0 - 6.0)


def test_children_sticking_out_are_clipped_and_counted_calls_subtracted():
    spans = [
        span("root", 0.0, 4.0, counted=0.5),
        span("late", 3.0, 6.0, parent=0),
    ]
    assert analysis.span_self_times(spans)[0] == pytest.approx(4.0 - 1.0 - 0.5)


def test_self_times_partition_a_traced_run():
    ticks = iter(range(100))
    tr = Tracer(clock=lambda: float(next(ticks)))
    leaf = tr.counter("leaf", lambda: None)
    inner = tr.span("inner", lambda: leaf())
    outer = tr.span("outer", lambda: (inner(), leaf()))
    outer()
    selves = analysis.span_self_times(tr.spans)
    counted_self = sum(own for _, _, own in tr.counted.values())
    root = tr.spans[0]
    assert sum(selves) + counted_self == pytest.approx(root[2] - root[1])
    assert tr.counted["leaf"][0] == 2


def test_span_under_counted_call_is_charged_to_that_call():
    ticks = iter(range(100))
    tr = Tracer(clock=lambda: float(next(ticks)))
    nested = tr.span("nested", lambda: None)
    hot = tr.counter("hot", lambda: nested())
    outer = tr.span("outer", lambda: hot())
    outer()
    selves = analysis.span_self_times(tr.spans)
    calls, total, own = tr.counted["hot"]
    outer_rec, nested_rec = tr.spans
    assert nested_rec[3] == -2
    assert own == pytest.approx(total - (nested_rec[2] - nested_rec[1]))
    assert sum(selves) + own == pytest.approx(outer_rec[2] - outer_rec[1])


def test_tail_percentile_needs_ten_samples_beyond():
    assert analysis.tail_percentile(7) is None
    assert analysis.tail_percentile(99) is None
    assert analysis.tail_percentile(100) == 90.0
    assert analysis.tail_percentile(999) == 90.0
    assert analysis.tail_percentile(1000) == 99.0
    assert analysis.tail_percentile(9999) == 99.0
    assert analysis.tail_percentile(10_000) == 99.9


def test_summarize_reports_center_median_count_and_supported_tail():
    small = analysis.summarize([3.0, 1.0, 2.0])
    assert small == {"center": 2.0, "median": 2.0, "n": 3}
    big = analysis.summarize([float(i) for i in range(101)])
    assert big["median"] == 50.0 and big["n"] == 101
    assert big["p90"] == pytest.approx(90.0)


def test_hodges_lehmann_ignores_an_outlier_and_does_not_jump_between_clusters():
    assert analysis.hodges_lehmann([1.0, 1.1, 0.9, 1.0, 50.0]) < 1.5
    # Two clusters, one more sample in the slow one: the median jumps to the
    # slow cluster, the Hodges-Lehmann estimate stays between them.
    runs = [2.0, 2.0, 2.0, 2.0, 3.0, 3.0, 3.0, 3.0, 3.0]
    assert analysis.summarize(runs)["median"] == 3.0
    assert 2.0 < analysis.hodges_lehmann(runs) < 3.0


def test_percentile_interpolates():
    assert analysis.percentile([1.0, 2.0, 3.0, 4.0], 50) == pytest.approx(2.5)
    assert analysis.percentile([5.0], 99) == 5.0


def test_fail_ratio_counts_every_operation_of_a_crashed_child():
    attempted, failed = analysis.fail_ratio([(70, 0), (70, None), (71, 1)])
    assert (attempted, failed) == (211, 71)


def test_import_breakdown_sums_self_times_per_package():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |   numpy.core",
        "import time:       200 |        300 | numpy",
        "import time:        50 |         50 |     scipy.integrate",
        "import time:        10 |        360 | kvnlab",
        "some other stderr line",
    ])
    got = analysis.import_breakdown(text, ("numpy", "scipy", "kvnlab"))
    assert got["numpy"] == pytest.approx(300e-6)
    assert got["scipy"] == pytest.approx(50e-6)
    assert got["kvnlab"] == pytest.approx(10e-6)
    assert got["total"] == pytest.approx(360e-6)


def test_observables_are_seeded_and_within_degree():
    first = workloads.observables(7)
    assert first == workloads.observables(7)
    assert first != workloads.observables(8)
    for terms in first:
        monos = [(a, b) for _, a, b in terms]
        assert len(set(monos)) == len(monos)
        assert any(a + b > 0 for a, b in monos)
        assert all(a <= workloads.Q_DEGREE and b <= workloads.P_DEGREE for a, b in monos)
        assert all(c != 0 for c, _, _ in terms)


def test_gap_growth_rule():
    assert not workloads.gap_grew(2.8e-9, 2.8e-9)
    assert not workloads.gap_grew(1e-16, 0.0)
    assert workloads.gap_grew(3.5e-9, 2.8e-9)
    check = {"id": "vir-tower-n4", "measured": {"m0": 1e-9, "flag": True}}
    assert workloads.gap_values(check) == {"m0": 1e-9}
    check = {"id": "sym-action-exponent-n4", "measured": {"action": 0.8, "x_gap": 1e-12}}
    assert workloads.gap_values(check) == {"x_gap": 1e-12}
