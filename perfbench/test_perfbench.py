"""Tests of the benchmark's own logic: self time, the tail rule, the gate.

    python3 -m pytest perfbench -q
"""

import sys
from pathlib import Path

import pytest
from scipy.stats.mstats import hdquantiles

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import harness  # noqa: E402
import tracing  # noqa: E402
from gorlab.errors import InsufficientDegree  # noqa: E402


def span(name, start, end, parent):
    return [name, start, end, parent, "op"]


def test_self_time_subtracts_nested_children():
    spans = [
        span("bench.op", 0, 100, None),
        span("homology.tor", 10, 60, 0),
        span("linalg.rref_inplace", 20, 30, 1),
        span("linalg.row_space", 35, 55, 1),
        span("linalg.rref_inplace", 40, 50, 3),
        span("io.canonical_json", 70, 90, 0),
    ]
    assert tracing.self_times(spans) == [30, 20, 10, 10, 10, 20]
    # self times partition the root's duration
    assert sum(tracing.self_times(spans)) == 100


def test_self_time_counts_overlapping_children_once():
    spans = [span("a", 0, 100, None), span("b", 10, 50, 0),
             span("c", 40, 80, 0), span("d", 90, 120, 0)]
    # b and c overlap on [40, 50]; d is clipped to the parent at 100
    assert tracing.self_times(spans)[0] == 100 - (70 + 10)


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    xs = list(range(1, 51))            # 50 samples: p80 has ten beyond
    value, pct = harness.tail(xs)
    assert pct == 80.0
    assert value == pytest.approx(hdquantiles(xs, prob=[0.8])[0])
    assert harness.tail(xs[::-1]) == (value, pct)
    assert harness.tail(list(range(11)))[1] == pytest.approx(100 / 11)
    with pytest.raises(ValueError):
        harness.tail(list(range(10)))


def test_quantile_is_harrell_davis():
    xs = [0.2, 0.5, 0.3, 13.0, 0.4, 9.0, 0.35]
    for q in (0.1, 0.5, 0.9):
        assert harness.quantile(xs, q) == pytest.approx(
            hdquantiles(xs, prob=[q])[0])
    assert harness.quantile([2.5] * 12, 0.5) == pytest.approx(2.5)


def _gate(expected, check_full=True):
    return harness.Gate(expected, check_full=check_full)


def test_digest_mismatch_counts_as_failed_and_incorrect():
    good = harness.digest("served")
    gate = _gate({"a": {"view": good}, "b": {"view": good}})
    gate.call("a", lambda: "served", lambda v: (v, None))
    gate.call("b", lambda: "other", lambda v: (v, None))
    assert gate.attempted == 2 and gate.failed == 1
    assert gate.wrong == ["b: output differs from its digest"]
    assert not gate.correct


def test_exact_bytes_are_checked_only_when_asked():
    expected = {"a": {"view": harness.digest("inv"),
                      "full": harness.digest("bytes-at-seed-0")}}
    render = lambda v: ("inv", v)  # noqa: E731
    strict = _gate(expected, check_full=True)
    strict.call("a", lambda: "bytes-in-another-basis", render)
    assert not strict.correct
    loose = _gate(expected, check_full=False)
    loose.call("a", lambda: "bytes-in-another-basis", render)
    assert loose.correct and loose.failed == 0


def test_refusal_fails_without_making_the_run_incorrect():
    gate = _gate({"t6.tor": {"refusal": "InsufficientDegree"}})

    def refuse():
        raise InsufficientDegree("no margin", violating_index=6)

    assert gate.call("t6.tor", refuse, lambda v: (v, None)) is None
    assert gate.failed == 1 and gate.correct
    assert gate.refused == ["t6.tor: InsufficientDegree"]


def test_recorded_refusal_that_now_serves_is_a_success_for_review():
    gate = _gate({"t6.tor": {"refusal": "InsufficientDegree"}})
    gate.call("t6.tor", lambda: "table", lambda v: (v, None))
    assert gate.failed == 0 and gate.correct
    assert len(gate.review) == 1


def test_engine_fault_and_failed_check_are_incorrect():
    gate = _gate({"a": {"view": harness.digest("x")}})

    def fault():
        raise AssertionError("Lescot formula fails past the junction")

    gate.call("a", fault, lambda v: (v, None))
    gate.require("a", False, "independent check")
    assert gate.failed == 2 and not gate.correct


def test_instrument_wraps_every_import_site_and_restores():
    import gorlab
    from gorlab import homology, identity_form, make_ring, cyclic_module, series

    orig = homology.tor
    tracer = tracing.Tracer()
    restore = tracing.instrument(tracer)
    try:
        assert homology.tor is not orig
        assert series.tor is homology.tor and gorlab.tor is homology.tor
        R = make_ring(101, 3, identity_form(3))
        M, _ = cyclic_module(R, [R.x(1)])
        homology.tor(M, M, 3)            # outside an operation: not recorded
        assert tracer.spans == []
        op = tracer.open_op("x")
        table = homology.tor(M, M, 4)
        tracer.close_op(op)
    finally:
        restore()
    assert homology.tor is orig and series.tor is orig and gorlab.tor is orig
    names = {s[0] for s in tracer.spans}
    assert {"bench.op", "homology.tor", "resolution.resolve",
            "linalg.rref_inplace"} <= names
    selfs = tracing.self_times(tracer.spans)
    assert sum(selfs) == tracer.spans[0][2] - tracer.spans[0][1]
    assert tracer.counters["homology.honest_degrees"] == table.window + 1
    assert tracer.counters["resolution.differentials"] >= 1


def test_summary_scales_times_only():
    gate = _gate({})
    gate.latencies = [float(i) for i in range(1, 21)]
    gate.attempted, gate.refused = 20, ["t6.tor: InsufficientDegree"]
    metrics, pct = harness.summarize(gate, walls=[10.0, 12.0], setups=[1.0, 3.0, 2.0],
                                     peak_rss_mb=700.0, speed=0.5)
    assert metrics["wall_s"]["value"] == pytest.approx(5.5)
    assert metrics["setup_s"]["value"] == pytest.approx(1.0)
    assert metrics["op_p50_s"]["value"] == pytest.approx(
        0.5 * hdquantiles(gate.latencies, prob=[0.5])[0])
    assert pct == 50.0
    assert metrics["peak_rss_mb"]["value"] == 700.0
    assert metrics["served_share"]["value"] == pytest.approx(19 / 20)
