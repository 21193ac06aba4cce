"""Tests for the benchmark's percentile selection, tracing and tallies.

    python3 -m pytest -q perfbench/tests
"""

import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from core import Op, Tally, execute  # noqa: E402
from stats import latency_summary, nearest_rank, samples_beyond, tail_percentile  # noqa: E402
from tracing import ROOT, NullTracer, Span, Tracer, layer_metrics, self_times  # noqa: E402


@pytest.mark.parametrize(
    "n, expected",
    [(5, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0),
     (100, 90.0), (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0),
     (9999, 99.0), (10000, 99.9)],
)
def test_tail_percentile_is_highest_with_ten_beyond(n, expected):
    assert tail_percentile(n) == expected
    if expected is not None:
        assert samples_beyond(n, expected) >= 10


def test_tail_percentile_cap_holds_when_samples_grow():
    assert tail_percentile(5000, cap=75.0) == 75.0
    assert tail_percentile(300, cap=95.0) == 95.0
    assert tail_percentile(30, cap=95.0) == 50.0


def test_nearest_rank_returns_a_sample():
    values = list(range(1, 101))
    assert nearest_rank(values, 50) == 50
    assert nearest_rank(values, 75) == 75
    assert nearest_rank(values, 99.9) == 100
    assert nearest_rank([7], 50) == 7
    with pytest.raises(ValueError):
        nearest_rank([], 50)


def test_latency_summary_states_percentile_and_count():
    summary = latency_summary([i / 1000 for i in range(1, 41)], cap=95.0)
    assert summary["samples"] == 40
    assert summary["tail_percentile"] == 75.0
    assert summary["tail_beyond"] == 10
    assert summary["tail_ms"] == pytest.approx(30.0)
    assert summary["p50_ms"] == pytest.approx(20.5)


def _span(span_id, name, start, end, parent=None, status="ok", counts=None):
    return Span(span_id, name, start, end, parent, 0, status, counts or {})


def test_self_time_subtracts_children():
    spans = [
        _span(0, ROOT, 0, 100),
        _span(1, "graphs.build_spheres", 10, 30, parent=0),
        _span(2, "graphs.wildberger_tensor", 40, 70, parent=0),
    ]
    assert self_times(spans) == {0: 50, 1: 20, 2: 30}


def test_self_time_merges_overlapping_and_clips_children():
    spans = [
        _span(0, "outer", 0, 100),
        _span(1, "a", 10, 50, parent=0),
        _span(2, "b", 40, 60, parent=0),  # overlaps a by 10
        _span(3, "c", 90, 120, parent=0),  # runs past the parent
        _span(4, "inner", 20, 30, parent=1),  # grandchild: a's time only
    ]
    selfs = self_times(spans)
    assert selfs[0] == 100 - 50 - 10
    assert selfs[1] == 40 - 10
    assert selfs[4] == 10


def test_layer_metrics_per_round():
    spans = [
        _span(0, ROOT, 0, 1_000_000_000),
        _span(1, "oqrw.check_hb", 0, 500_000_000, parent=0,
              counts={"oqrw.check_hb.checked": 30, "oqrw.check_hb.skipped": 10}),
        _span(2, "graphs.wildberger_tensor", 500_000_000, 600_000_000, parent=0,
              status="expected"),
        _span(3, "cli.walk", 600_000_000, 700_000_000, parent=0, status="unexpected"),
    ]
    m = layer_metrics(spans, rounds=2)
    assert m["oqrw.check_hb.calls"] == 0.5
    assert m["oqrw.check_hb.busy_s"] == pytest.approx(0.25)
    assert m["oqrw.check_hb.checked"] == 15
    assert m["oqrw.check_hb.useful_frac"] == pytest.approx(0.75)
    assert m["graphs.errors.expected"] == 0.5
    assert m["graphs.errors.unexpected"] == 0
    assert m["cli.errors.unexpected"] == 0.5
    assert m["bench.oracle.busy_s"] == pytest.approx(0.15)


def test_tracer_records_status_and_counts():
    tracer = Tracer()
    tracer.begin_op()
    assert tracer.call("m.ok", lambda x: x + 1, 1, counts=lambda r: {"m.n": r}) == 2
    with pytest.raises(KeyError):
        tracer.call("m.refuse", {}.__getitem__, "k", expect=(KeyError,))
    with pytest.raises(ZeroDivisionError):
        tracer.call("m.crash", lambda: 1 / 0, expect=(KeyError,))
    tracer.call("m.exit", lambda: 2, refused=lambda code: code == 2)
    tracer.end_op()
    root, ok, refused, crashed, exited = tracer.spans
    assert root.name == ROOT and root.parent is None
    assert {s.parent for s in tracer.spans[1:]} == {root.span_id}
    assert ok.counts == {"m.n": 2}
    assert [s.status for s in tracer.spans[1:]] == ["ok", "expected", "unexpected", "expected"]
    assert all(s.end_ns >= s.start_ns for s in tracer.spans)


def test_null_tracer_passes_through():
    assert NullTracer().call("m.f", max, 1, 3, expect=(KeyError,), counts=len) == 3


def test_tally_attributes_known_defects_only_to_their_checks():
    tally = Tally()
    op = Op("t51", lambda call: [], defect="t51-truncated",
            defect_checks=frozenset({"theorem-5.1"}))
    tally.record(op, 0.1, [])
    tally.record(op, 0.1, ["theorem-5.1: FAIL"])
    tally.record(op, 0.1, ["theorem-5.1: FAIL", "hb: FAIL"])
    assert tally.attempted == 3 and tally.failed == 2
    assert tally.defects == {"t51-truncated": 1}
    assert tally.unexpected == [("t51", ["theorem-5.1: FAIL", "hb: FAIL"])]


def test_unknown_defect_id_is_rejected():
    with pytest.raises(ValueError):
        Op("x", lambda call: [], defect="no-such-defect")


def test_execute_turns_an_exception_into_a_failure():
    def boom(call):
        raise TypeError("bad")

    latency, failures = execute(Op("boom", boom), NullTracer())
    assert latency >= 0
    assert failures == ["raised TypeError: bad"]


def test_speed_probe_samples_at_its_interval(monkeypatch):
    import calibrate

    monkeypatch.setattr(calibrate, "kernel_seconds", lambda: 0.01)
    probe = calibrate.SpeedProbe(interval_s=0.0)
    probe.maybe_sample()
    probe.maybe_sample()
    assert probe.samples == [0.01, 0.01]
    idle = calibrate.SpeedProbe(interval_s=3600.0)
    idle.maybe_sample()
    assert idle.samples == [] and idle.spent_s == 0.0


def test_run_rounds_leaves_probe_time_out_of_the_walls():
    from core import run_rounds

    class SlowProbe:
        spent_s = 0.0

        def maybe_sample(self):
            start = time.perf_counter()
            time.sleep(0.05)
            self.spent_s += time.perf_counter() - start

    op = Op("nap", lambda call: time.sleep(0.01) or [])
    tally = Tally()
    walls = run_rounds(lambda r: [op, op], 0.0, [NullTracer()], tally, SlowProbe())
    assert len(walls) == 1 and tally.attempted == 2
    assert 0.015 < walls[0][0] < 0.06


def test_reference_kernel_takes_time():
    import calibrate

    assert calibrate.kernel_seconds() > 0
