"""Tests for the benchmark's own helpers.

Run with ``python3 -m pytest perfbench/test_perfbench.py``; they need
neither the ``repro`` package nor a timed run.
"""

from __future__ import annotations

import json
import math
import types
from pathlib import Path

import pytest

import metrics
import run
from spans import Span, SpanRecorder, covered, self_time

ROOT = Path(__file__).resolve().parent.parent


# -- the tail percentile -------------------------------------------------


def test_tail_leaves_exactly_ten_samples_beyond():
    samples = list(range(1, 101))  # 1..100
    t = metrics.tail(samples)
    assert t["value"] == 90
    assert t["beyond"] == 10
    assert t["percentile"] == 90.0
    assert t["samples"] == 100 and t["rule_met"]
    assert sum(1 for s in samples if s > t["value"]) == 10


def test_tail_with_eleven_samples_is_the_smallest():
    t = metrics.tail([5.0, 1.0, 4.0, 3.0, 2.0, 9.0, 8.0, 7.0, 6.0, 11.0, 10.0])
    assert t["value"] == 1.0
    assert t["beyond"] == 10
    assert t["percentile"] == pytest.approx(100 / 11, abs=1e-3)


def test_tail_rule_unmet_reports_the_maximum():
    t = metrics.tail([3.0, 1.0, 2.0])
    assert t == {
        "value": 3.0, "percentile": 100.0, "beyond": 0, "samples": 3, "rule_met": False
    }


def test_failed_ops_push_the_tail_up():
    ok = [1.0] * 100
    assert metrics.tail(ok)["value"] == 1.0
    assert metrics.tail(ok + [math.inf] * 11)["value"] == math.inf
    # Ten failures sit beyond the tail, which still reads a real sample.
    assert metrics.tail(ok + [math.inf] * 10)["value"] == 1.0


def test_tail_of_nothing_is_an_error():
    with pytest.raises(ValueError):
        metrics.tail([])


# -- open-loop timing ----------------------------------------------------


def test_latency_counts_from_the_due_time_not_the_send():
    due, sent, done = 10.0, 10.5, 10.6  # sent 500 ms late, served in 100 ms
    assert metrics.latency_from_due(due, done) == pytest.approx(600.0)
    assert metrics.lateness_ms(due, sent) == pytest.approx(500.0)


def test_early_send_is_not_negative_lateness():
    assert metrics.lateness_ms(10.0, 9.99) == 0.0


def test_nearest_rank_percentile():
    values = list(range(1, 21))
    assert metrics.percentile(values, 95) == 19
    assert metrics.percentile(values, 100) == 20
    assert metrics.percentile(values, 0) == 1
    assert metrics.percentile([7.0], 95) == 7.0


# -- names ---------------------------------------------------------------


@pytest.mark.parametrize(
    "name", ["op_p50_ms", "machine.sim_cycles", "table1-event", "9lives", "a" * 64]
)
def test_valid_names(name):
    assert metrics.validate_name(name) == name


@pytest.mark.parametrize(
    "name", ["", "_x", ".x", "-x", "has space", "slash/no", "a" * 65, "ü", "x\n", None]
)
def test_invalid_names(name):
    with pytest.raises(ValueError):
        metrics.validate_name(name)


def test_every_declared_name_is_valid_and_matches_benchmark_json():
    for name in (*run.WORKLOADS, *run.END_TO_END, *run.PER_LAYER):
        metrics.validate_name(name)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


# -- span self time ------------------------------------------------------


def _span(sid, start, end, parent=None):
    return Span(sid, f"layer{sid}.x", start, end, parent, None, 0)


def test_self_time_subtracts_children():
    root = _span(1, 0.0, 10.0)
    kids = [_span(2, 1.0, 3.0, 1), _span(3, 5.0, 6.0, 1)]
    assert self_time(root, kids) == pytest.approx(7.0)


def test_overlapping_children_count_once():
    root = _span(1, 0.0, 10.0)
    kids = [_span(2, 1.0, 5.0, 1), _span(3, 4.0, 6.0, 1), _span(4, 5.5, 7.0, 1)]
    assert self_time(root, kids) == pytest.approx(4.0)


def test_children_are_clipped_to_the_parent():
    assert covered(2.0, 4.0, [(0.0, 3.0), (3.5, 9.0), (5.0, 6.0)]) == pytest.approx(1.5)
    assert covered(0.0, 1.0, []) == 0.0


def test_recorder_nests_per_thread_and_sums_to_the_root():
    rec = SpanRecorder()
    with rec.span("op", rid="r1"):
        with rec.span("kernels.plan"):
            with rec.span("sar.maps"):
                pass
        with rec.span("machine.run"):
            pass
    by_name = {s.name: s for s in rec.spans}
    assert by_name["sar.maps"].parent == by_name["kernels.plan"].id
    assert by_name["kernels.plan"].parent == by_name["op"].id
    assert all(s.rid == "r1" for s in rec.spans)
    layers = rec.self_by_layer()
    assert set(layers) == {"op", "kernels", "sar", "machine"}
    assert sum(layers.values()) == pytest.approx(by_name["op"].duration)


def test_patch_wraps_and_restores():
    mod = types.ModuleType("fake_layer")
    mod.work = lambda x: x + 1
    mod.Cls = type("Cls", (), {"run": lambda self: 7})
    original, original_run = mod.work, mod.Cls.run
    import sys

    sys.modules["fake_layer"] = mod
    try:
        rec = SpanRecorder()
        with rec.patch([
            ("fake_layer", "work", "fake.work", lambda x: f"r{x}"),
            ("fake_layer", "Cls.run", "fake.run"),
        ]):
            assert mod.work(1) == 2
            assert mod.Cls().run() == 7
        assert mod.work is original and mod.Cls.run is original_run
        assert [(s.name, s.rid) for s in rec.spans] == [
            ("fake.work", "r1"), ("fake.run", None)
        ]
    finally:
        del sys.modules["fake_layer"]


def test_chrome_trace_is_trace_event_json():
    rec = SpanRecorder()
    with rec.span("op", rid=3):
        with rec.span("machine.run"):
            pass
    doc = json.loads(rec.chrome_trace())
    events = doc["traceEvents"]
    assert {e["name"] for e in events} == {"op", "machine.run"}
    for e in events:
        assert e["ph"] == "X" and e["ts"] >= 0 and e["dur"] >= 0
        assert {"pid", "tid", "args", "cat"} <= set(e)


# -- the result line -----------------------------------------------------


def test_end_to_end_values_from_a_window():
    win = metrics.Window()
    for ms in range(1, 21):
        win.ok(float(ms))
    win.fail("wrong output")
    win.close()
    # A host twice as slow as the reference, all through the window.
    win.probe = types.SimpleNamespace(local_scale=lambda start, end: 0.5)
    values, raw, tail = run.end_to_end(win, setup_s=0.5, rss_mb=10.0, open_loop=False)
    assert set(values) == set(raw) == set(run.END_TO_END)
    assert raw["op_p50_ms"] == 10.5  # failed ops excluded from the median
    assert values["op_p50_ms"] == 5.25
    assert values["op_tail_ms"] == raw["op_tail_ms"] / 2 == 5.5
    assert values["ops_per_s"] == raw["ops_per_s"] * 2
    assert values["setup_s"] == 0.25
    assert values["success_rate"] == raw["success_rate"] == pytest.approx(20 / 21)
    assert values["peak_rss_mb"] == 10.0
    assert tail["samples"] == 21 and tail["value"] == 5.5
    opened, _, _ = run.end_to_end(win, setup_s=0.5, rss_mb=10.0, open_loop=True)
    assert opened == raw  # an open loop reports what it measured


def test_each_op_is_scaled_by_the_probe_chunks_around_it():
    probe = metrics.Probe()
    # The host is at reference speed for 10 s, then half as fast.
    probe.times = [t * 0.5 for t in range(40)]
    probe.samples = [probe.REFERENCE_MS] * 20 + [2 * probe.REFERENCE_MS] * 20
    assert probe.local_scale(3.0, 3.3) == 1.0
    assert probe.local_scale(15.0, 15.3) == 0.5
    assert probe.local_scale(100.0, 101.0) == pytest.approx(2 / 3)  # no chunk near: all
    win = metrics.Window()
    win.probe = probe
    win.latencies_ms, win.ends = [300.0, 600.0, math.inf], [3.3, 15.3, 16.0]
    assert win.scaled_latencies_ms() == [300.0, 300.0, math.inf]


def test_probe_spends_its_share_between_ops():
    probe = metrics.Probe()
    assert probe.due()  # a window always has at least one chunk
    probe.top_up()
    assert len(probe.samples) == 1 and not probe.due()
    probe.start -= 10.0  # ten seconds of ops later
    probe.top_up()
    assert probe.spent_s >= probe.SHARE * 10.0
    assert probe.scale() == pytest.approx(probe.REFERENCE_MS / probe.median_ms())


def test_segmented_tail_keeps_one_stall_to_its_segment():
    quiet = [float(ms) for ms in range(1, 101)]  # tail 90 in each segment
    stalled = quiet[:70] + [500.0] * 30  # a stall delays 30 requests
    assert metrics.tail(quiet * 2 + stalled)["value"] == 500.0
    t = metrics.segmented_tail([quiet, stalled, quiet])
    assert t["value"] == 90.0
    assert t["segments"] == [90.0, 500.0, 90.0]
    assert t["beyond"] == 10 and t["samples"] == 300 and t["rule_met"]
    assert t["whole_run"]["value"] == 500.0


def test_failures_spread_over_segments_still_reach_the_tail():
    quiet = [float(ms) for ms in range(1, 101)]
    # Eleven refusals, at most three a segment: no segment's own tail
    # is a failure, but the whole run's is.
    segments = [quiet + [math.inf] * n for n in (3, 3, 3, 2, 0)]
    assert all(metrics.tail(seg)["value"] < math.inf for seg in segments)
    t = metrics.segmented_tail(segments)
    assert t["value"] == math.inf
    assert t["whole_run"]["value"] == math.inf


def test_window_segments_feed_the_tail():
    win = metrics.Window()
    for seg in range(3):
        for ms in range(1, 101):
            win.ok(float(ms), segment=seg)
    win.fail("refused", segment=1)
    t = win.tail()
    assert len(t["segments"]) == 3 and t["value"] == 90.0
    assert win.segments[1][-1] == math.inf
