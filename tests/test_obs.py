"""Tests for the telemetry layer (``repro.obs``).

Covers the mergeable-snapshot algebra (Hypothesis: associative,
commutative, empty identity, equal to serial recording), snapshot travel
across real multiprocessing workers, the progress throttle's exactness
guarantees, span structure, sinks, and the CLI flags (``--metrics-out``,
``--trace-out``, ``--profile-out``) end to end — validated with the same
checker CI uses (``tools/check_telemetry.py``).
"""

from __future__ import annotations

import importlib.util
import json
import multiprocessing
import pstats
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaigns import CampaignEngine, CampaignSpec
from repro.obs import (
    MetricsRegistry,
    MetricsSnapshot,
    ProgressThrottle,
    Telemetry,
    get_telemetry,
    use_telemetry,
)
from repro.obs.sinks import JsonlSink, LiveProgressSink, MemorySink

REPO_ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "check_telemetry", REPO_ROOT / "tools" / "check_telemetry.py"
)
check_telemetry = importlib.util.module_from_spec(_spec)
assert _spec.loader is not None
sys.modules["check_telemetry"] = check_telemetry
_spec.loader.exec_module(check_telemetry)


TINY = dict(
    circuit="xgmac_tiny",
    n_frames=4,
    min_len=2,
    max_len=3,
    gap=12,
    workload_seed=7,
)


def tiny_spec(**overrides) -> CampaignSpec:
    params = dict(TINY, n_injections=8, seed=5, schedule="stream")
    params.update(overrides)
    return CampaignSpec(**params)


# ------------------------------------------------------------ registry


def test_registry_instruments_round_trip():
    reg = MetricsRegistry()
    reg.counter("c").inc()
    reg.counter("c").inc(4)
    reg.gauge("g").set(2.0)
    reg.gauge("g").set(6.0)
    reg.histogram("h").observe(1.0)
    reg.histogram("h").observe(3.0)
    with reg.timer("t").time():
        pass

    assert reg.counter("c").value == 5
    assert reg.gauge("g").value == 6.0
    assert reg.gauge("g").mean() == 4.0
    assert reg.gauge("g").min == 2.0 and reg.gauge("g").max == 6.0
    assert reg.histogram("h").count == 2
    assert reg.histogram("h").sum == 4.0
    assert reg.timer("t").count == 1
    assert reg.timer("t").min >= 0.0

    snap = reg.snapshot()
    assert snap.counters["c"] == 5
    assert snap.gauges["g"]["count"] == 2
    assert set(snap.hists) == {"h", "t"}


def test_registry_rejects_type_conflicts():
    reg = MetricsRegistry()
    reg.counter("x")
    with pytest.raises(TypeError):
        reg.gauge("x")
    # A Timer *is* a Histogram, so histogram() on a timer name works ...
    reg.timer("t")
    assert reg.histogram("t") is reg.timer("t")
    # ... but not the other way around: a plain histogram cannot time().
    reg.histogram("h")
    with pytest.raises(TypeError):
        reg.timer("h")


def test_counter_rejects_negative_increments():
    reg = MetricsRegistry()
    with pytest.raises(ValueError):
        reg.counter("c").inc(-1)


def test_snapshot_skips_untouched_instruments():
    reg = MetricsRegistry()
    reg.counter("zero")
    reg.gauge("unset")
    reg.histogram("empty")
    assert not reg.snapshot()


def test_absorb_preserves_timer_identity():
    """An absorbed worker timer must still satisfy later timer() lookups."""
    worker = MetricsRegistry()
    with worker.timer("phase.x_seconds").time():
        pass
    parent = MetricsRegistry()
    parent.absorb(worker.snapshot())
    with parent.timer("phase.x_seconds").time():
        pass
    assert parent.timer("phase.x_seconds").count == 2


# --------------------------------------------------- snapshot merge algebra

_names = st.sampled_from(["a", "b", "c"])
_values = st.integers(min_value=-50, max_value=50).map(float)


@st.composite
def snapshots(draw) -> MetricsSnapshot:
    """A snapshot recorded through real registry operations.

    Integer-valued observations keep float addition exact, so the
    associativity property can demand payload equality.
    """
    reg = MetricsRegistry()
    for name, n in draw(
        st.dictionaries(_names, st.integers(0, 100), max_size=3)
    ).items():
        reg.counter(f"c.{name}").inc(n)
    for name, values in draw(
        st.dictionaries(_names, st.lists(_values, max_size=4), max_size=3)
    ).items():
        for value in values:
            reg.gauge(f"g.{name}").set(value)
    for name, values in draw(
        st.dictionaries(_names, st.lists(_values, max_size=4), max_size=3)
    ).items():
        for value in values:
            reg.histogram(f"h.{name}").observe(value)
    return reg.snapshot()


@settings(max_examples=60, deadline=None)
@given(a=snapshots(), b=snapshots())
def test_merge_commutative(a, b):
    assert a.merge(b) == b.merge(a)


@settings(max_examples=60, deadline=None)
@given(a=snapshots(), b=snapshots(), c=snapshots())
def test_merge_associative(a, b, c):
    assert a.merge(b).merge(c) == a.merge(b.merge(c))


@settings(max_examples=30, deadline=None)
@given(a=snapshots())
def test_merge_empty_identity(a):
    empty = MetricsSnapshot()
    assert a.merge(empty) == a
    assert empty.merge(a) == a


@settings(max_examples=40, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["counter", "gauge", "hist"]), _names, _values),
        max_size=24,
    ),
    n_workers=st.integers(min_value=1, max_value=4),
)
def test_sharded_recording_matches_serial(ops, n_workers):
    """Ops split across worker registries merge to the serial registry."""

    def apply(reg, op):
        kind, name, value = op
        if kind == "counter":
            reg.counter(f"c.{name}").inc(int(abs(value)))
        elif kind == "gauge":
            reg.gauge(f"g.{name}").set(value)
        else:
            reg.histogram(f"h.{name}").observe(value)

    serial = MetricsRegistry()
    workers = [MetricsRegistry() for _ in range(n_workers)]
    for i, op in enumerate(ops):
        apply(serial, op)
        apply(workers[i % n_workers], op)

    merged = MetricsSnapshot()
    for worker in workers:
        merged = merged.merge(
            MetricsSnapshot.from_payload(worker.snapshot().to_payload())
        )
    assert merged == serial.snapshot()

    # absorb() is the executor-side equivalent of merge()
    absorbed = MetricsRegistry()
    for worker in workers:
        absorbed.absorb(worker.snapshot())
    assert absorbed.snapshot() == serial.snapshot()


# ------------------------------------------------- multiprocessing travel


def _pool_worker(n: int):
    reg = MetricsRegistry()
    reg.counter("work.items").inc(n)
    reg.gauge("work.last").set(float(n))
    reg.histogram("work.sizes").observe(float(n))
    return reg.snapshot().to_payload()


def test_snapshots_merge_across_fork_pool():
    ctx = multiprocessing.get_context("fork")
    items = [1, 2, 3, 4, 5]
    with ctx.Pool(2) as pool:
        payloads = pool.map(_pool_worker, items)
    merged = MetricsRegistry()
    for payload in payloads:
        merged.absorb(MetricsSnapshot.from_payload(payload))
    assert merged.counter("work.items").value == sum(items)
    assert merged.histogram("work.sizes").count == len(items)
    assert merged.gauge("work.last").mean() == sum(items) / len(items)


def test_engine_worker_metrics_absorbed_into_parent():
    """jobs=2 shards report the same engine-level totals as a serial run.

    ``scheduler.activations`` counts every injection exactly once whatever
    the sharding (lane-cycles differ — they depend on how buckets fold
    into passes — so the activation count is the invariant to pin).
    """
    spec = tiny_spec(n_injections=6)
    totals = {}
    for jobs in (1, 2):
        with use_telemetry(Telemetry()) as telemetry:
            CampaignEngine(spec, jobs=jobs, progress_interval=0.0).run()
            snap = telemetry.registry.snapshot()
        assert snap.counters["campaign.shard_merges"] >= 1
        assert "executor.shard_seconds" in snap.hists
        totals[jobs] = snap.counters["scheduler.activations"]
    assert totals[1] == totals[2]
    assert totals[1] == snap.counters["campaign.injections"]


# ------------------------------------------------------- progress throttle


def test_progress_throttle_counts_stay_exact():
    clock = [0.0]
    calls = []
    throttle = ProgressThrottle(
        lambda d, t: calls.append((d, t)), min_interval=1.0, clock=lambda: clock[0]
    )
    total = 10
    for done in range(1, total + 1):
        clock[0] += 0.25  # 4 shards per interval-second
        throttle(done, total)
    # first call, one per elapsed interval, and always the final call
    assert calls[0] == (1, total)
    assert calls[-1] == (total, total)
    assert throttle.forwarded == len(calls)
    assert throttle.forwarded + throttle.suppressed == total
    assert throttle.suppressed > 0


def test_progress_throttle_zero_interval_forwards_everything():
    calls = []
    throttle = ProgressThrottle(lambda d, t: calls.append(d), min_interval=0.0)
    for done in range(1, 6):
        throttle(done, 5)
    assert calls == [1, 2, 3, 4, 5]
    assert throttle.suppressed == 0


def test_engine_progress_throttle_regression(tmp_path):
    """Total/done counts stay exact through the throttled engine path."""
    spec = tiny_spec(n_injections=6)
    calls = []
    engine = CampaignEngine(
        spec,
        progress=lambda done, total: calls.append((done, total)),
        progress_interval=0.0,
    )
    engine.run()
    total = engine.last_report.n_shards
    assert calls == [(i, total) for i in range(1, total + 1)]

    # An aggressive throttle still delivers the exact final call.
    calls.clear()
    CampaignEngine(
        spec,
        progress=lambda done, total: calls.append((done, total)),
        progress_interval=60.0,
    ).run()
    assert calls[-1] == (total, total)


def test_sequential_rounds_emit_progress_events():
    """Sequential campaigns report through the same throttled progress path
    as flat ones: per-round shard counts, tagged with the round number."""
    spec = tiny_spec(n_injections=40, policy="sequential", target_margin=0.15)
    calls = []
    with use_telemetry(Telemetry()) as telemetry:
        sink = telemetry.add_sink(MemorySink(events=("progress",)))
        engine = CampaignEngine(
            spec,
            jobs=1,
            progress=lambda done, total: calls.append((done, total)),
            progress_interval=0.0,
        )
        engine.run()
        gauges = telemetry.registry.snapshot().to_payload()["gauges"]
    report = engine.last_report
    assert report.rounds > 1
    events = sink.records
    assert [e["round"] for e in events] == list(range(1, report.rounds + 1))
    assert all(e["scope"] == "campaign" and e["unit"] == "shards" for e in events)
    assert all(e["done"] == e["total"] == 1 for e in events)  # one shard per round
    assert sum(e["injections"] > 0 for e in events) == report.rounds
    assert events[-1]["injections"] == report.executed_lanes
    assert calls == [(1, 1)] * report.rounds
    assert gauges["campaign.injections_per_sec"]["max"] > 0


# ------------------------------------------------------------------- sinks


def test_memory_sink_filters_event_types():
    telemetry = Telemetry()
    all_sink = telemetry.add_sink(MemorySink())
    span_sink = telemetry.add_sink(MemorySink(events=("span_end",)))
    with telemetry.tracer.span("campaign"):
        telemetry.emit({"event": "progress", "done": 1, "total": 2})
    assert [e["event"] for e in all_sink.records] == [
        "span_begin",
        "progress",
        "span_end",
    ]
    assert [e["event"] for e in span_sink.records] == ["span_end"]
    assert all("ts" in e for e in all_sink.records)


def test_jsonl_sink_appends_and_survives_close(tmp_path):
    path = tmp_path / "events.jsonl"
    telemetry = Telemetry(sinks=[JsonlSink(path)])
    telemetry.emit({"event": "provenance", "run": 1})
    telemetry.close()
    telemetry = Telemetry(sinks=[JsonlSink(path)])
    telemetry.emit({"event": "provenance", "run": 2})
    telemetry.close()
    events = [json.loads(line) for line in path.read_text().splitlines()]
    assert [e["run"] for e in events] == [1, 2]


def test_live_progress_sink_renders_rate_and_eta(tmp_path):
    stream = open(tmp_path / "tty.txt", "w+")  # not a TTY: line per update
    sink = LiveProgressSink(stream=stream)
    sink.emit(
        {
            "event": "progress",
            "scope": "campaign",
            "unit": "shards",
            "done": 3,
            "total": 4,
            "injections_per_sec": 1234.0,
            "eta_seconds": 75,
        }
    )
    sink.close()
    stream.seek(0)
    line = stream.read()
    stream.close()
    assert "campaign 3/4 shards" in line
    assert "75%" in line
    assert "1,234 inj/s" in line
    assert "ETA 1:15" in line


def test_default_telemetry_records_metrics_without_sinks():
    telemetry = get_telemetry()
    assert not telemetry.active  # no sinks by default
    before = telemetry.registry.counter("test.default").value
    telemetry.registry.counter("test.default").inc()
    assert telemetry.registry.counter("test.default").value == before + 1


# ------------------------------------------------------------------ tracer


def test_tracer_span_nesting_and_phase_timers():
    telemetry = Telemetry()
    sink = telemetry.add_sink(MemorySink())
    with telemetry.tracer.span("campaign", jobs=2):
        with telemetry.tracer.span("golden_trace"):
            pass
    begins = sink.of_type("span_begin")
    ends = sink.of_type("span_end")
    assert [e["name"] for e in begins] == ["campaign", "golden_trace"]
    assert begins[0]["parent"] is None
    assert begins[1]["parent"] == begins[0]["span"]
    assert begins[0]["attrs"] == {"jobs": 2}
    assert all(e["seconds"] >= 0 for e in ends)
    # Phase timers record even into sink-less telemetry (snapshot travel).
    assert telemetry.registry.timer("phase.campaign_seconds").count == 1
    assert telemetry.registry.timer("phase.golden_trace_seconds").count == 1


# ------------------------------------------------------------ CLI end-to-end


def test_cli_campaign_telemetry_files_validate(tmp_path):
    from repro.experiments.__main__ import main as cli_main

    metrics = tmp_path / "metrics.jsonl"
    trace = tmp_path / "trace.jsonl"
    profile = tmp_path / "profile.pstats"
    code = cli_main(
        [
            "campaign",
            "--scale",
            "tiny",
            "--injections",
            "6",
            "--cache-dir",
            str(tmp_path / "cache"),
            "--metrics-out",
            str(metrics),
            "--trace-out",
            str(trace),
            "--profile-out",
            str(profile),
        ]
    )
    assert code == 0

    observed = check_telemetry.validate_file(metrics)
    assert {"synthesize", "golden_trace", "campaign"} <= observed["spans"]
    assert "scheduler.lane_occupancy" in observed["metrics"]
    assert "store.hit_rate" in observed["metrics"]
    assert "campaign.injections_per_sec" in observed["metrics"]

    full = check_telemetry.validate_file(trace)
    assert full["spans"] == observed["spans"]
    trace_kinds = {json.loads(line)["event"] for line in trace.read_text().splitlines()}
    assert "progress" in trace_kinds  # full stream only
    metrics_kinds = {
        json.loads(line)["event"] for line in metrics.read_text().splitlines()
    }
    assert metrics_kinds <= {"provenance", "span_begin", "span_end", "metrics"}

    # --profile-out wrote valid pstats input
    stats = pstats.Stats(str(profile))
    assert stats.total_calls > 0


def test_cli_out_dir_records_default_telemetry(tmp_path):
    from repro.experiments.__main__ import main as cli_main

    out = tmp_path / "out"
    code = cli_main(
        [
            "campaign",
            "--scale",
            "tiny",
            "--injections",
            "6",
            "--cache-dir",
            str(tmp_path / "cache"),
            "--out",
            str(out),
        ]
    )
    assert code == 0
    telemetry_file = out / "telemetry.jsonl"
    assert telemetry_file.exists()
    events = [json.loads(line) for line in telemetry_file.read_text().splitlines()]
    assert events[0]["event"] == "provenance"
    assert events[0]["code_version"]
    check_telemetry.validate_file(telemetry_file)


def test_check_telemetry_rejects_malformed_files(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"event": "span_end", "span": 1, "name": "x", "ts": 1.0}\n')
    with pytest.raises(check_telemetry.TelemetryError):
        check_telemetry.validate_file(bad)
    unclosed = tmp_path / "unclosed.jsonl"
    unclosed.write_text(
        '{"event": "span_begin", "span": 1, "name": "x", "parent": null, "ts": 1.0}\n'
    )
    with pytest.raises(check_telemetry.TelemetryError):
        check_telemetry.validate_file(unclosed)
    assert check_telemetry.main([str(bad)]) == 1
