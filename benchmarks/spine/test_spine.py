"""Tests of the spine harness itself.  Run by explicit path:

    python3 -m pytest benchmarks/spine/test_spine.py -q
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
for _path in (os.path.join(ROOT, "src"), HERE):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import compare
import harness
import layers
import metrics
import run as spine_run
from repro.cluster import ClusterCoordinator
from repro.core.component import schema
from repro.obs import validate_chrome_trace
from tracing import NullRecorder, SpanRecorder
from workloads import POSITION, VELOCITY, WORKLOADS, _grid_placement


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


# -- span self-time arithmetic ---------------------------------------------------


def test_self_time_is_duration_minus_child_spans():
    clock = FakeClock()
    rec = SpanRecorder(clock)
    with rec.span("tick"):
        clock.now = 1.0
        with rec.span("gateway.flush"):
            clock.now = 2.0
            with rec.span("gateway.delta"):
                clock.now = 5.0
            clock.now = 6.0
            with rec.span("gateway.delta"):
                clock.now = 7.0
        clock.now = 10.0
    assert rec.self_s == {
        "gateway.delta": 4.0, "gateway.flush": 2.0, "tick": 4.0,
    }
    assert rec.count["gateway.delta"] == 2
    # Self times of a tree sum to the root's duration.
    assert sum(rec.self_s.values()) == 10.0
    parents = [record[3] for record in rec.spans]
    assert parents == [-1, 0, 1, 1]


def test_probe_counts_time_without_taking_it_from_the_parent():
    clock = FakeClock()
    rec = SpanRecorder(clock)

    class Engine:
        def execute(self, cost: float) -> str:
            clock.now += cost
            return "row"

    engine = Engine()
    rec.probe(engine, "execute", "persistence.sql")
    with rec.span("durable.commit"):
        assert engine.execute(2.0) == "row"
        engine.execute(1.0)
    assert rec.self_s == {"durable.commit": 3.0}
    assert rec.probe_s == {"persistence.sql": 3.0}
    assert rec.count["persistence.sql"] == 2


def test_wrap_shadows_only_the_instance_and_tags_tick_and_request():
    rec = SpanRecorder(FakeClock())

    class Core:
        def tick(self) -> str:
            return "ticked"

    wrapped, untouched = Core(), Core()
    rec.wrap(wrapped, "tick", "gateway.flush")
    rec.tick, rec.req = 7, "swarm-000001:3"
    assert wrapped.tick() == "ticked"
    assert "tick" not in vars(untouched) and "tick" in vars(wrapped)
    name, _start, _end, parent, tick, req, _self = rec.spans[0]
    assert (name, parent, tick, req) == ("gateway.flush", -1, 7, "swarm-000001:3")
    assert rec.self_by_tick("gateway.flush") == {7: 0.0}


def test_null_recorder_keeps_objects_unwrapped():
    rec = NullRecorder()

    class Core:
        def tick(self) -> None:
            return None

    core = Core()
    rec.wrap(core, "tick", "gateway.flush")
    rec.probe(core, "tick", "gateway.flush")
    assert "tick" not in vars(core)
    with rec.span("anything"):
        pass


def test_chrome_trace_validates():
    clock = FakeClock()
    rec = SpanRecorder(clock)
    rec.tick = 0
    with rec.span("tick"):
        rec.req = "c:1"
        with rec.span("gateway.ingress"):
            clock.now = 0.5
        rec.req = None
    doc = rec.chrome_trace(layers.layer_of)
    assert validate_chrome_trace(doc) == 3
    ingress = doc["traceEvents"][2]
    assert ingress["cat"] == "gateway"
    assert ingress["args"]["req"] == "c:1" and ingress["args"]["parent"] == 0
    assert ingress["dur"] == 0.5e6


# -- the ">= 10 samples beyond" percentile rule ---------------------------------


def test_percentile_needs_ten_samples_beyond_it():
    samples = [float(i) for i in range(1, 201)]
    value, q = harness.supported_percentile(samples)
    assert (value, q) == (190.0, 0.95)
    assert sum(1 for s in samples if s > value) >= harness.MIN_BEYOND
    # 100 samples cannot support p95: the rule falls back to p90.
    value, q = harness.supported_percentile([float(i) for i in range(1, 101)])
    assert (value, q) == (90.0, 0.90)
    # More samples never push it past the cap.
    value, q = harness.supported_percentile([float(i) for i in range(1, 1001)])
    assert (value, q) == (950.0, 0.95)
    # Too few samples for any tail: the median, labelled as such.
    value, q = harness.supported_percentile([3.0, 1.0, 2.0])
    assert value == 2.0 and q == pytest.approx(2 / 3)
    with pytest.raises(ValueError):
        harness.supported_percentile([])


def test_quartile_growth():
    assert harness.quartile_growth([1.0] * 4 + [2.0] * 8 + [3.0] * 4) == 3.0


# -- RTT matching ------------------------------------------------------------------


def test_rtt_matching_and_a_reply_dropped_by_churn():
    rtt = harness.RttMatcher()
    rtt.sent("a", 1, 10.0, True)
    rtt.sent("a", 2, 11.0, True)
    rtt.sent("b", 1, 11.5, False)  # a warm-up input: answered, not a sample
    assert rtt.waiting("a") and rtt.waiting("b") and not rtt.waiting("c")
    rtt.reply("a", 1, 10.25)
    rtt.reply("b", 1, 12.0)
    assert rtt.rtts == [0.25]
    assert rtt.waiting("a") and not rtt.waiting("b")
    # a:2's reply was published to a session churn had detached: it is
    # never delivered, stays pending, and counts as failed.
    assert rtt.pending() == 1 and rtt.unanswered() == 1 and rtt.attempted == 2
    # A duplicate reply is not a second sample.
    rtt.reply("a", 1, 13.0)
    assert rtt.unmatched == 1 and rtt.rtts == [0.25]


# -- the ClusterWorld adapter -----------------------------------------------------


def test_cluster_world_adapter_routes_to_the_owning_shard():
    cluster = ClusterCoordinator(2, _grid_placement(400.0), [POSITION, VELOCITY])
    world = harness.ClusterWorld(
        cluster, NullRecorder(), extra={"Velocity": {"vx": 1.0, "vy": 0.0}}
    )
    assert set(world.component_names()) == {"Position", "Velocity"}
    left = world.spawn(Position={"x": 10.0, "y": 10.0})
    right = world.spawn(Position={"x": 390.0, "y": 10.0})
    assert cluster.owner_of(left) != cluster.owner_of(right)
    assert world.get(right, "Velocity") == {"vx": 1.0, "vy": 0.0}
    world.set(right, "Position", x=380.0, y=20.0)
    assert world.get(right, "Position") == {"x": 380.0, "y": 20.0}
    world.catalog.define(schema("Wealth", gold=("int", 5)))
    assert all("Wealth" in h.world.component_names() for h in cluster.shards)
    # Mid-handoff (evicted, not yet installed): last read value, write dropped.
    host = cluster.shard(cluster.owner_of(left))
    world.get(left, "Position")
    payload = host.evict_entity(left, 1 - host.shard_id)
    assert world.get(left, "Position") == {"x": 10.0, "y": 10.0}
    world.set(left, "Position", x=0.0, y=0.0)
    assert world.writes_dropped == 1
    cluster.shard(1 - host.shard_id).install_entity(left, payload)
    assert world.get(left, "Position") == {"x": 10.0, "y": 10.0}


# -- smoke runs: correct, and identical under a seed ------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_smoke_runs_give_identical_counters(name):
    first, detail_a = spine_run.run_workload(name, 3, 0.0, False, True, None)
    second, detail_b = spine_run.run_workload(name, 3, 0.0, False, True, None)
    assert first["correct"] and second["correct"], detail_a["failures"]
    assert first["failed"] == 0 and first["attempted"] >= 1
    assert detail_a["counters"] == detail_b["counters"]
    assert detail_a["state_hash"] == detail_b["state_hash"]
    assert set(first["metrics"]) == {row[0] for row in metrics.END_TO_END}
    assert all(m["value"] > 0 for m in first["metrics"].values())
    other, detail_c = spine_run.run_workload(name, 4, 0.0, False, True, None)
    assert other["correct"] and detail_c["state_hash"] != detail_a["state_hash"]


def test_traced_smoke_run_reports_every_layer_metric_and_covers_the_tick():
    result, detail = spine_run.run_workload("full_path", 0, 0.0, True, True, None)
    assert result["correct"], detail["failures"]
    assert list(result["metrics"]) == [row[0] for row in metrics.PER_LAYER]
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["trace.coverage_frac"] >= 0.95
    assert sum(detail["layer_shares"].values()) == pytest.approx(1.0, abs=0.01)
    for name in ("replication.ship.self_ms_per_tick", "durable.commit.us_per_unit",
                 "gateway.flush.self_ms_per_tick", "net.codec.decode_us_per_msg",
                 "persistence.sql.statements_per_commit"):
        assert values[name] > 0, name


def test_a_failed_check_makes_the_run_incorrect(monkeypatch):
    monkeypatch.setattr(
        WORKLOADS["edge_fanout"], "verify", lambda self: ["planted failure"]
    )
    result, detail = spine_run.run_workload(
        "edge_fanout", 0, 0.0, False, True, None)
    assert not result["correct"]
    assert any("planted failure" in line for line in detail["failures"])


# -- compare.py ---------------------------------------------------------------------


def _document(tick_ms: float, spread: float = 0.01, **stamp) -> dict:
    rows = {
        name: {"value": 10.0, "unit": unit, "spread": spread}
        for name, unit, *_rest in metrics.END_TO_END
    }
    rows["tick_ms_p50"]["value"] = tick_ms
    rows["ticks_per_s"]["value"] = 1000.0 / tick_ms
    return {
        "stamp": {"nproc": 2, "seed": 0, "git_commit": "abc", **stamp},
        "workloads": {"edge_fanout": {"config": {"ticks": 70},
                                      "end_to_end": rows}},
    }


def test_compare_verdicts():
    base = _document(50.0)

    def words(other: dict) -> dict[str, str]:
        rows = base["workloads"]["edge_fanout"]["end_to_end"]
        others = other["workloads"]["edge_fanout"]["end_to_end"]
        return {m: compare.verdict(m, rows[m], others[m])[0]
                for m in ("tick_ms_p50", "ticks_per_s", "setup_s")}

    assert words(_document(50.0)) == {
        "tick_ms_p50": "unchanged", "ticks_per_s": "unchanged",
        "setup_s": "unchanged"}
    assert words(_document(60.0))["tick_ms_p50"] == "worse"
    assert words(_document(60.0))["ticks_per_s"] == "worse"  # higher is better
    assert words(_document(40.0))["tick_ms_p50"] == "better"
    # Inside the bound but the spread is wider than it: cannot tell.
    assert words(_document(52.0, spread=0.2))["tick_ms_p50"] == "unresolved"
    _lines, any_worse = compare.compare(base, _document(60.0))
    assert any_worse
    _lines, any_worse = compare.compare(base, _document(51.0))
    assert not any_worse


def test_compare_refuses_different_stamps(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(_document(50.0)))
    b.write_text(json.dumps(_document(50.0, nproc=8, git_commit="def")))
    assert compare.main([str(a), str(b)]) == 2
    assert "nproc" in capsys.readouterr().out
    # A different commit alone is the point of comparing.
    b.write_text(json.dumps(_document(50.0, git_commit="def")))
    assert compare.main([str(a), str(b)]) == 0
    b.write_text(json.dumps(_document(60.0)))
    assert compare.main([str(a), str(b)]) == 1


# -- BENCHMARK.json mirrors metrics.py and stays inside the contract --------------


def test_benchmark_json_matches_the_metric_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert doc["paths"] == ["benchmarks/spine"]
    assert doc["command"] == ["python3", "benchmarks/spine/run.py"]
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert doc["end_to_end"] == [
        {"name": n, "unit": u, "better": b, "bound": bound}
        for n, u, b, bound, _doc in metrics.END_TO_END
    ]
    assert doc["per_layer"] == [
        {"name": n, "unit": u, "better": b} for n, u, b in metrics.PER_LAYER
    ]
    name_re = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit_re = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = [row["name"] for key in ("workloads", "end_to_end", "per_layer")
             for row in doc[key]]
    assert len(names) == len(set(names))
    assert all(name_re.match(name) for name in names)
    assert all(unit_re.match(row["unit"])
               for key in ("end_to_end", "per_layer") for row in doc[key])
    assert all(0 < row["bound"] <= 0.25 for row in doc["end_to_end"])
    assert max(row["bound"] for row in doc["end_to_end"]) == metrics.BOUNDS["setup_s"]
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in doc["workloads"])
    runs = 4 + 22 * len(doc["workloads"])
    assert 1 <= doc["run_seconds"] <= 60 and runs * doc["run_seconds"] < 3420


# -- lint -----------------------------------------------------------------------------


@pytest.mark.skipif(shutil.which("ruff") is None, reason="ruff not installed")
def test_ruff_check_benchmarks_stays_clean():
    proc = subprocess.run(
        ["ruff", "check", "benchmarks"], cwd=ROOT, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
