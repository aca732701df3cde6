"""Tests of the benchmark's own logic (not collected by the repo's suite).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, payload_digest  # noqa: E402


def span(span_id, parent, name, start, end, pid=1):
    return (span_id, parent, name, float(start), float(end), pid, 1)


# ----------------------------------------------------------------------
# Self-time arithmetic
# ----------------------------------------------------------------------
def test_covered_time_merges_overlapping_children():
    # Two pool workers run children of one wait span at the same time.
    children = [
        span(2, 1, "experiments.executors.execute_task", -1, 3, pid=2),
        span(3, 1, "experiments.executors.execute_task", 2, 5, pid=3),
        span(4, 1, "experiments.executors.execute_task", 7, 12, pid=2),
    ]
    assert tracer.covered_time(0, 10, children) == pytest.approx(5 + 3)


def test_parallel_children_never_drive_self_time_negative():
    spans = [
        span(1, None, "experiments.executors.wait", 0, 4),
        span(2, 1, "experiments.executors.execute_task", 0, 4, pid=2),
        span(3, 1, "experiments.executors.execute_task", 1, 5, pid=3),
    ]
    assert tracer.time_outside(
        spans, "experiments.executors.wait", "experiments.executors.execute_task"
    ) == 0


def test_time_in_counts_nested_spans_once():
    spans = [
        span(1, None, "dram.chip.write_rows", 0, 4),
        span(2, 1, "dram.chip.write_rows", 1, 2),
        span(3, None, "dram.chip.write_rows", 5, 6),
    ]
    assert tracer.time_in(spans, "dram.chip.write_rows") == pytest.approx(5)


def test_prefix_selects_a_name_and_its_children_only():
    spans = [
        span(1, None, "sim.system.run.TWiCe", 0, 1),
        span(2, None, "sim.system.run.TWiCe-ideal", 1, 3),
        span(3, None, "sim.system.run.TWiCe.inner", 3, 7),
    ]
    assert tracer.time_in(spans, "sim.system.run.TWiCe") == pytest.approx(1 + 4)
    assert tracer.time_in(spans, "sim.system.run.TWiCe-ideal") == pytest.approx(2)
    assert tracer.time_in(spans, "sim.system.run.") == pytest.approx(7)


def test_core_self_time_subtracts_deep_chip_descendants():
    spans = [
        span(1, None, "experiments.executors.execute_task", 0, 10),
        span(2, 1, "other.glue", 1, 5),
        span(3, 2, "dram.chip.hammer_pair", 2, 4),
        span(4, 1, "dram.chip.read_rows", 6, 7),
        span(5, None, "experiments.executors.execute_task", 20, 21),
    ]
    core_self = tracer.time_outside(spans, "experiments.executors.execute_task", "dram.chip.")
    assert core_self == pytest.approx(10 - 2 - 1 + 1)


def test_tracer_records_parent_links_and_counts(tmp_path):
    recorder = tracer.Tracer(tmp_path)

    def inner(x):
        return x + 1

    def outer(x):
        return wrapped_inner(x) * 2

    wrapped_inner = recorder.wrap(inner, "layer.inner", lambda r, x: recorder.count("n", r))
    wrapped_outer = recorder.wrap(outer, lambda x: f"layer.outer.{x}")
    assert wrapped_outer(1) == 4
    recorder.flush()
    spans, counters = recorder.collect()
    by_name = {s[2]: s for s in spans}
    assert by_name["layer.inner"][1] == by_name["layer.outer.1"][0]
    assert by_name["layer.outer.1"][1] is None
    assert counters == {"n": 2}


def test_wrapped_generator_closes_inner_generator(tmp_path):
    recorder = tracer.Tracer(tmp_path)
    closed = []

    def produce():
        try:
            yield 1
            yield 2
        finally:
            closed.append(True)

    stream = recorder.wrap_iterator(produce, "layer.wait")()
    assert next(stream) == 1
    stream.close()
    assert closed == [True]
    assert [s[2] for s in recorder.spans] == ["layer.wait"]


# ----------------------------------------------------------------------
# Digest gate
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Point:
    mechanism: str
    performance: float


@dataclass
class Outcome:
    study: str
    points: tuple

    def payloads(self):
        return list(self.points)


def reports_for(digest, replay_digest, counts=None):
    report = {
        "units_attempted": 14,
        "digest": digest, "replay_digest": replay_digest,
        "layers": counts or {"sim.simulations": 22.0},
    }
    return [(counts is not None, report)]


def test_digest_gate_trips_on_perturbed_payload():
    points = (Point("PARA", 0.9712), Point("Ideal", 0.9988))
    pinned = {"digest": payload_digest([Outcome("fig10-mitigations", points)]),
              "counts": {"sim.simulations": 22.0}}
    same = payload_digest([Outcome("fig10-mitigations", points)])
    correct, attempted, failed, problems = run.gate(reports_for(same, same), pinned, ())
    assert (correct, attempted, failed, problems) == (True, 14, 0, [])

    # One ulp off in one field of one point.
    nudged = (replace(points[0], performance=0.9712000000000001), points[1])
    perturbed = payload_digest([Outcome("fig10-mitigations", nudged)])
    assert perturbed != same
    for fresh, replayed in ((perturbed, same), (same, perturbed)):
        correct, _, failed, problems = run.gate(reports_for(fresh, replayed), pinned, ())
        assert not correct and failed == 14 and len(problems) == 1


def test_crashed_repetition_fails_its_pinned_units():
    pinned = {"digest": "d", "counts": {"experiments.executors.units_executed": 14.0}}
    reports = reports_for("d", "d") + [(False, None)]
    correct, attempted, failed, problems = run.gate(reports, pinned, ())
    assert (correct, attempted, failed) == (False, 28, 14)
    assert problems == ["repetition 1: crashed"]


def test_exact_count_gate_trips_on_changed_count():
    pinned = {"digest": "d", "counts": {"sim.simulations": 22.0}}
    ok = run.gate(reports_for("d", "d", {"sim.simulations": 22.0}), pinned, ("sim.simulations",))
    assert ok[0]
    off = run.gate(reports_for("d", "d", {"sim.simulations": 21.0}), pinned, ("sim.simulations",))
    assert not off[0] and "sim.simulations" in off[3][0]


# ----------------------------------------------------------------------
# Metric names
# ----------------------------------------------------------------------
def test_metric_grammar_flags_bad_names():
    bad = [
        ("_leading", "s", "lower"),
        ("has space", "s", "lower"),
        ("x" * 65, "s", "lower"),
        ("ok.name", "not a unit", "lower"),
        ("ok.name", "s", "lower"),
        ("dup", "s", "sideways"),
    ]
    problems = layers.check_names(bad)
    assert len(problems) == 6
    assert any("duplicate" in p for p in problems)


def test_declared_metrics_follow_the_grammar():
    assert layers.check_names(layers.PER_LAYER) == []
    assert set(layers.EXACT) <= {name for name, _, _ in layers.PER_LAYER}


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for workload in spec["workloads"]:
        assert workload["why"] == WORKLOADS[workload["name"]].why
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.PER_LAYER
    metrics = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    assert layers.check_names(metrics + layers.PER_LAYER) == []
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])
