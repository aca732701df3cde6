"""Per-layer metrics of one traced repetition, computed from its spans.

Every name in :data:`PER_LAYER` is reported on every workload; a layer a
workload never enters reads 0 there.  :data:`EXACT` lists the counts that
must repeat exactly from run to run and across the executors of one study
group (they are pinned per input seed in ``pinned.json``).
"""

from __future__ import annotations

import re
import statistics
from typing import Any, Dict, List, Mapping, Sequence, Tuple

from tracer import Span, duration, outermost, time_in, time_outside

MECHANISMS = (
    "baseline", "IncreasedRefresh", "PARA", "ProHIT", "MRLoc", "TWiCe", "TWiCe-ideal", "Ideal",
)
#: Chip operations timed under ``dram.chip.<op>``.
CHIP_OPS = ("hammer_pair", "activate", "write_rows", "read_rows", "refresh_row")

#: (name, unit, better) of every per-layer metric, grouped by layer.
PER_LAYER: List[Tuple[str, str, str]] = [
    # experiments: session, store, executors, merge
    ("experiments.store.put_s", "s", "lower"),
    ("experiments.store.put_count", "count", "lower"),
    ("experiments.store.bytes_written", "bytes", "lower"),
    ("experiments.store.get_s", "s", "lower"),
    ("experiments.store.hits", "count", "higher"),
    ("experiments.store.misses", "count", "lower"),
    ("experiments.merge_s", "s", "lower"),
    ("experiments.replay_s", "s", "lower"),
    ("experiments.executors.unit_busy_s", "s", "lower"),
    ("experiments.executors.unit_p50_ms", "ms", "lower"),
    ("experiments.executors.unit_p90_ms", "ms", "lower"),
    ("experiments.executors.units_executed", "count", "lower"),
    ("experiments.executors.wait_s", "s", "lower"),
    ("experiments.executors.worker_utilization", "ratio", "higher"),
    ("experiments.executors.task_bytes", "bytes", "lower"),
    ("experiments.unit_fail_ratio", "ratio", "lower"),
    # sim: workloads/trace, system, batch, controller, events
    ("sim.workloads.build_traces_s", "s", "lower"),
    ("sim.workloads.traces_built", "count", "lower"),
    *[(f"sim.system.run_s.{m}", "s", "lower") for m in MECHANISMS],
    ("sim.batch.run_s", "s", "lower"),
    ("sim.batch.sims", "count", "lower"),
    ("sim.simulations", "count", "lower"),
    ("sim.dram_cycles_simulated", "count", "lower"),
    ("sim.instructions_retired", "count", "higher"),
    ("sim.controller.demand_activates", "count", "lower"),
    ("sim.controller.mitigation_refreshes", "count", "lower"),
    ("sim.events.popped", "count", "lower"),
    ("sim.dram_cycles_per_host_s", "1/s", "higher"),
    ("sim.host_us_per_event", "us", "lower"),
    ("sim.share_of_unit_busy", "ratio", "lower"),
    # mitigations
    ("mitigations.registry.build_s", "s", "lower"),
    # dram
    *[(f"dram.chip.{op}_s", "s", "lower") for op in CHIP_OPS],
    *[(f"dram.chip.{op}.calls", "count", "lower") for op in CHIP_OPS],
    ("dram.activations", "count", "lower"),
    ("dram.row_writes", "count", "lower"),
    ("dram.row_reads", "count", "lower"),
    ("dram.bit_flips_induced", "count", "lower"),
    ("dram.activations_per_host_s", "1/s", "higher"),
    ("dram.share_of_unit_busy", "ratio", "lower"),
    # core
    ("core.self_s", "s", "lower"),
    ("core.first_flip.candidates_examined", "count", "lower"),
    # service: protocol, client, scheduler/leases, worker
    ("service.protocol.pack_blob_s", "s", "lower"),
    ("service.protocol.unpack_blob_s", "s", "lower"),
    ("service.protocol.blob_bytes", "bytes", "lower"),
    ("service.client.wait_s", "s", "lower"),
    ("service.worker.busy_s", "s", "lower"),
    ("service.worker.idle_s", "s", "lower"),
    ("service.scheduler.leases_granted", "count", "lower"),
    ("service.scheduler.units_requeued", "count", "lower"),
    ("service.scheduler.heartbeats", "count", "lower"),
    ("service.scheduler.unit_p50_ms", "ms", "lower"),
    ("service.scheduler.unit_p75_ms", "ms", "lower"),
    ("service.overhead_ms_per_unit", "ms", "lower"),
    # the tracer itself
    ("trace.overhead_ratio", "ratio", "lower"),
]

#: Counts that repeat exactly across runs and executors of a study group.
EXACT: Tuple[str, ...] = (
    "experiments.store.put_count",
    "experiments.store.misses",
    "experiments.executors.units_executed",
    "sim.batch.sims",
    "sim.simulations",
    "sim.dram_cycles_simulated",
    "sim.instructions_retired",
    "sim.controller.demand_activates",
    "sim.controller.mitigation_refreshes",
    "sim.events.popped",
    *[f"dram.chip.{op}.calls" for op in CHIP_OPS],
    "dram.activations",
    "dram.row_writes",
    "dram.row_reads",
    "dram.bit_flips_induced",
    "core.first_flip.candidates_examined",
)

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_names(metrics: Sequence[Tuple[str, str, str]]) -> List[str]:
    """Problems with metric names and units (empty when all are valid)."""
    problems = []
    seen = set()
    for name, unit, better in metrics:
        if not NAME_RE.match(name):
            problems.append(f"bad metric name {name!r}")
        if not UNIT_RE.match(unit):
            problems.append(f"bad unit {unit!r} of {name!r}")
        if better not in ("lower", "higher"):
            problems.append(f"bad direction {better!r} of {name!r}")
        if name in seen:
            problems.append(f"duplicate metric name {name!r}")
        seen.add(name)
    return problems


def _quantile_ms(values: Sequence[float], q: int) -> float:
    """The ``q``-th percentile of ``values`` (seconds) in milliseconds."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0] * 1e3
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] * 1e3


def layer_metrics(
    spans: Sequence[Span], counters: Mapping[str, float], run: Mapping[str, Any]
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` value of one traced repetition.

    ``run`` carries what the repetition measured outside the spans:
    ``wall_s`` of the fresh run, the ``replays`` samples, ``workers``, ``worker_pid`` (service),
    ``units_attempted``/``failed_attempts``, ``bytes_written``, ``chip_stats``,
    ``candidates_examined`` and the scheduler ``status`` document.
    """
    out: Dict[str, float] = {name: 0.0 for name, _, _ in PER_LAYER}
    for name in (
        "experiments.store.put_count", "experiments.store.hits", "experiments.store.misses",
        "experiments.executors.task_bytes", "sim.workloads.traces_built", "sim.batch.sims",
        "sim.simulations", "sim.dram_cycles_simulated", "sim.instructions_retired",
        "sim.controller.demand_activates", "sim.controller.mitigation_refreshes",
        "sim.events.popped", "service.protocol.blob_bytes",
    ):
        out[name] = float(counters.get(name, 0))

    wall = run["wall_s"]
    units = [s for s in spans if s[2] == "experiments.executors.execute_task"]
    busy = sum(duration(s) for s in units)
    unit_times = sorted(duration(s) for s in units)
    out["experiments.store.put_s"] = time_in(spans, "experiments.store.put")
    out["experiments.store.get_s"] = time_in(spans, "experiments.store.get")
    out["experiments.store.bytes_written"] = float(run["bytes_written"])
    out["experiments.merge_s"] = time_in(spans, "experiments.merge")
    out["experiments.replay_s"] = statistics.median(run["replays"])
    out["experiments.executors.unit_busy_s"] = busy
    out["experiments.executors.unit_p50_ms"] = _quantile_ms(unit_times, 50)
    out["experiments.executors.unit_p90_ms"] = _quantile_ms(unit_times, 90)
    out["experiments.executors.units_executed"] = float(len(units))
    out["experiments.executors.wait_s"] = time_in(spans, "experiments.executors.wait")
    out["experiments.executors.worker_utilization"] = busy / (wall * run["workers"])
    attempted = run["units_attempted"]
    # Failed attempts that a retry fixed, per unit: a unit that fails for
    # good crashes the repetition instead.
    out["experiments.unit_fail_ratio"] = run["failed_attempts"] / attempted if attempted else 0.0

    out["sim.workloads.build_traces_s"] = time_in(spans, "sim.workloads.build_traces")
    for mechanism in MECHANISMS:
        out[f"sim.system.run_s.{mechanism}"] = time_in(spans, f"sim.system.run.{mechanism}")
    out["sim.batch.run_s"] = time_in(spans, "sim.batch.run")
    sim_run_s = time_in(spans, "sim.system.run.")
    sim_total = sim_run_s + out["sim.batch.run_s"]
    if sim_total:
        out["sim.dram_cycles_per_host_s"] = out["sim.dram_cycles_simulated"] / sim_total
    if out["sim.events.popped"]:
        out["sim.host_us_per_event"] = sim_run_s / out["sim.events.popped"] * 1e6
    if busy:
        out["sim.share_of_unit_busy"] = time_in(spans, "sim.") / busy
    out["mitigations.registry.build_s"] = time_in(spans, "mitigations.registry.build")

    for op in CHIP_OPS:
        chosen = outermost(spans, f"dram.chip.{op}")
        out[f"dram.chip.{op}_s"] = sum(duration(s) for s in chosen)
        out[f"dram.chip.{op}.calls"] = float(len(chosen))
    stats = run["chip_stats"]
    for field in ("activations", "row_writes", "row_reads", "bit_flips_induced"):
        out[f"dram.{field}"] = float(stats.get(field, 0))
    dram_s = time_in(spans, "dram.chip.")
    if dram_s:
        out["dram.activations_per_host_s"] = out["dram.activations"] / dram_s
    if busy:
        out["dram.share_of_unit_busy"] = dram_s / busy
    if run["group"] == "chip":
        out["core.self_s"] = time_outside(
            spans, "experiments.executors.execute_task", "dram.chip."
        )
    out["core.first_flip.candidates_examined"] = float(run["candidates_examined"])

    out["service.protocol.pack_blob_s"] = time_in(spans, "service.protocol.pack_blob")
    out["service.protocol.unpack_blob_s"] = time_in(spans, "service.protocol.unpack_blob")
    out["service.client.wait_s"] = time_in(spans, "service.client.wait")
    status = run.get("status")
    if status is not None:
        worker_busy = sum(duration(s) for s in units if s[5] == run["worker_pid"])
        out["service.worker.busy_s"] = worker_busy
        out["service.worker.idle_s"] = max(0.0, wall - worker_busy)
        counters_ = status["counters"]
        out["service.scheduler.leases_granted"] = float(counters_["leases_granted"])
        out["service.scheduler.units_requeued"] = float(counters_["units_requeued"])
        out["service.scheduler.heartbeats"] = float(counters_["heartbeats"])
        unit_seconds = status.get("unit_seconds") or {}
        out["service.scheduler.unit_p50_ms"] = float(unit_seconds.get("p50") or 0.0) * 1e3
        out["service.scheduler.unit_p75_ms"] = float(unit_seconds.get("p75") or 0.0) * 1e3
        if attempted:
            out["service.overhead_ms_per_unit"] = (wall - worker_busy) / attempted * 1e3
    return {name: float(value) for name, value in out.items()}
