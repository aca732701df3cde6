#!/usr/bin/env python3
"""The repository benchmark: Figure 10 and Table 1 chip studies through the
serial, process-pool and service executors, end to end and layer by layer.

    python3 perfbench/run.py --workload fig10-serial --seed 1 --seconds 20 --trace 0

Runs repetitions of one workload (see ``workloads.py``), each in a fresh
interpreter with an empty result store (``rep.py``), as many as fit in
``--seconds`` (at least two), and prints as its last line one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, each the median over
the repetitions: ``setup_s``, ``wall_s``, ``cpu_s`` and ``peak_rss_mb``.
The summary line above the JSON adds ``replay_s`` (median over every
replay of the run) and ``unit_fail_ratio``.  With ``--trace 1`` every
other repetition runs with the probes of ``probes.py`` installed and the
metrics are the per-layer ones of ``layers.py`` (medians over the traced
repetitions), plus the tracing overhead against the untraced ones; a
Chrome trace of the last traced repetition is written under
``.perfbench-out/``.

``--seed`` picks one of the pinned inputs of the workload's study group
(``pinned.json``).  A run is correct when every repetition's merged payload,
fresh and replayed, matches the serial reference digest pinned for that
input, and every exact count of a traced repetition matches its pinned
value.  ``attempted`` counts work units executed; ``failed`` counts the
units of every repetition that crashed (a unit failed for good or was
quarantined) or whose payload did not match.  A crashed repetition ends
the run, and its units count as attempted and failed.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"

#: End-to-end metrics: (name, unit).
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: Repetitions every run makes, however long they take.
MIN_REPS = 2

#: A run never starts a repetition that could end after this many seconds.
DEADLINE_S = 165.0


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def run_rep(workload: str, input_seed: int, out_dir: Path, traced: bool, timeout: float):
    """One repetition's report, or ``None`` if it crashed or timed out."""
    command = [
        sys.executable, str(HERE / "rep.py"),
        "--workload", workload, "--input-seed", str(input_seed),
        "--out-dir", str(out_dir),
        "--started-at", repr(time.time()),
    ]
    if traced:
        command.append("--trace")
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"perfbench: repetition timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    if done.returncode != 0:
        print(f"perfbench: repetition exited with {done.returncode}", file=sys.stderr)
        return None
    return json.loads(done.stdout.strip().splitlines()[-1])


def gate(reports, pinned: dict, exact) -> tuple:
    """Check repetitions against the pinned serial reference of their input.

    ``reports`` are ``(traced, report)`` pairs, with ``None`` for a
    repetition that crashed.  Returns ``(correct, attempted, failed,
    problems)``: a crashed repetition, or one whose fresh or replayed
    payload digest differs from the pinned one, fails all its units (for a
    crashed one, the pinned number of units), and a traced repetition whose
    exact counts differ makes the run incorrect.
    """
    problems = []
    attempted = failed = 0
    for index, (traced, report) in enumerate(reports):
        if report is None:
            problems.append(f"repetition {index}: crashed")
            units = int(pinned["counts"]["experiments.executors.units_executed"])
            attempted += units
            failed += units
            continue
        attempted += report["units_attempted"]
        for kind in ("digest", "replay_digest"):
            if report[kind] != pinned["digest"]:
                problems.append(f"repetition {index}: {kind} {report[kind]} != pinned")
        if report["digest"] != pinned["digest"] or report["replay_digest"] != pinned["digest"]:
            failed += report["units_attempted"]
        if traced:
            for name in exact:
                if report["layers"][name] != pinned["counts"][name]:
                    problems.append(
                        f"repetition {index}: {name} = {report['layers'][name]}, "
                        f"pinned {pinned['counts'][name]}"
                    )
    return not problems and failed == 0, attempted, failed, problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return fail(f"no repro sources under {ROOT / 'src'}; run from a checkout")
    from layers import EXACT, PER_LAYER
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    inputs = json.loads((HERE / "pinned.json").read_text())[workload.group]
    pinned = inputs[args.seed % len(inputs)]

    out_dir = OUT / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(out_dir, ignore_errors=True)
    started = time.monotonic()
    reports = []
    rep_times = []
    while True:
        # Start a repetition only if it is expected to end within the run's
        # seconds; a traced run needs one traced and one untraced repetition.
        elapsed = time.monotonic() - started
        expected = statistics.mean(rep_times) if rep_times else 0.0
        if len(reports) >= MIN_REPS and elapsed + expected > args.seconds:
            break
        if reports and elapsed + 1.5 * expected > DEADLINE_S:
            break
        traced = bool(args.trace) and len(reports) % 2 == 0
        rep_dir = out_dir / f"rep{len(reports)}"
        report = run_rep(args.workload, pinned["input_seed"], rep_dir, traced,
                         timeout=DEADLINE_S - elapsed)
        reports.append((traced, report))
        rep_times.append(time.monotonic() - started - elapsed)
        if report is None:
            break
        if traced:
            shutil.copy(rep_dir / "trace.json", OUT / f"trace-{args.workload}-seed{args.seed}.json")
        shutil.rmtree(rep_dir, ignore_errors=True)
    shutil.rmtree(out_dir, ignore_errors=True)

    correct, attempted, failed, problems = gate(reports, pinned, EXACT)
    for problem in problems:
        print(f"perfbench: {problem}")
    # Metrics come from the repetitions that finished; with none, there are
    # none to report, and the run is incorrect anyway.
    done = [(t, r) for t, r in reports if r is not None]
    traced = [r for t, r in done if t]
    untraced = [r for t, r in done if not t]
    metrics = {}
    if args.trace and traced:
        metrics = {
            name: {"value": statistics.median([r["layers"][name] for r in traced]), "unit": unit}
            for name, unit, _ in PER_LAYER
        }
        if untraced:
            metrics["trace.overhead_ratio"]["value"] = (
                statistics.median([r["wall_s"] for r in traced])
                / statistics.median([r["wall_s"] for r in untraced])
            )
    elif not args.trace and done:
        metrics = {
            name: {"value": statistics.median([r[name] for _, r in done]), "unit": unit}
            for name, unit in END_TO_END
        }
    replays = [sample for _, r in done for sample in r["replay_s"]]
    replay_s = statistics.median(replays) if replays else float("nan")
    print(
        f"perfbench: {args.workload} seed={args.seed} input_seed={pinned['input_seed']} "
        f"repetitions={len(reports)} unit_fail_ratio={failed / max(attempted, 1):.4f} "
        f"replay_s={replay_s:.6g} "
        + " ".join(f"{name}={m['value']:.6g}" for name, m in metrics.items()
                   if name in dict(END_TO_END))
    )
    print(json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
