#!/usr/bin/env python3
"""Regenerate ``pinned.json``: the inputs of each study group with their
serial-reference payload digests and exact counts.

    python3 perfbench/pin.py

For each group, runs input seeds ``0 .. CANDIDATES-1`` once each, traced,
through the serial executor, and keeps the ``INPUTS`` whose work count
(``workloads.WORK_COUNT``) lies nearest the candidates' median, in seed
order.  A kept input's merged-payload digest and the counts of
``layers.EXACT`` are what every benchmark run of that input, under any
executor, must reproduce.  Pin again only when a change is meant to alter
results, and say so in the change.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from layers import EXACT  # noqa: E402
from workloads import WORK_COUNT  # noqa: E402

REFERENCE = {"fig10": "fig10-serial", "chip": "chip-serial"}

#: Input seeds tried per group, and how many of them are kept.
CANDIDATES = 24
INPUTS = 8


def reference(workload: str, input_seed: int) -> dict:
    with tempfile.TemporaryDirectory(dir=HERE.parent) as scratch:
        done = subprocess.run(
            [
                sys.executable, str(HERE / "rep.py"), "--workload", workload,
                "--input-seed", str(input_seed), "--out-dir", scratch,
                "--started-at", repr(time.time()), "--trace",
            ],
            stdout=subprocess.PIPE, text=True, check=True,
        )
    report = json.loads(done.stdout.strip().splitlines()[-1])
    if report["replay_digest"] != report["digest"]:
        raise RuntimeError(f"{workload} input {input_seed}: replay differs from fresh run")
    print(
        f"{workload} input {input_seed}: traced serial wall {report['wall_s']:.2f} s",
        file=sys.stderr,
    )
    return {
        "input_seed": input_seed,
        "digest": report["digest"],
        "counts": {name: report["layers"][name] for name in EXACT},
    }


def select(candidates: list, work_count: str, keep: int) -> list:
    """The ``keep`` candidates nearest the median work count, in seed order."""
    median = statistics.median(c["counts"][work_count] for c in candidates)
    nearest = sorted(
        candidates, key=lambda c: (abs(c["counts"][work_count] - median), c["input_seed"])
    )[:keep]
    return sorted(nearest, key=lambda c: c["input_seed"])


def main() -> int:
    pinned = {}
    for group, workload in REFERENCE.items():
        candidates = [reference(workload, seed) for seed in range(CANDIDATES)]
        pinned[group] = select(candidates, WORK_COUNT[group], INPUTS)
    (HERE / "pinned.json").write_text(json.dumps(pinned, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
