"""One measured repetition of a workload, in a fresh interpreter.

Run by ``run.py`` (never imported by it): builds the inputs and the
executor, runs the workload's studies once into an empty result store
(the *fresh* run), replays them from that store, and prints as its last
line one JSON object with what it measured and the fresh and replayed
payload digests, which ``run.py`` checks against the pinned reference.

    python3 perfbench/rep.py --workload fig10-serial --input-seed 3 \\
        --started-at <time.time() at spawn> --out-dir <scratch dir> [--trace]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

from service_worker import WORKER_NAME
from workloads import POOL_WORKERS, WORKLOADS, make_session_factory, payload_digest, studies

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

#: Replays of the filled store per repetition, by study group (``run.py``
#: reports the median over all of a run's replays).  A chip-group replay
#: reads ~7 MB of pickled results.
REPLAYS = {"fig10": 25, "chip": 3}

#: Ticks of the ``/proc/<pid>/stat`` CPU time fields.
CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def proc_cpu_s(pid: int) -> float:
    """User+system CPU seconds a live process has used so far."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / CLOCK_TICKS


def rusage_cpu_s(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def wait_until(predicate, timeout: float, interval: float = 0.01) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise TimeoutError("condition not reached in time")
        time.sleep(interval)


class ServiceFleet:
    """In-process scheduler plus one benchmark-owned worker subprocess."""

    def __init__(self, trace_dir) -> None:
        from repro.service import SchedulerThread

        self.scheduler = SchedulerThread()
        self.host, self.port = self.scheduler.start()
        command = [
            sys.executable, str(HERE / "service_worker.py"),
            "--host", self.host, "--port", str(self.port),
        ]
        if trace_dir is not None:
            command += ["--trace-dir", str(trace_dir)]
        self.worker = subprocess.Popen(command)
        wait_until(self._worker_connected, timeout=60.0)

    def _worker_connected(self) -> bool:
        if self.worker.poll() is not None:
            raise RuntimeError(f"service worker exited with {self.worker.returncode}")
        return WORKER_NAME in self.status()["workers"]

    def status(self) -> dict:
        from repro.service import ServiceClient

        with ServiceClient(self.host, self.port) as client:
            return client.status()

    def close(self) -> None:
        """Stop the worker, wait until the scheduler has seen it go, stop both.

        Stopping the scheduler while a worker is still connected leaves its
        connection task pending at loop close, so the worker goes first.
        """
        if self.worker.poll() is None:
            self.worker.terminate()
        try:
            self.worker.wait(timeout=30.0)
            wait_until(
                lambda: self.status()["workers"][WORKER_NAME]["state"] == "dead",
                timeout=10.0,
            )
        finally:
            if self.worker.poll() is None:
                self.worker.kill()
                self.worker.wait(timeout=30.0)
            self.scheduler.stop()


def make_executor(kind: str, fleet):
    from repro.experiments import ParallelExecutor, SerialExecutor, ServiceExecutor

    if kind == "serial":
        return SerialExecutor()
    if kind == "pool":
        return ParallelExecutor(max_workers=POOL_WORKERS)
    return ServiceExecutor(fleet.host, fleet.port, label="perfbench")


def run_studies(session, studies):
    return [session.run(name, config) for name, config in studies]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--input-seed", type=int, required=True)
    parser.add_argument("--started-at", type=float, required=True)
    parser.add_argument("--out-dir", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload]
    trace_dir = args.out_dir / "spans" if args.trace else None
    tracer = None
    if args.trace:
        import probes
        from tracer import Tracer

        tracer = Tracer(trace_dir)
        probes.install(tracer)

    from repro.experiments import ResultStore

    store_root = args.out_dir / "store"
    shutil.rmtree(store_root, ignore_errors=True)
    plan = studies(workload.group, args.input_seed)
    factory = make_session_factory(workload.group, args.input_seed)
    fleet = ServiceFleet(trace_dir) if workload.executor == "service" else None
    try:
        executor = make_executor(workload.executor, fleet)
        session = factory(executor, ResultStore(store_root))
        setup_s = time.time() - args.started_at

        # Fresh run: every unit is computed and written to the empty store.
        worker_cpu = proc_cpu_s(fleet.worker.pid) if fleet else 0.0
        cpu = rusage_cpu_s(resource.RUSAGE_SELF) + rusage_cpu_s(resource.RUSAGE_CHILDREN)
        started = time.perf_counter()
        fresh = run_studies(session, plan)
        wall_s = time.perf_counter() - started
        cpu_s = (
            rusage_cpu_s(resource.RUSAGE_SELF) + rusage_cpu_s(resource.RUSAGE_CHILDREN) - cpu
        )
        status = None
        if fleet is not None:
            cpu_s += proc_cpu_s(fleet.worker.pid) - worker_cpu
            status = fleet.status()
    finally:
        if fleet is not None:
            fleet.close()

    units_attempted = sum(o.executed for o in fresh)
    digest = payload_digest(fresh)
    candidates = sum(
        payload.candidates_examined
        for outcome in fresh
        if outcome.study == "fig8-hcfirst"
        for payload in outcome.payloads()
    )
    chip_stats = {
        field: sum(getattr(chip.stats, field) for chip in session.chips)
        for field in ("activations", "row_writes", "row_reads", "bit_flips_induced")
    }
    # A later session replaying the store holds none of the fresh run's
    # results (the session's store keeps them in memory), so neither do the
    # replays here: they would otherwise pay for the garbage collector
    # walking them.
    del fresh, session

    # Replays: a new store object per pass, so every unit is read back from
    # disk as a later session would, not from the first store's memory.
    replays = []
    replayed = None
    for _ in range(REPLAYS[workload.group]):
        replayed = None
        replay_session = factory(executor, ResultStore(store_root))
        started = time.perf_counter()
        replayed = run_studies(replay_session, plan)
        replays.append(time.perf_counter() - started)
        if any(o.executed for o in replayed):
            raise RuntimeError("a replay executed units; the store lost results")

    # Attempts that failed and were retried.  A unit that fails for good
    # (serial, pool) or is quarantined (service) raises out of ``run``, so
    # this repetition would have crashed, and ``run.py`` counts that.
    failed_attempts = status["counters"]["units_failed"] if status is not None else 0
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    report = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "replay_s": replays,
        "peak_rss_mb": peak_kb / 1024.0,
        "units_attempted": units_attempted,
        "failed_attempts": failed_attempts,
        "digest": digest,
        # Every replay reads the same files, so the last one stands for all.
        "replay_digest": payload_digest(replayed),
    }
    if tracer is not None:
        from layers import layer_metrics
        from tracer import chrome_trace

        tracer.flush()
        spans, counters = tracer.collect()
        report["layers"] = layer_metrics(
            spans,
            counters,
            {
                "group": workload.group,
                "wall_s": wall_s,
                "replays": replays,
                "workers": POOL_WORKERS if workload.executor == "pool" else 1,
                "worker_pid": fleet.worker.pid if fleet else None,
                "units_attempted": units_attempted,
                "failed_attempts": failed_attempts,
                "bytes_written": sum(
                    p.stat().st_size for p in store_root.rglob("*") if p.is_file()
                ),
                "chip_stats": chip_stats,
                "candidates_examined": candidates,
                "status": status,
            },
        )
        origin = min(span[3] for span in spans)
        (args.out_dir / "trace.json").write_text(json.dumps(chrome_trace(spans, origin)))
    shutil.rmtree(store_root, ignore_errors=True)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
