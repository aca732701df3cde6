"""One scheduler across repeated submissions, refusals and shutdown.

* Resubmitting a study whose unit keys match an earlier, finished
  submission is served like the first submission (unit keys are scoped by
  submission), and both payloads equal a serial run's.
* A submission that repeats a unit key is refused with a protocol error;
  the client connection stays usable.
* Stopping the scheduler while a worker is still connected shuts every
  connection handler down before the event loop closes, so asyncio logs
  no pending-task or closed-loop errors.
"""

from __future__ import annotations

import contextlib
import gc
import logging
import sys
import threading
import time

import pytest

from repro.core.first_flip import HCFirstStudyConfig
from repro.dram.geometry import ChipGeometry
from repro.dram.population import make_population
from repro.experiments import ExperimentSession, SerialExecutor, ServiceExecutor
from repro.service import (
    SchedulerThread,
    ServiceClient,
    ServiceWorker,
    SubmissionRefusedError,
    protocol,
)

GEOMETRY = ChipGeometry(banks=1, rows_per_bank=32, row_bytes=16)
CONFIGURATIONS = [("DDR4-new", "A"), ("LPDDR4-1y", "A")]


def population():
    return make_population(
        chips_per_config=1, seed=9, geometry=GEOMETRY, configurations=CONFIGURATIONS
    )


@contextlib.contextmanager
def one_worker(host, port):
    stop = threading.Event()
    worker = ServiceWorker(host, port, name="w0", batch_size=2, stop_event=stop)
    thread = threading.Thread(target=worker.run, daemon=True)
    thread.start()
    try:
        yield worker
    finally:
        stop.set()
        thread.join(timeout=10.0)


class TestResubmission:
    def test_fig8_submitted_twice_matches_serial(self):
        config = HCFirstStudyConfig()
        serial = ExperimentSession(population(), executor=SerialExecutor(), seed=4).run(
            "fig8-hcfirst", config
        )
        with SchedulerThread() as scheduler:
            host, port = scheduler.address
            with one_worker(host, port):
                runs = [
                    ExperimentSession(
                        population(), executor=ServiceExecutor(host, port), seed=4
                    ).run("fig8-hcfirst", config)
                    for _ in range(2)
                ]
            # Both clients disconnected after their run, so no unit records
            # outlive them once the scheduler has seen the disconnects.
            with ServiceClient(host, port) as probe:
                deadline = time.monotonic() + 10.0
                while True:
                    status = probe.status()
                    live = sum(status["unit_states"].values())
                    if not live or time.monotonic() > deadline:
                        break
                    time.sleep(0.05)
        for run in runs:
            assert run.payloads() == serial.payloads()
            assert run.executed == serial.executed
        assert status["counters"]["submissions_completed"] == 2
        assert status["counters"]["submissions_refused"] == 0
        assert live == 0


class TestRefusal:
    def test_duplicate_unit_key_is_refused_and_connection_survives(self):
        with SchedulerThread() as scheduler:
            host, port = scheduler.address
            with ServiceClient(host, port) as client:
                unit = {"key": "k", "index": 0, "task": protocol.pack_blob(None)}
                with pytest.raises(SubmissionRefusedError, match="duplicate unit key"):
                    client.submit_units([unit, dict(unit, index=1)], label="dup")
                status = client.status()
        assert status["counters"]["submissions_refused"] == 1
        assert status["counters"]["submissions_opened"] == 0
        assert sum(status["unit_states"].values()) == 0

    def test_malformed_unit_is_refused(self):
        with SchedulerThread() as scheduler:
            host, port = scheduler.address
            with ServiceClient(host, port) as client:
                with pytest.raises(SubmissionRefusedError):
                    client.submit_units([{"index": 0}], label="no-key")
                assert client.status()["counters"]["submissions_refused"] == 1


class TestStop:
    def test_stop_with_connected_worker_logs_no_asyncio_errors(self, caplog, monkeypatch):
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        caplog.set_level(logging.DEBUG, logger="asyncio")
        scheduler = SchedulerThread()
        host, port = scheduler.start()
        stream = protocol.connect_stream(host, port)
        try:
            stream.send(protocol.hello("worker", "idle"))
            assert stream.recv()["type"] == "hello_ack"
            scheduler.stop()
            gc.collect()
            # The scheduler closed the worker's connection on its way out.
            assert stream.recv() is None
        finally:
            stream.close()
        messages = [record.getMessage() for record in caplog.records]
        assert not [m for m in messages if "destroyed but it is pending" in m]
        assert not [m for m in messages if "Event loop is closed" in m]
        assert not [r for r in caplog.records if r.levelno >= logging.ERROR]
        assert unraisable == []
