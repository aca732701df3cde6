"""Parked lease requests: idle workers are woken by work, not by polling.

A ``lease_request`` that finds nothing grantable is held by the scheduler
and answered the moment units become grantable.  Like
``test_service_faults.py`` these tests drive the wire protocol by hand
over a raw :class:`~repro.service.protocol.MessageStream`, so every
ordering is deterministic:

* a request parked on an empty queue is answered by ``lease_grant`` once a
  client submits -- never by ``no_work`` first;
* a parked worker that disconnects is forgotten (no reply to the dead
  connection; the next submission goes to the live worker);
* a requeue under backoff wakes a parked worker when the backoff ends;
* a second request on an already parked connection is refused and the
  connection closed, never granted twice;
* a real :class:`~repro.service.ServiceWorker` still honours
  ``max_idle_s`` and ``stop_event`` while parked.

Where a test must tell a wake-up from a hold that simply ran out, it
lengthens the hold (:data:`repro.service.scheduler.IDLE_HOLD_S`) so a
slow host cannot blur the two.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.service import SchedulerThread, ServiceClient, ServiceWorker, protocol
from repro.service import scheduler as scheduler_module
from repro.service.scheduler import Connection
from repro.service.selftest import ServiceSelfTestConfig

from .test_service_faults import (
    manual_worker,
    request_lease,
    submit_selftest,
)

CONFIG = ServiceSelfTestConfig(units=1, rounds=10)

#: A hold no test below should ever sit out.
LONG_HOLD_S = 10.0


def counters(host, port):
    with ServiceClient(host, port) as probe:
        return probe.status()["counters"]


def wait_for(predicate, timeout=10.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def wait_parked(host, port, count):
    assert wait_for(
        lambda: counters(host, port)["lease_requests_parked"] >= count
    ), f"fewer than {count} lease requests were parked"


@pytest.fixture
def long_hold(monkeypatch):
    monkeypatch.setattr(scheduler_module, "IDLE_HOLD_S", LONG_HOLD_S)


@pytest.fixture
def sends(monkeypatch):
    """Record ``(peer name, message type)`` of every scheduler send."""
    log = []
    real_send = Connection.send

    async def recording_send(self, message):
        log.append((self.name, message["type"]))
        return await real_send(self, message)

    monkeypatch.setattr(Connection, "send", recording_send)
    return log


class TestWakeOnSubmit:
    def test_parked_request_is_granted_when_a_client_submits(self, long_hold):
        with SchedulerThread() as scheduler:
            host, port = scheduler.address
            worker = manual_worker(host, port, "early")
            try:
                worker.send({"type": "lease_request", "capacity": 2})
                wait_parked(host, port, 1)
                with ServiceClient(host, port) as client:
                    submit_selftest(client, CONFIG)
                    started = time.monotonic()
                    reply = worker.recv()
                    waited = time.monotonic() - started
                    assert reply["type"] == "lease_grant"
                    assert len(reply["units"]) == 1
                    assert waited < LONG_HOLD_S / 2
                    status = client.status()["counters"]
            finally:
                worker.close()
        assert status["lease_requests_parked"] == 1
        assert status["parked_grants"] == 1
        assert status["leases_granted"] == 1
        assert status["no_work_replies"] == 0

    def test_expired_hold_replies_no_work_with_zero_retry(self):
        with SchedulerThread() as scheduler:
            host, port = scheduler.address
            worker = manual_worker(host, port, "idle")
            try:
                started = time.monotonic()
                worker.send({"type": "lease_request", "capacity": 1})
                reply = worker.recv()
                waited = time.monotonic() - started
                status = counters(host, port)
            finally:
                worker.close()
        assert reply == {"type": "no_work", "retry_in": 0}
        assert waited >= scheduler_module.IDLE_HOLD_S * 0.9
        assert status["lease_requests_parked"] == 1
        assert status["no_work_replies"] == 1
        assert status["parked_grants"] == 0


class TestParkedDisconnect:
    def test_dead_parked_worker_is_forgotten(self, long_hold, sends):
        with SchedulerThread() as scheduler:
            host, port = scheduler.address
            server = scheduler.server
            dead = manual_worker(host, port, "dead")
            live = manual_worker(host, port, "live")
            try:
                # "dead" parks first, so FIFO order would serve it first.
                dead.send({"type": "lease_request", "capacity": 1})
                wait_parked(host, port, 1)
                live.send({"type": "lease_request", "capacity": 1})
                wait_parked(host, port, 2)
                dead.close()
                assert wait_for(lambda: len(server._parked) == 1)
                with ServiceClient(host, port) as client:
                    submit_selftest(client, CONFIG)
                    reply = live.recv()
                    status = client.status()
            finally:
                live.close()
        assert reply["type"] == "lease_grant"
        assert status["workers"]["dead"]["state"] == "dead"
        assert status["workers"]["dead"]["leases_granted"] == 0
        assert status["counters"]["parked_grants"] == 1
        assert status["counters"]["no_work_replies"] == 0
        # The dead connection's hold was cancelled: nothing was ever sent
        # to it after the handshake.
        assert [kind for name, kind in sends if name == "dead"] == ["hello_ack"]


class TestWakeOnBackoffEnd:
    def test_requeue_wakes_parked_worker_when_backoff_ends(self, long_hold):
        backoff = 0.2
        with SchedulerThread(
            lease_ttl=30.0, backoff_base=backoff, backoff_cap=backoff, max_attempts=5
        ) as scheduler:
            host, port = scheduler.address
            first = manual_worker(host, port, "first")
            second = manual_worker(host, port, "second")
            try:
                with ServiceClient(host, port) as client:
                    submit_selftest(client, CONFIG)
                    grant = request_lease(first, capacity=1)
                    (unit,) = grant["units"]
                    # Nothing is pending now, so "second" parks on the
                    # (lengthened) idle hold.
                    second.send({"type": "lease_request", "capacity": 1})
                    wait_parked(host, port, 1)
                    failed_at = time.monotonic()
                    first.send(
                        {
                            "type": "unit_failed",
                            "lease_id": grant["lease_id"],
                            "key": unit["key"],
                            "error": "injected",
                        }
                    )
                    reply = second.recv()
                    waited = time.monotonic() - failed_at
                    status = client.status()["counters"]
            finally:
                first.close()
                second.close()
        assert reply["type"] == "lease_grant"
        assert [u["key"] for u in reply["units"]] == [unit["key"]]
        # Granted at the end of the unit's backoff, long before the hold.
        assert backoff * 0.9 <= waited < LONG_HOLD_S / 2
        assert status["units_requeued"] == 1
        assert status["parked_grants"] == 1
        assert status["no_work_replies"] == 0


class TestOutOfOrderRequest:
    def test_second_request_while_parked_is_refused(self, long_hold):
        with SchedulerThread() as scheduler:
            host, port = scheduler.address
            eager = manual_worker(host, port, "eager")
            try:
                eager.send({"type": "lease_request", "capacity": 1})
                eager.send({"type": "lease_request", "capacity": 1})
                reply = eager.recv()
                assert reply["type"] == "error"
                assert "parked" in reply["error"]
                assert eager.recv() is None  # the scheduler hung up
            finally:
                eager.close()
            with ServiceClient(host, port) as client:
                submit_selftest(client, CONFIG)
                live = manual_worker(host, port, "live")
                try:
                    grant = request_lease(live, capacity=1)
                finally:
                    live.close()
                status = client.status()
        assert len(grant["units"]) == 1
        assert status["workers"]["eager"]["state"] == "dead"
        assert status["workers"]["eager"]["leases_granted"] == 0
        assert status["counters"]["leases_granted"] == 1

    def test_malformed_capacity_is_refused(self):
        with SchedulerThread() as scheduler:
            host, port = scheduler.address
            worker = manual_worker(host, port, "garbled")
            try:
                worker.send({"type": "lease_request", "capacity": "many"})
                reply = worker.recv()
                assert reply["type"] == "error"
                assert "capacity" in reply["error"]
                assert worker.recv() is None
            finally:
                worker.close()


class TestIdleWorker:
    def test_max_idle_worker_exits_by_itself(self):
        with SchedulerThread() as scheduler:
            host, port = scheduler.address
            worker = ServiceWorker(host, port, name="drifter", max_idle_s=0.3)
            box = {}
            thread = threading.Thread(
                target=lambda: box.setdefault("done", worker.run()), daemon=True
            )
            thread.start()
            thread.join(timeout=10.0)
            assert not thread.is_alive(), "idle worker never exited"
            status = counters(host, port)
        assert box["done"] == 0
        assert status["no_work_replies"] >= 1
        assert status["leases_granted"] == 0

    def test_stop_event_ends_parked_worker_within_the_hold(self):
        with SchedulerThread() as scheduler:
            host, port = scheduler.address
            stop = threading.Event()
            worker = ServiceWorker(host, port, name="parked", stop_event=stop)
            thread = threading.Thread(target=worker.run, daemon=True)
            thread.start()
            try:
                wait_parked(host, port, 1)
                stopped_at = time.monotonic()
                stop.set()
                thread.join(timeout=scheduler_module.IDLE_HOLD_S + 2.0)
                took = time.monotonic() - stopped_at
                assert not thread.is_alive(), "parked worker ignored stop_event"
            finally:
                stop.set()
                thread.join(timeout=10.0)
        assert took <= scheduler_module.IDLE_HOLD_S + 2.0
        assert worker.units_done == 0


class ScriptedStream:
    """Replays scheduler replies to a worker; records what it sends."""

    def __init__(self, replies):
        self.replies = list(replies)
        self.sent = []

    def send(self, message):
        self.sent.append(message)

    def recv(self):
        return self.replies.pop(0) if self.replies else None

    def close(self):
        pass


class RecordingEvent(threading.Event):
    """A stop event whose waits return at once and are recorded."""

    def __init__(self):
        super().__init__()
        self.waits = []

    def wait(self, timeout=None):
        self.waits.append(timeout)
        return self.is_set()


class TestWorkerRetry:
    def test_retry_in_is_honoured_even_when_zero(self, monkeypatch):
        stream = ScriptedStream(
            [
                {"type": "hello_ack", "protocol": 2, "lease_ttl": 15.0},
                {"type": "no_work", "retry_in": 0},
                {"type": "no_work"},
                {"type": "no_work", "retry_in": 0.25},
            ]
        )
        monkeypatch.setattr(protocol, "connect_stream", lambda host, port: stream)
        stop = RecordingEvent()
        worker = ServiceWorker("127.0.0.1", 1, name="scripted", stop_event=stop)
        assert worker.run() == 0
        # An explicit 0 means "ask again now"; only a missing value is 0.5 s.
        assert stop.waits == [0.0, 0.5, 0.25]
        kinds = [message["type"] for message in stream.sent]
        assert kinds == ["hello"] + ["lease_request"] * 4 + ["goodbye"]
