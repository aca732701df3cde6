"""Framing and blob round-trips of the ndjson wire protocol."""

from __future__ import annotations

import socket
import threading

import pytest

from repro.experiments.executors import StudyTask
from repro.experiments.study import WorkUnit
from repro.service import SchedulerThread, protocol


class TestFraming:
    def test_encode_decode_roundtrip(self):
        message = {"type": "lease_request", "capacity": 4, "name": "w≠1"}
        data = protocol.encode_message(message)
        assert data.endswith(b"\n") and data.count(b"\n") == 1
        assert protocol.decode_message(data) == message

    def test_decode_rejects_garbage(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_message(b"\xff\xfe not json\n")
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_message(b"[1, 2, 3]\n")  # no "type"
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_message(b'{"no_type": 1}\n')

    def test_blob_roundtrips_study_tasks(self):
        unit = WorkUnit(study="demo", unit_id="cell/1", params={"a": 1, "b": (2, 3)})
        task = StudyTask(study="demo", config=None, chip=None, seed=42, unit=unit)
        clone = protocol.unpack_blob(protocol.pack_blob(task))
        assert clone.study == task.study
        assert clone.seed == 42
        assert clone.unit == unit
        assert clone.unit.digest == unit.digest

    def test_check_hello_validation(self):
        good = protocol.hello("worker", "w1")
        assert protocol.check_hello(good, ("worker",)) is good
        with pytest.raises(protocol.ProtocolError):
            protocol.check_hello(None, ("worker",))
        with pytest.raises(protocol.ProtocolError):
            protocol.check_hello({"type": "submit"}, ("worker",))
        with pytest.raises(protocol.ProtocolError):
            protocol.check_hello(dict(good, protocol=99), ("worker",))
        with pytest.raises(protocol.ProtocolError):
            protocol.check_hello(good, ("client",))


class TestHelloGate:
    """Peers on the version-1 protocol pickled ``BitFlip`` as a dataclass;
    loading their outcome blobs would yield field-less records, so their
    hello must be refused."""

    def test_version_1_hello_is_refused(self):
        assert protocol.PROTOCOL_VERSION == 2
        stale = dict(protocol.hello("worker", "old"), protocol=1)
        with pytest.raises(protocol.ProtocolError, match="peer speaks 1"):
            protocol.check_hello(stale, ("worker",))

    def test_scheduler_answers_version_1_hello_with_error_and_closes(self):
        with SchedulerThread(lease_ttl=30.0) as scheduler:
            stream = protocol.connect_stream(*scheduler.address)
            try:
                stream.send(dict(protocol.hello("client", "old"), protocol=1))
                reply = stream.recv()
                assert reply["type"] == "error"
                assert "protocol mismatch" in reply["error"]
                assert stream.recv() is None
            finally:
                stream.close()


class TestMessageStream:
    def make_pair(self):
        left, right = socket.socketpair()
        return protocol.MessageStream(left), protocol.MessageStream(right)

    def test_send_recv_over_socketpair(self):
        a, b = self.make_pair()
        try:
            a.send({"type": "ping", "n": 1})
            a.send({"type": "ping", "n": 2})
            assert b.recv() == {"type": "ping", "n": 1}
            assert b.recv() == {"type": "ping", "n": 2}
        finally:
            a.close()
            b.close()

    def test_recv_returns_none_on_close(self):
        a, b = self.make_pair()
        a.close()
        assert b.recv() is None
        b.close()

    def test_concurrent_sends_stay_framed(self):
        """Heartbeat threads share the stream with the execution loop."""
        a, b = self.make_pair()
        per_thread = 50

        def blast(tag):
            for n in range(per_thread):
                a.send({"type": "msg", "tag": tag, "n": n, "pad": "x" * 512})

        threads = [threading.Thread(target=blast, args=(t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        received = [b.recv() for _ in range(4 * per_thread)]
        for thread in threads:
            thread.join()
        assert all(message["type"] == "msg" for message in received)
        seen = {(message["tag"], message["n"]) for message in received}
        assert len(seen) == 4 * per_thread
        a.close()
        b.close()
