"""The asyncio scheduler: accepts submissions, leases units, merges results.

One :class:`SchedulerServer` serves every peer kind over the same ndjson
port (see :mod:`repro.service.protocol`): *clients* submit batches of
pickled :class:`~repro.experiments.executors.StudyTask` units and receive
each unit's outcome as it completes, *workers* pull unit batches under
leases and push results/failures back, and anyone may ask for a ``status``
snapshot.  Fault tolerance lives in :class:`~repro.service.leases.LeaseManager`;
this module wires it to connections, timers, telemetry and the result
store:

* a worker connection dropping releases its leases immediately (fast
  re-dispatch);
* a periodic sweep reaps expired leases of *hung-but-connected* workers
  and finalizes submissions whose last unit just quarantined;
* completed units are optionally checkpointed into a scheduler-side
  :class:`~repro.experiments.store.ResultStore` (advisory-locked, so a
  local session may share the directory) before being forwarded to the
  submitting client.

A ``lease_request`` that finds nothing grantable is *parked*, not refused:
the scheduler holds it and grants to parked workers, oldest first, the
moment units become grantable -- right after a submission is acknowledged,
when lost or failed units are requeued, and when a backoff ends.  A parked
request that gets no work within its hold (:data:`IDLE_HOLD_S`, or the wait
until the earliest backoff ends, capped at :data:`MAX_HOLD_S`) is answered
``no_work`` with ``retry_in: 0``, so an idle worker still hears from the
scheduler at least that often and can honour its stop event and idle limit.

:class:`SchedulerThread` hosts a server on a background event-loop thread
for in-process use -- loopback tests, benchmarks and the bundled example
stand up a full scheduler this way in a few lines.
"""

from __future__ import annotations

import asyncio
import itertools
import threading
import time
from typing import Any, Dict, List, NamedTuple, Optional, Set, Tuple

from repro.service import protocol
from repro.service.leases import Lease, LeaseManager, UnitEvent, UnitRecord
from repro.service.telemetry import SchedulerTelemetry

#: How long a parked lease request waits for work when none is pending.
IDLE_HOLD_S = 0.5

#: Upper bound on a parked request's hold while units sit out a backoff.
MAX_HOLD_S = 5.0


class Connection:
    """One accepted peer connection with serialized writes.

    Unit completions are pushed to a client from whichever *worker*
    connection handler received them, so writes to one peer can originate
    from several coroutines; the per-connection lock keeps frames whole.
    """

    _ids = itertools.count(1)

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self.reader = reader
        self.writer = writer
        self.name = f"conn-{next(self._ids)}"
        self.role = "unknown"
        self._write_lock = asyncio.Lock()
        self.closed = False

    async def send(self, message: Dict[str, Any]) -> bool:
        """Write one message; ``False`` (never an exception) if the peer is gone."""
        if self.closed:
            return False
        data = protocol.encode_message(message)
        try:
            async with self._write_lock:
                self.writer.write(data)
                await self.writer.drain()
            return True
        except (ConnectionError, RuntimeError, OSError):
            self.closed = True
            return False

    async def recv(self) -> Optional[Dict[str, Any]]:
        """Read one message; ``None`` when the peer closed the connection."""
        try:
            line = await self.reader.readline()
        except (ConnectionError, asyncio.LimitOverrunError, OSError):
            return None
        if not line:
            return None
        return protocol.decode_message(line)

    async def close(self) -> None:
        self.closed = True
        try:
            self.writer.close()
            await self.writer.wait_closed()
        except (ConnectionError, OSError):  # pragma: no cover - teardown race
            pass


class _Submission:
    """Scheduler-side client bookkeeping for one submission."""

    def __init__(self, submission_id: str, client: Connection) -> None:
        self.submission_id = submission_id
        self.client = client
        self.finished = False


class _ParkedRequest(NamedTuple):
    """A worker's lease request waiting for grantable work."""

    capacity: int
    hold: asyncio.TimerHandle


class SchedulerServer:
    """Serves study submissions to a worker fleet with leased dispatch.

    Parameters
    ----------
    host, port:
        Bind address; ``port=0`` picks an ephemeral port (see
        :attr:`address` after :meth:`start`).
    lease_ttl, max_attempts, backoff_base, backoff_cap:
        Fault-tolerance knobs, passed to
        :class:`~repro.service.leases.LeaseManager`.
    store:
        Optional :class:`~repro.experiments.store.ResultStore`; completed
        units that carry cache metadata are checkpointed into it as they
        arrive, so a local session pointed at the same directory replays
        a service run for free.
    default_batch:
        Units granted when a worker does not state a capacity.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        lease_ttl: float = 15.0,
        max_attempts: int = 3,
        backoff_base: float = 0.25,
        backoff_cap: float = 10.0,
        store: Optional[Any] = None,
        default_batch: int = 2,
    ) -> None:
        self.host = host
        self.port = port
        self.manager = LeaseManager(
            lease_ttl=lease_ttl,
            max_attempts=max_attempts,
            backoff_base=backoff_base,
            backoff_cap=backoff_cap,
        )
        self.telemetry = SchedulerTelemetry()
        self.store = store
        self.default_batch = default_batch
        self._submissions: Dict[str, _Submission] = {}
        self._submission_ids = itertools.count(1)
        self._server: Optional[asyncio.AbstractServer] = None
        self._sweep_task: Optional[asyncio.Task] = None
        self._connections: Dict[asyncio.Task, Connection] = {}
        #: Parked lease requests in arrival order (granted oldest first).
        self._parked: Dict[Connection, _ParkedRequest] = {}
        #: Fires when the earliest backoff ends while requests are parked.
        self._wake_timer: Optional[asyncio.TimerHandle] = None
        #: Grants and ``no_work`` replies sent from timers and wake-ups.
        self._replies: Set[asyncio.Task] = set()
        self._stopping = asyncio.Event()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)``; valid after :meth:`start`."""
        return (self.host, self.port)

    async def start(self) -> Tuple[str, int]:
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.host,
            self.port,
            limit=protocol.MAX_LINE_BYTES,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        interval = min(1.0, self.manager.lease_ttl / 4)
        self._sweep_task = asyncio.create_task(self._sweep_loop(interval))
        return self.address

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        await self._stopping.wait()

    async def stop(self) -> None:
        if self._sweep_task is not None:
            self._sweep_task.cancel()
            try:
                await self._sweep_task
            except asyncio.CancelledError:
                pass
        if self._server is not None:
            self._server.close()
        # Connected peers would otherwise keep their handlers pending past
        # the loop's shutdown.  Closing a transport ends its handler's read
        # loop, which then runs its normal disconnect cleanup.
        for conn in self._connections.values():
            conn.writer.close()
        await asyncio.gather(*self._connections, return_exceptions=True)
        # Every handler unparked its connection on the way out, so no hold
        # or wake-up can start a reply after this.
        await asyncio.gather(*self._replies, return_exceptions=True)
        if self._server is not None:
            await self._server.wait_closed()
        # Set last: serve_forever (and the hosting thread's loop) must only
        # unblock once the listener and sweeper are fully torn down.
        self._stopping.set()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = Connection(reader, writer)
        task = asyncio.current_task()
        self._connections[task] = conn
        try:
            try:
                hello = protocol.check_hello(await conn.recv(), ("client", "worker"))
            except protocol.ProtocolError as exc:
                await conn.send({"type": "error", "error": str(exc)})
                return
            conn.role = hello["role"]
            if hello.get("name"):
                conn.name = str(hello["name"])
            now = time.monotonic()
            if conn.role == "worker":
                self.telemetry.worker_connected(conn.name, now)
            await conn.send(
                {
                    "type": "hello_ack",
                    "protocol": protocol.PROTOCOL_VERSION,
                    "lease_ttl": self.manager.lease_ttl,
                }
            )
            while True:
                message = await conn.recv()
                if message is None:
                    break
                try:
                    await self._dispatch(conn, message)
                except protocol.ProtocolError as exc:
                    await conn.send({"type": "error", "error": str(exc)})
                    break
        finally:
            try:
                await self._connection_lost(conn)
                await conn.close()
            finally:
                del self._connections[task]

    async def _dispatch(self, conn: Connection, message: Dict[str, Any]) -> None:
        kind = message.get("type")
        if kind == "status_request":
            await conn.send({"type": "status_reply", "status": self.status()})
        elif kind == "submit" and conn.role == "client":
            await self._handle_submit(conn, message)
        elif kind == "lease_request" and conn.role == "worker":
            await self._handle_lease_request(conn, message)
        elif kind == "heartbeat" and conn.role == "worker":
            self.telemetry.bump("heartbeats")
            self.telemetry.worker_seen(conn.name, time.monotonic())
            self.manager.heartbeat(str(message.get("lease_id")), time.monotonic())
        elif kind == "unit_result" and conn.role == "worker":
            await self._handle_unit_result(conn, message)
        elif kind == "unit_failed" and conn.role == "worker":
            await self._handle_unit_failed(conn, message)
        elif kind == "lease_failed" and conn.role == "worker":
            await self._handle_lease_failed(conn, message)
        elif kind == "goodbye":
            raise protocol.ProtocolError("peer said goodbye")  # clean close path
        else:
            raise protocol.ProtocolError(f"unexpected {kind!r} from a {conn.role}")

    async def _connection_lost(self, conn: Connection) -> None:
        now = time.monotonic()
        if conn.role == "worker":
            self._unpark(conn)
            events = self.manager.release_worker(conn.name, now)
            if events:
                self.telemetry.bump("leases_released")
            self.telemetry.worker_dead(conn.name, now)
            await self._apply_unit_events(events)
        elif conn.role == "client":
            # The client has every result of its finished submissions, so
            # their unit records are freed along with the unfinished ones.
            for sid, submission in list(self._submissions.items()):
                if submission.client is conn:
                    dropped = self.manager.cancel_submission(sid)
                    if dropped and not submission.finished:
                        self.telemetry.bump("submissions_cancelled")
                    del self._submissions[sid]

    # ------------------------------------------------------------------
    # Client messages
    # ------------------------------------------------------------------
    async def _handle_submit(self, conn: Connection, message: Dict[str, Any]) -> None:
        units_spec = message.get("units")
        if not isinstance(units_spec, list) or not units_spec:
            raise protocol.ProtocolError("submit carries no units")
        submission_id = f"sub-{next(self._submission_ids)}"
        label = str(message.get("label") or "unlabelled")
        try:
            # Unit keys are scoped by submission: a client key need only be
            # unique within its own submission, so resubmitting a study
            # never collides with an earlier submission's records.
            records = [
                UnitRecord(
                    key=f"{submission_id}/{spec['key']}",
                    submission_id=submission_id,
                    index=int(spec["index"]),
                    unit_digest=str(spec.get("unit_digest", "")),
                    task_blob=spec["task"],
                    cache=spec.get("cache"),
                )
                for spec in units_spec
            ]
            self.manager.add_submission(submission_id, label, records)
        except (KeyError, TypeError, ValueError) as exc:
            # Refuse the submission but keep the connection: a malformed
            # or self-duplicating batch is the client's error, not a fault.
            self.telemetry.bump("submissions_refused")
            await conn.send(
                {
                    "type": "error",
                    "error": f"submission refused: {exc}",
                    "client_id": message.get("submission_id"),
                }
            )
            return
        self._submissions[submission_id] = _Submission(submission_id, conn)
        self.telemetry.bump("submissions_opened")
        self.telemetry.bump("units_submitted", len(records))
        await conn.send(
            {
                "type": "submit_ack",
                "submission_id": submission_id,
                "client_id": message.get("submission_id"),
                "units": len(records),
            }
        )
        self._wake_parked()

    # ------------------------------------------------------------------
    # Worker messages
    # ------------------------------------------------------------------
    async def _handle_lease_request(self, conn: Connection, message: Dict[str, Any]) -> None:
        if conn in self._parked:
            # A worker waits for the reply to its request before asking
            # again; a second request would risk a double grant.
            self._unpark(conn)
            raise protocol.ProtocolError("lease_request while an earlier one is parked")
        now = time.monotonic()
        self.telemetry.worker_seen(conn.name, now)
        try:
            capacity = max(1, int(message.get("capacity") or self.default_batch))
        except (TypeError, ValueError) as exc:
            raise protocol.ProtocolError(f"bad lease capacity: {exc}") from exc
        # Parked requests are served first, so a newcomer only grants
        # directly when no one is waiting.
        lease = None if self._parked else self.manager.grant(conn.name, capacity, now)
        if lease is None:
            self._park(conn, capacity, now)
            return
        await conn.send(self._grant_message(conn, lease))

    def _grant_message(self, conn: Connection, lease: Lease) -> Dict[str, Any]:
        self.telemetry.bump("leases_granted")
        view = self.telemetry.workers.get(conn.name)
        if view is not None:
            view.leases_granted += 1
        return {
            "type": "lease_grant",
            "lease_id": lease.lease_id,
            "expires_in": self.manager.lease_ttl,
            "units": [
                {"key": key, "task": self.manager.units[key].task_blob}
                for key in sorted(lease.keys, key=lambda k: self.manager.units[k].index)
            ],
        }

    async def _handle_unit_result(self, conn: Connection, message: Dict[str, Any]) -> None:
        now = time.monotonic()
        self.telemetry.worker_seen(conn.name, now)
        key = str(message.get("key"))
        unit = self.manager.units.get(key)
        verdict = self.manager.complete(key, worker=conn.name)
        if verdict == "duplicate":
            self.telemetry.bump("duplicate_completions")
            return
        if verdict == "unknown":
            self.telemetry.bump("unknown_completions")
            return
        assert unit is not None
        elapsed = float(message.get("elapsed_s") or 0.0)
        self.telemetry.unit_completed(conn.name, elapsed, now)
        self._checkpoint(unit, message["outcome"])
        submission = self._submissions.get(unit.submission_id)
        if submission is not None:
            await submission.client.send(
                {
                    "type": "unit_complete",
                    "submission_id": submission.submission_id,
                    "key": key,
                    "index": unit.index,
                    "attempts": unit.attempts,
                    "requeues": unit.requeues,
                    "elapsed_s": elapsed,
                    "outcome": message["outcome"],
                }
            )
            await self._finish_if_done(unit.submission_id)

    async def _handle_unit_failed(self, conn: Connection, message: Dict[str, Any]) -> None:
        now = time.monotonic()
        self.telemetry.worker_seen(conn.name, now)
        self.telemetry.unit_failed(conn.name, now)
        event = self.manager.fail(
            str(message.get("key")), str(message.get("error") or "unit failed"),
            now, worker=conn.name,
        )
        if event is not None:
            await self._apply_unit_events([event])

    async def _handle_lease_failed(self, conn: Connection, message: Dict[str, Any]) -> None:
        """A worker surrendered a whole lease (its heartbeat thread died)."""
        now = time.monotonic()
        self.telemetry.worker_seen(conn.name, now)
        events = self.manager.fail_lease(
            str(message.get("lease_id")),
            str(message.get("error") or "lease failed"),
            now,
        )
        if events:
            self.telemetry.bump("leases_failed")
            await self._apply_unit_events(events)

    # ------------------------------------------------------------------
    # Parked lease requests
    # ------------------------------------------------------------------
    def _park(self, conn: Connection, capacity: int, now: float) -> None:
        """Hold ``conn``'s lease request until work is grantable or the hold ends."""
        wait = self.manager.next_available_in(now)
        hold = IDLE_HOLD_S if wait is None else max(0.05, min(wait, MAX_HOLD_S))
        timer = asyncio.get_running_loop().call_later(hold, self._hold_expired, conn)
        self._parked[conn] = _ParkedRequest(capacity, timer)
        self.telemetry.bump("lease_requests_parked")
        self._wake_parked()

    def _unpark(self, conn: Connection) -> None:
        request = self._parked.pop(conn, None)
        if request is not None:
            request.hold.cancel()
        if not self._parked and self._wake_timer is not None:
            self._wake_timer.cancel()
            self._wake_timer = None

    def _wake_parked(self) -> None:
        """Grant to parked requests, oldest first, while units are grantable.

        If requests stay parked behind units that are backing off, re-arm
        the wake timer for the moment the earliest backoff ends.
        """
        if not self._parked:
            return
        if self._wake_timer is not None:
            self._wake_timer.cancel()
            self._wake_timer = None
        now = time.monotonic()
        while self._parked:
            conn, request = next(iter(self._parked.items()))
            lease = self.manager.grant(conn.name, request.capacity, now)
            if lease is None:
                break
            self._unpark(conn)
            self.telemetry.bump("parked_grants")
            self._reply(conn, self._grant_message(conn, lease))
        if self._parked:
            wait = self.manager.next_available_in(now)
            if wait is not None and wait > 0.0:
                self._wake_timer = asyncio.get_running_loop().call_later(
                    wait, self._wake_parked
                )

    def _hold_expired(self, conn: Connection) -> None:
        # A hold sized to a backoff ends as that backoff does: grant first,
        # so the unit goes out now rather than after a no_work round trip.
        self._wake_parked()
        if conn not in self._parked:
            return  # the wake-up just granted to it
        self._unpark(conn)
        self.telemetry.bump("no_work_replies")
        self._reply(conn, {"type": "no_work", "retry_in": 0})

    def _reply(self, conn: Connection, message: Dict[str, Any]) -> None:
        """Send ``message`` from a synchronous callback, without awaiting it."""
        task = asyncio.ensure_future(conn.send(message))
        self._replies.add(task)
        task.add_done_callback(self._replies.discard)

    # ------------------------------------------------------------------
    # Shared transitions
    # ------------------------------------------------------------------
    def _checkpoint(self, unit: UnitRecord, outcome_blob: str) -> None:
        """Write one completed unit into the scheduler-side result store."""
        if self.store is None or not unit.cache:
            return
        from repro.experiments.store import CacheKey  # local: keep import cheap

        outcome = protocol.unpack_blob(outcome_blob)
        self.store.put(CacheKey(**unit.cache), outcome.result)

    async def _apply_unit_events(self, events: List[UnitEvent]) -> None:
        """Propagate requeue/quarantine transitions to telemetry and clients."""
        touched: List[str] = []
        for event in events:
            if event.transition == "requeued":
                self.telemetry.bump("units_requeued")
                continue
            self.telemetry.bump("units_quarantined")
            touched.append(event.submission_id)
            submission = self._submissions.get(event.submission_id)
            unit = self.manager.units.get(event.key)
            if submission is not None and unit is not None:
                await submission.client.send(
                    {
                        "type": "unit_quarantined",
                        "submission_id": event.submission_id,
                        "key": event.key,
                        "index": unit.index,
                        "attempts": unit.attempts,
                        "errors": unit.errors[-self.manager.max_attempts :],
                    }
                )
        # Requeued units wake parked workers, now or when their backoff ends.
        self._wake_parked()
        for submission_id in dict.fromkeys(touched):
            await self._finish_if_done(submission_id)

    async def _finish_if_done(self, submission_id: str) -> None:
        record = self.manager.submissions.get(submission_id)
        submission = self._submissions.get(submission_id)
        if record is None or submission is None or submission.finished:
            return
        if not record.done:
            return
        submission.finished = True
        self.telemetry.bump("submissions_completed")
        await submission.client.send(
            {
                "type": "submission_done",
                "submission_id": submission_id,
                "completed": record.completed,
                "quarantined": list(record.quarantined),
            }
        )

    async def _sweep_loop(self, interval: float) -> None:
        """Periodically reap expired leases (hung workers) and requeue units."""
        while True:
            await asyncio.sleep(interval)
            expired, events = self.manager.reap_expired(time.monotonic())
            if expired:
                self.telemetry.bump("leases_expired", expired)
            if events:
                await self._apply_unit_events(events)

    # ------------------------------------------------------------------
    # Status
    # ------------------------------------------------------------------
    def status(self) -> Dict[str, Any]:
        """The JSON document behind the ``status`` endpoint."""
        now = time.monotonic()
        status = {
            "service": "repro.service",
            "protocol": protocol.PROTOCOL_VERSION,
            "address": list(self.address),
            "lease_ttl": self.manager.lease_ttl,
            "max_attempts": self.manager.max_attempts,
            "unit_states": self.manager.state_counts(),
            "submissions": [
                self.manager.submission_view(sid)
                for sid in self.manager.submissions
            ],
            "store": repr(self.store) if self.store is not None else None,
        }
        status.update(self.telemetry.status(now))
        return status


class SchedulerThread:
    """Host a :class:`SchedulerServer` on a daemon event-loop thread.

    >>> from repro.service import SchedulerThread
    >>> with SchedulerThread() as scheduler:
    ...     host, port = scheduler.address
    """

    def __init__(self, **kwargs: Any) -> None:
        self._kwargs = kwargs
        self.server: Optional[SchedulerServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._failure: Optional[BaseException] = None

    @property
    def address(self) -> Tuple[str, int]:
        assert self.server is not None, "scheduler thread not started"
        return self.server.address

    def start(self) -> Tuple[str, int]:
        self._thread = threading.Thread(
            target=self._run, name="repro-service-scheduler", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout=10.0):
            raise RuntimeError("scheduler thread failed to start in time")
        if self._failure is not None:
            raise RuntimeError("scheduler thread failed to start") from self._failure
        return self.address

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        self.server = SchedulerServer(**self._kwargs)

        async def main() -> None:
            try:
                await self.server.start()
            except BaseException as exc:  # bind failures surface in start()
                self._failure = exc
                self._started.set()
                return
            self._started.set()
            await self.server.serve_forever()

        try:
            loop.run_until_complete(main())
        finally:
            loop.close()

    def stop(self) -> None:
        if self._loop is None or self.server is None:
            return

        async def shutdown() -> None:
            await self.server.stop()

        try:
            asyncio.run_coroutine_threadsafe(shutdown(), self._loop).result(timeout=10.0)
        except Exception:  # pragma: no cover - teardown best effort
            pass
        if self._thread is not None:
            self._thread.join(timeout=10.0)

    def __enter__(self) -> "SchedulerThread":
        self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()
