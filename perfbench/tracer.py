"""Span recorder for the benchmark's traced runs (stdlib only).

A :class:`Tracer` wraps callables so every call records one span: an id,
the id of the span that was open when the call started (its parent), a
name, start and end on the host's monotonic clock (``perf_counter`` is
``CLOCK_MONOTONIC`` on Linux, so spans from different processes share one
time base), the process and the thread.  Hooks attached to a wrapper add
counts next to the span, where the work happens.

Spans stay in memory until their process flushes them to its own
``spans-<pid>.jsonl`` file: the benchmark process once, at the end of its
repetition, and worker processes (a forked pool worker, the service
worker) each time their outermost span closes, so nothing is lost when a
worker is terminated between units.  :meth:`Tracer.collect` merges the
files.

Nothing here knows about ``repro``; the probes in :mod:`probes` decide what
to wrap.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: One recorded span: (id, parent id or None, name, start s, end s, pid, tid).
Span = Tuple[int, Optional[int], str, float, float, int, int]


class Tracer:
    """Records spans and counters for the callables it wraps.

    Parameters
    ----------
    out_dir:
        Directory that worker processes flush their spans into.
    flush_each_root:
        Flush every time the outermost span closes.  Set for a worker
        process that may be terminated between units; forked children of
        the creating process always do it.
    """

    def __init__(self, out_dir: Path, flush_each_root: bool = False) -> None:
        self.out_dir = Path(out_dir)
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._flush_each_root = flush_each_root
        self._flush_depth = 0
        os.register_at_fork(after_in_child=self._after_fork)

    # ------------------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _after_fork(self) -> None:
        # A forked pool worker keeps the parent's open-span stack, so its
        # first spans link to the span that forked it; everything already
        # recorded belongs to the parent.
        self.spans = []
        self.counters = defaultdict(float)
        self._flush_each_root = True
        self._flush_depth = len(self._stack())

    def _new_id(self) -> int:
        # Unique across processes: pids never collide while spans are live.
        return os.getpid() * 10_000_000 + next(self._ids)

    def inside(self, name: str) -> bool:
        """Whether a span named ``name`` is open on this thread."""
        return name in getattr(self._local, "names", ())

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    # ------------------------------------------------------------------
    def _open(self, name: str) -> Tuple[int, Optional[int], float]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        span_id = self._new_id()
        stack.append(span_id)
        names = getattr(self._local, "names", None)
        if names is None:
            names = self._local.names = []
        names.append(name)
        return span_id, parent, time.perf_counter()

    def _close(
        self, span_id: int, parent: Optional[int], name: str, start: float, end: float
    ) -> None:
        stack = self._stack()
        stack.pop()
        self._local.names.pop()
        self.spans.append(
            (span_id, parent, name, start, end, os.getpid(), threading.get_ident())
        )
        if self._flush_each_root and len(stack) <= self._flush_depth:
            self.flush()

    def wrap(
        self,
        fn: Callable,
        name: Any,
        hook: Optional[Callable[..., None]] = None,
    ) -> Callable:
        """Return ``fn`` wrapped in a span.

        ``name`` is a string or a callable of the call's arguments that
        returns one.  ``hook(result, *args, **kwargs)`` runs after the call,
        after the span's end is taken, to record counts.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            span_id, parent, start = self._open(label)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(span_id, parent, label, start, time.perf_counter())
                raise
            end = time.perf_counter()
            if hook is not None:
                # Before the span closes, so a worker's flush on closing its
                # outermost span carries the counts of that span too.
                hook(result, *args, **kwargs)
            self._close(span_id, parent, label, start, end)
            return result

        return traced

    def wrap_iterator(
        self, fn: Callable, name: str, hook: Optional[Callable[..., None]] = None
    ) -> Callable:
        """Wrap a generator function: one span per ``next()`` on its result.

        Each span is the time the caller was blocked waiting for the next
        item.  Closing the wrapper closes the wrapped generator, so callers
        that release resources on ``close()`` keep working.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is not None:
                hook(None, *args, **kwargs)
            inner = iter(fn(*args, **kwargs))
            try:
                while True:
                    span_id, parent, start = self._open(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close(span_id, parent, name, start, time.perf_counter())
                    yield item
            finally:
                close = getattr(inner, "close", None)
                if close is not None:
                    close()

        return traced

    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Append this process's spans and counters to its own file."""
        if not self.spans and not self.counters:
            return
        self.out_dir.mkdir(parents=True, exist_ok=True)
        record = {"pid": os.getpid(), "spans": self.spans, "counters": dict(self.counters)}
        with open(self.out_dir / f"spans-{os.getpid()}.jsonl", "a") as handle:
            handle.write(json.dumps(record) + "\n")
        self.spans = []
        self.counters = defaultdict(float)

    def collect(self) -> Tuple[List[Span], Dict[str, float]]:
        """Spans and counters of every process, from their flushed files."""
        spans: List[Span] = []
        counters: Dict[str, float] = defaultdict(float)
        for path in sorted(self.out_dir.glob("spans-*.jsonl")):
            for line in path.read_text().splitlines():
                record = json.loads(line)
                spans.extend(tuple(span) for span in record["spans"])
                for key, value in record["counters"].items():
                    counters[key] += value
        return spans, dict(counters)


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------
def duration(span: Span) -> float:
    return span[4] - span[3]


def covered_time(start: float, end: float, children: Iterable[Span]) -> float:
    """Length of ``[start, end]`` covered by the union of the children."""
    intervals = sorted(
        (max(start, child[3]), min(end, child[4]))
        for child in children
        if child[4] > start and child[3] < end
    )
    covered = 0.0
    cursor = start
    for lo, hi in intervals:
        lo = max(lo, cursor)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered


def matches(name: str, prefix: str) -> bool:
    """Whether span ``name`` lies under ``prefix`` in the dotted name tree.

    A prefix ending in ``.`` selects a subtree (``"dram.chip."``); any other
    prefix selects that name and its children, so ``"sim.system.run.TWiCe"``
    does not take in ``"sim.system.run.TWiCe-ideal"``.
    """
    if prefix.endswith("."):
        return name.startswith(prefix)
    return name == prefix or name.startswith(prefix + ".")


def outermost(spans: Sequence[Span], prefix: str) -> List[Span]:
    """Spans matching ``prefix`` that have no matching ancestor."""
    by_id = {span[0]: span for span in spans}
    chosen = []
    for span in spans:
        if not matches(span[2], prefix):
            continue
        parent = by_id.get(span[1]) if span[1] is not None else None
        nested = False
        while parent is not None:
            if matches(parent[2], prefix):
                nested = True
                break
            parent = by_id.get(parent[1]) if parent[1] is not None else None
        if not nested:
            chosen.append(span)
    return chosen


def time_in(spans: Sequence[Span], prefix: str) -> float:
    """Total time in spans matching ``prefix``, counting nested ones once."""
    return sum(duration(span) for span in outermost(spans, prefix))


def time_outside(
    spans: Sequence[Span], root_prefix: str, child_prefix: str
) -> float:
    """Time in ``root_prefix`` spans not covered by ``child_prefix`` spans.

    A child counts wherever it sits below a root (not only as a direct
    child), which is how ``core.self_s`` subtracts chip-kernel time from
    unit busy time.
    """
    by_id = {span[0]: span for span in spans}
    children: Dict[int, List[Span]] = defaultdict(list)
    for span in outermost(spans, child_prefix):
        ancestor = by_id.get(span[1]) if span[1] is not None else None
        while ancestor is not None and not matches(ancestor[2], root_prefix):
            ancestor = by_id.get(ancestor[1]) if ancestor[1] is not None else None
        if ancestor is not None:
            children[ancestor[0]].append(span)
    return sum(
        duration(root) - covered_time(root[3], root[4], children.get(root[0], ()))
        for root in outermost(spans, root_prefix)
    )


def chrome_trace(spans: Sequence[Span], origin: float) -> Dict[str, Any]:
    """Spans as a Chrome trace-event document (complete ``X`` events, us)."""
    events = [
        {
            "name": span[2],
            "ph": "X",
            "ts": round((span[3] - origin) * 1e6, 3),
            "dur": round(duration(span) * 1e6, 3),
            "pid": span[5],
            "tid": span[6],
            "args": {"id": span[0], "parent": span[1]},
        }
        for span in spans
    ]
    return {"traceEvents": events, "displayTimeUnit": "ms"}
