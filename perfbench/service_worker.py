"""Service worker entry point of the benchmark.

Starts a :class:`repro.service.ServiceWorker` against the benchmark's
scheduler.  With ``--trace-dir`` it first wraps the probed callables, so
the worker's unit, blob and chip spans land in ``spans-<pid>.jsonl`` there
(flushed after every outermost span, since the worker may be stopped
between units).  It exits when the scheduler goes away.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

#: The name the worker registers under; ``rep.py`` looks it up in the
#: scheduler's status.
WORKER_NAME = "perfbench-worker"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--host", required=True)
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--trace-dir", type=Path, default=None)
    args = parser.parse_args()

    if args.trace_dir is not None:
        import probes
        from tracer import Tracer

        probes.install(Tracer(args.trace_dir, flush_each_root=True))

    from repro.service import ServiceWorker

    ServiceWorker(args.host, args.port, name=WORKER_NAME).run()
    return 0


if __name__ == "__main__":
    sys.exit(main())
