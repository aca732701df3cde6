"""Cycle-level DDR4 memory-system simulator with an event-driven fast path.

This package replaces the paper's Ramulator + SPEC CPU2006 setup (Table 6)
with a pure-Python equivalent:

* :mod:`repro.sim.config` -- the simulated system configuration (Table 6).
* :mod:`repro.sim.timing` -- DDR4 timing parameters in DRAM-bus cycles.
* :mod:`repro.sim.requests` -- memory requests and their life cycle.
* :mod:`repro.sim.events` -- the indexed :class:`~repro.sim.events.EventQueue`
  (schedule / reschedule / cancel, deterministic FIFO tie-breaking) the
  event-driven run loop drains.
* :mod:`repro.sim.bank` -- per-bank and per-rank timing state machines.
* :mod:`repro.sim.controller` -- FR-FCFS memory controller with refresh and
  RowHammer-mitigation hooks, scheduling over indexed per-bank buckets.
* :mod:`repro.sim.core` -- the simple out-of-order-window core model.
* :mod:`repro.sim.trace` -- synthetic memory-access trace generation.
* :mod:`repro.sim.workloads` -- SPEC-like benchmark profiles and the 8-core
  workload mixes used in the evaluation.
* :mod:`repro.sim.metrics` -- weighted speedup and bandwidth-overhead metrics.
* :mod:`repro.sim.system` -- the top-level multi-core simulation harness.
* :mod:`repro.sim.batch` -- a group of independent simulations of one
  configuration, run one after another (the Figure 10 alone-IPC group).

Execution model
---------------
A :class:`~repro.sim.system.Simulation` runs in one of two bit-identical
step modes (the differential and golden suites enforce this per
mechanism):

* ``step_mode="cycle"`` -- the reference implementation ticks the controller
  and every core at every DRAM cycle, scheduling by scanning the request
  queues directly.  It is the oracle the fast path is validated against
  (``tests/sim/test_golden_trace.py``).
* ``step_mode="event"`` (default) -- the event-queue fast path, ~4-5x the
  oracle on the Figure 10 mixes (``BENCH_sim.json``).  All state
  changes happen at *events*: command issues, read-data completions,
  periodic refreshes, mitigation timers, and trace injections by the cores.
  The run loop is keyed on one :class:`~repro.sim.events.EventQueue`:

  - The **memory controller**'s horizon is the byproduct of its quiescent
    tick.  Scheduling state is *indexed*, not scanned: per-bank FIFOs,
    per-(bank, row) hit buckets and flat head-of-index sequence mirrors
    give the FR-FCFS choice (and, on a failed scan, the earliest future
    issue opportunity) in O(banks with work), with no queue scans.  Bank
    and rank timer changes are pushed into flat mirrors at mutation time
    (:meth:`~repro.sim.controller.MemoryController._sync_bank`) rather
    than re-polled, and the quiet-horizon cache is lowered incrementally
    when cores enqueue new work instead of being thrown away.
  - Every **core** owns a *wake entry* in the queue: a lower bound on the
    next cycle it could interact with the memory system.  Entries are
    revalidated lazily when they surface below a prospective jump target,
    so cores deep in bubble budgets or long stalls are not re-polled each
    step.  Blocked cores carry no entry at all; the controller's wake
    *channels* (write-queue pop, read-queue pop, per-core read completion)
    revive exactly the cores the wake can unblock.

  The loop jumps the clock to the earliest confirmed event and accounts the
  skipped span in bulk (exact CPU-debt replay; batched stall/bubble/drain
  core ticks; deferred-stall settling flushed before the completions that
  could change window retirement).  Every counter in the resulting
  :class:`~repro.sim.system.SimulationResult` is bit-identical to
  ``"cycle"`` mode; the golden regression suite enforces this for every
  mitigation mechanism.

How a mitigation registers a timer event
----------------------------------------
Mechanisms that act only inside ``on_activate``/``on_refresh`` need no
extra work: activations and refresh commands are already events.  A
mechanism that schedules autonomous work at cycles of its own choosing
(say, a background scrubber) overrides
:meth:`repro.mitigations.base.MitigationMechanism.register_events`, keeps
the :class:`~repro.sim.controller.MitigationEventPort` it receives, and
calls ``port.schedule_timer(cycle)``; the controller then dispatches
:meth:`~repro.mitigations.base.MitigationMechanism.on_timer` at that cycle
in **both** step modes and folds the timer into every event horizon, so the
fast-forward can never jump over it.  Re-arm the (one-shot) timer from
inside ``on_timer`` for periodic work.

The port is the only way to schedule autonomous work.  The controller
never polls a mechanism, so it raises ``TypeError`` at attach time for one
that defines a ``next_event_cycle`` method; that mechanism's timer would
otherwise be skipped without a word.

A mechanism stays event-compatible by interacting with the simulation only
through the hooks and the :class:`~repro.sim.controller.MitigationEventPort`
API (plus ``mitigation_busy_cycles`` accounting), and by never assuming the
controller is ticked on every cycle.

Vectorization
-------------
Numpy on one controller's 16 bank slots is slower than the scalar indexed
scan, and a sim-major kernel that stepped many simulations in lockstep only
beat the event loop at 64 simulations, a shape no caller builds.  It was
removed; ``docs/kernel_spike.md`` records the measurements.
"""

from repro.sim.config import SystemConfig
from repro.sim.timing import DramTimings, DDR4_2400
from repro.sim.requests import MemoryRequest, RequestType
from repro.sim.events import EventQueue, EventQueueStats, NEVER
from repro.sim.controller import ControllerStats, MemoryController, MitigationEventPort
from repro.sim.core import SimpleCore
from repro.sim.trace import SyntheticTraceGenerator, TraceRecord
from repro.sim.workloads import BenchmarkProfile, SPEC_LIKE_BENCHMARKS, make_workload_mixes
from repro.sim.metrics import weighted_speedup, normalized_performance
from repro.sim.system import Simulation, SimulationResult

__all__ = [
    "SystemConfig",
    "DramTimings",
    "DDR4_2400",
    "MemoryRequest",
    "RequestType",
    "EventQueue",
    "EventQueueStats",
    "NEVER",
    "MemoryController",
    "ControllerStats",
    "MitigationEventPort",
    "SimpleCore",
    "SyntheticTraceGenerator",
    "TraceRecord",
    "BenchmarkProfile",
    "SPEC_LIKE_BENCHMARKS",
    "make_workload_mixes",
    "weighted_speedup",
    "normalized_performance",
    "Simulation",
    "SimulationResult",
]
