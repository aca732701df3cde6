"""Where the traced run puts its spans: the public callables of each layer.

Layers are named after ``repro`` modules.  :func:`install` wraps, for the
lifetime of the process, the callables below in :class:`tracer.Tracer`
spans; hooks record the counts that belong at the same boundary.  Module
functions are re-pointed in every loaded ``repro`` module that imported
them by name, so ``from x import f`` call sites are traced too.

Span names (a ``.`` separated layer path) are what :mod:`layers` turns
into the per-layer metrics.
"""

from __future__ import annotations

import pickle
import sys
from typing import Any, Callable

from layers import CHIP_OPS
from tracer import Tracer


def _import_layers() -> None:
    """Import every module whose callables are wrapped (and their users)."""
    import repro.analysis.mitigation_study  # noqa: F401
    import repro.core.characterization  # noqa: F401
    import repro.core.first_flip  # noqa: F401
    import repro.experiments.remote  # noqa: F401
    import repro.service.worker  # noqa: F401


def _repoint(original: Callable, replacement: Callable) -> None:
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _defining_class(cls: type, attr: str) -> type:
    for klass in cls.__mro__:
        if attr in vars(klass):
            return klass
    raise AttributeError(f"{cls.__name__} has no attribute {attr!r}")


def _wrap_method(tracer: Tracer, cls: type, attr: str, name: Any, hook=None) -> None:
    owner = _defining_class(cls, attr)
    setattr(owner, attr, tracer.wrap(vars(owner)[attr], name, hook))


def install(tracer: Tracer) -> None:
    """Wrap every probed callable of ``repro`` in ``tracer`` spans."""
    _import_layers()
    from repro.dram.chip import DramChip
    from repro.experiments import executors
    from repro.experiments.session import ExperimentSession
    from repro.experiments.remote import ServiceExecutor
    from repro.experiments.store import ResultStore
    from repro.experiments.study import RegisteredStudy
    from repro.mitigations import registry
    from repro.service import protocol
    from repro.service.client import ServiceClient
    from repro.sim.batch import SimulationBatch
    from repro.sim.system import Simulation
    from repro.sim.workloads import WorkloadMix

    # experiments ------------------------------------------------------
    _wrap_method(tracer, ExperimentSession, "run", "experiments.session.run")
    _wrap_method(
        tracer, ResultStore, "get", "experiments.store.get",
        lambda result, *a, **k: tracer.count(
            "experiments.store.hits" if result is not None else "experiments.store.misses"
        ),
    )
    _wrap_method(
        tracer, ResultStore, "put", "experiments.store.put",
        lambda result, *a, **k: tracer.count("experiments.store.put_count"),
    )
    _wrap_method(tracer, RegisteredStudy, "merge_units", "experiments.merge")

    def count_tasks(_result, _executor, tasks, *a, **k):
        tracer.count(
            "experiments.executors.task_bytes", sum(len(pickle.dumps(task)) for task in tasks)
        )

    for cls in (executors.SerialExecutor, executors.ParallelExecutor, ServiceExecutor):
        cls.iter_outcomes = tracer.wrap_iterator(
            vars(cls)["iter_outcomes"], "experiments.executors.wait", count_tasks
        )
    execute_task = executors.execute_task
    _repoint(execute_task, tracer.wrap(execute_task, "experiments.executors.execute_task"))

    # sim ----------------------------------------------------------------
    def count_traces(result, *a, **k):
        tracer.count("sim.workloads.traces_built", len(result))

    _wrap_method(tracer, WorkloadMix, "build_traces", "sim.workloads.build_traces", count_traces)

    def count_sims(results, events_popped=0):
        tracer.count("sim.simulations", len(results))
        for result in results:
            tracer.count("sim.dram_cycles_simulated", result.dram_cycles)
            tracer.count(
                "sim.instructions_retired",
                sum(stats.instructions_retired for stats in result.core_stats),
            )
            tracer.count("sim.controller.demand_activates", result.controller_stats.demand_activates)
            tracer.count(
                "sim.controller.mitigation_refreshes", result.controller_stats.mitigation_refreshes
            )
        tracer.count("sim.events.popped", events_popped)

    def sim_name(simulation, *a, **k):
        mechanism = getattr(simulation.mitigation, "name", None)
        return f"sim.system.run.{mechanism or 'baseline'}"

    def after_sim(result, simulation, *a, **k):
        # A batch's fallback loop runs Simulations inside the batch span;
        # the batch hook counts those, so count only free-standing runs.
        if not tracer.inside("sim.batch.run"):
            count_sims([result], simulation.event_queue.stats.popped)

    _wrap_method(tracer, Simulation, "run", sim_name, after_sim)

    def after_batch(results, *a, **k):
        tracer.count("sim.batch.sims", len(results))
        count_sims(results)

    _wrap_method(tracer, SimulationBatch, "run", "sim.batch.run", after_batch)

    # mitigations ----------------------------------------------------------
    build = registry.build_mechanism
    _repoint(build, tracer.wrap(build, "mitigations.registry.build"))

    # dram -----------------------------------------------------------------
    for op in CHIP_OPS:
        _wrap_method(tracer, DramChip, op, f"dram.chip.{op}")

    # service ----------------------------------------------------------------
    def count_blob(result, *a, **k):
        tracer.count("service.protocol.blob_bytes", len(result))

    pack, unpack = protocol.pack_blob, protocol.unpack_blob
    _repoint(pack, tracer.wrap(pack, "service.protocol.pack_blob", count_blob))
    _repoint(unpack, tracer.wrap(unpack, "service.protocol.unpack_blob"))
    ServiceClient.events = tracer.wrap_iterator(vars(ServiceClient)["events"], "service.client.wait")
