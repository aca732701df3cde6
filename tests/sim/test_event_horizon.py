"""Unit tests for the event-horizon API of the event-driven fast path.

``BankState``, ``RankState``, ``MemoryController`` and ``SimpleCore`` each
expose a ``next_event_cycle`` horizon; the simulation loop jumps the clock
to the minimum.  A horizon that undershoots merely costs a wasted wake-up; a
horizon that overshoots would skip an event and corrupt results, so these
tests pin the exact values for known component states.
"""

import pytest

from repro.sim.bank import BankState, RankState
from repro.sim.config import SystemConfig
from repro.sim.controller import MemoryController
from repro.sim.core import NEVER, SimpleCore
from repro.sim.requests import MemoryRequest, RequestType
from repro.sim.timing import DDR4_2400
from repro.sim.trace import TraceRecord


@pytest.fixture
def system() -> SystemConfig:
    return SystemConfig(cores=2, banks=4, rows_per_bank=256, read_queue_depth=8, write_queue_depth=8)


def read_request(bank, row):
    return MemoryRequest(request_type=RequestType.READ, bank=bank, row=row)


class TestBankHorizon:
    def test_closed_bank_horizon_is_activate_timer(self):
        bank = BankState(DDR4_2400)
        bank.activate(0, 5)
        bank.precharge(DDR4_2400.tras)
        assert bank.open_row is None
        assert bank.next_event_cycle() == bank.next_activate

    def test_open_bank_horizon_is_earliest_command(self):
        bank = BankState(DDR4_2400)
        bank.activate(0, 5)
        expected = min(bank.next_precharge, bank.next_read, bank.next_write)
        assert bank.next_event_cycle() == expected
        # Directly after ACT the column timers (tRCD) expire before tRAS.
        assert bank.next_event_cycle() == DDR4_2400.trcd

    def test_rank_next_activate_includes_tfaw(self):
        rank = RankState(DDR4_2400)
        for cycle in (0, 6, 12, 18):  # tRRD_L apart, all inside the tFAW window
            assert rank.can_activate(cycle)
            rank.record_activate(cycle)
        # Four activates in the window: the fifth waits for the oldest to age out.
        assert rank.next_activate_cycle() == 0 + DDR4_2400.tfaw
        assert not rank.can_activate(DDR4_2400.tfaw - 1)
        assert rank.can_activate(DDR4_2400.tfaw)

    def test_rank_data_bus_ready_cycle(self):
        rank = RankState(DDR4_2400)
        rank.occupy_data_bus(100)
        ready = rank.data_bus_ready_cycle()
        assert not rank.can_use_data_bus(ready - 1)
        assert rank.can_use_data_bus(ready)


class TestControllerHorizon:
    def test_idle_controller_horizon_is_next_refresh(self, system):
        controller = MemoryController(system)
        assert controller.next_event_cycle(0) == system.timings.trefi

    def test_queued_request_bounds_horizon(self, system):
        controller = MemoryController(system)
        controller.enqueue(read_request(0, 5), cycle=0)
        # A fresh bank can activate immediately: the horizon is the next cycle.
        assert controller.next_event_cycle(0) == 1

    def test_pending_completion_bounds_horizon(self, system):
        controller = MemoryController(system)
        controller.enqueue(read_request(0, 5), cycle=0)
        cycle = 0
        while not controller._pending_completions:
            controller.tick(cycle)
            cycle += 1
        done_cycle = controller._pending_completions[0][0]
        assert controller.earliest_completion_cycle == done_cycle
        assert controller.next_event_cycle(cycle) <= done_cycle

    def test_quiescent_tick_returns_valid_horizon(self, system):
        """The fused tick's horizon byproduct must match the standalone oracle
        and the next actual event."""
        controller = MemoryController(system)
        controller.enqueue(read_request(0, 5), cycle=0)
        cycle = 0
        checked = 0
        while cycle < 600:
            horizon = controller.tick(cycle)
            if horizon is None:
                cycle += 1
                continue
            # The byproduct agrees with the standalone computation...
            assert horizon == controller.next_event_cycle(cycle)
            # ...and jumping to it hits an event or a legal no-op boundary:
            # no cycle strictly between may contain an event, which the
            # reference scheduler would expose as a state change.
            assert horizon > cycle
            checked += 1
            cycle = horizon
        assert checked > 0

    def test_never_overshoots_an_issue(self, system):
        """Ticking at the horizon must find work if the quiescent scan
        promised it (otherwise events would starve)."""
        controller = MemoryController(system)
        for row in (5, 9, 5, 13):
            controller.enqueue(read_request(0, row), cycle=0)
        cycle = 0
        while cycle < 2_000 and controller.stats.reads_serviced < 4:
            horizon = controller.tick(cycle)
            cycle = cycle + 1 if horizon is None else horizon
        assert controller.stats.reads_serviced == 4


class TestCoreHorizon:
    def make_core(self, system, records, controller=None):
        controller = controller or MemoryController(system)
        return SimpleCore(0, records, system, controller), controller

    def test_bubble_rich_core_reports_safe_span(self, system):
        records = [TraceRecord(10_000, 0, 1, 0, False)]
        core, _controller = self.make_core(system, records)
        horizon = core.next_event_cycle(0)
        safe_ticks = 10_000 // system.issue_width
        assert horizon == 1 + safe_ticks // core._max_ticks_per_cycle
        assert horizon > 1

    def test_issuing_core_reports_next_cycle(self, system):
        records = [TraceRecord(0, 0, 1, 0, False)]
        core, _controller = self.make_core(system, records)
        assert core.next_event_cycle(0) == 1

    def test_queue_blocked_core_reports_never(self, system):
        records = [TraceRecord(0, 0, 1, 0, False)]
        core, controller = self.make_core(system, records)
        for index in range(system.read_queue_depth):
            controller.enqueue(read_request(0, index), cycle=0)
        assert core.next_event_cycle(0) == NEVER

    def test_blocked_core_with_leftover_bubbles_reports_never(self, system):
        """Bubble retirement never touches the controller, so a blocked
        record makes the whole core quiescent even mid-bubble."""
        records = [TraceRecord(7, 0, 1, 0, False)]
        core, controller = self.make_core(system, records)
        for index in range(system.read_queue_depth):
            controller.enqueue(read_request(0, index), cycle=0)
        assert core._bubbles_remaining > 0
        assert core.next_event_cycle(0) == NEVER

    def test_fast_tick_declines_interacting_core(self, system):
        """A core that would reach an issuable memory request must be ticked
        exactly (fast_tick returns None and applies nothing)."""
        records = [TraceRecord(3, 0, 1, 0, False)]
        core, _controller = self.make_core(system, records)
        assert core.fast_tick(3) is None
        assert core.stats.cpu_cycles == 0

    def test_fast_tick_bubble_equivalence(self, system):
        records = [TraceRecord(100, 0, 1, 0, False)]
        batched, _c1 = self.make_core(system, records)
        exact, _c2 = self.make_core(system, records)
        assert batched.fast_tick(3) == "bubble"
        for _ in range(3):
            exact.tick(0)
        assert batched.stats == exact.stats
        assert batched._bubbles_remaining == exact._bubbles_remaining

    def test_fast_tick_stall_and_drain_equivalence(self, system):
        for bubbles in (0, 7):
            records = [TraceRecord(bubbles, 0, 1, 0, False)]
            batched, controller_a = self.make_core(system, records)
            exact, controller_b = self.make_core(system, records)
            for controller in (controller_a, controller_b):
                for index in range(system.read_queue_depth):
                    controller.enqueue(read_request(0, index), cycle=0)
            ticks = 4
            mode = batched.fast_tick(ticks)
            assert mode == ("drain" if bubbles else "stall")
            for _ in range(ticks):
                exact.tick(0)
            assert batched.stats == exact.stats
            assert batched._bubbles_remaining == exact._bubbles_remaining


class TestMitigationTimerHook:
    def test_autonomous_timer_bounds_horizon(self, system):
        """A mechanism with its own timer must cap the controller horizon."""
        from repro.mitigations.base import MitigationConfig, MitigationMechanism

        class TimerMechanism(MitigationMechanism):
            name = "timer"

            def on_activate(self, bank, row, cycle):
                return []

            def register_events(self, port):
                port.schedule_timer(17)

        mechanism = TimerMechanism(
            MitigationConfig(hcfirst=1_000, banks=system.banks, rows_per_bank=system.rows_per_bank)
        )
        controller = MemoryController(system, mitigation=mechanism)
        assert controller.next_event_cycle(0) == 17
        horizon = controller.tick(0)
        assert horizon == 17

    def test_default_mechanisms_have_no_autonomous_timer(self, system):
        from repro.mitigations.base import MitigationConfig
        from repro.mitigations.registry import available_mechanisms, build_mechanism

        for name in available_mechanisms():
            mechanism = build_mechanism(
                name,
                MitigationConfig(
                    hcfirst=50_000, banks=system.banks, rows_per_bank=system.rows_per_bank
                ),
            )
            controller = MemoryController(system, mitigation=mechanism)
            assert controller._mitigation_timer == NEVER
