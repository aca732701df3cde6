"""ResultStore.get on unreadable entries: a counted miss, renamed aside.

A store entry that is truncated, garbage, or unpickles to something other
than a result of its key's study must never crash a session.  The store
counts it as a miss (and in ``stats.corrupt``), renames it to
``<name>.corrupt``, and the session re-executes the unit, so the rerun's
merged payload equals the original run's.

Without checksum framing, a bit flip inside string or number data can
still unpickle to a *different* result of the same study; the store cannot
tell it from a good entry, so the bit-flip property below holds exactly for
the flips that leave the entry unreadable.
"""

from __future__ import annotations

import pickle
import tempfile

from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.experiments import ExperimentSession, ResultStore, SerialExecutor
from repro.service.selftest import ServiceSelfTestConfig

STUDY = "service-selftest"
CONFIG = ServiceSelfTestConfig(units=3, rounds=5)


def run(root):
    store = ResultStore(root)
    result = ExperimentSession(executor=SerialExecutor(), store=store).run(STUDY, CONFIG)
    return store, result


def unit_entries(root):
    return ResultStore(root).entry_paths(STUDY, units_only=True)


def assert_reexecuted(root, entry, store, result, reference):
    assert result.single() == reference
    assert result.executed == 1
    assert store.stats.corrupt == 1
    assert store.stats.misses == 1
    assert entry.with_name(entry.name + ResultStore.CORRUPT_SUFFIX).exists()
    # The re-executed unit was written back as a fresh, readable entry.
    replay_store, replay = run(root)
    assert replay.single() == reference
    assert replay.executed == 0 and replay_store.stats.corrupt == 0


class TestCorruptUnitEntries:
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_truncated_entry_is_reexecuted(self, data):
        with tempfile.TemporaryDirectory() as root:
            _, original = run(root)
            entry = data.draw(st.sampled_from(unit_entries(root)))
            raw = entry.read_bytes()
            entry.write_bytes(raw[: data.draw(st.integers(0, len(raw) - 1))])
            store, result = run(root)
            assert_reexecuted(root, entry, store, result, original.single())

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_bit_flipped_entry_never_crashes(self, data):
        with tempfile.TemporaryDirectory() as root:
            _, original = run(root)
            entry = data.draw(st.sampled_from(unit_entries(root)))
            raw = bytearray(entry.read_bytes())
            offset = data.draw(st.integers(0, len(raw) - 1))
            raw[offset] ^= 1 << data.draw(st.integers(0, 7))
            entry.write_bytes(bytes(raw))
            store, result = run(root)
            if store.stats.corrupt:
                event("flip left the entry unreadable")
                assert_reexecuted(root, entry, store, result, original.single())
            else:
                event("flip still unpickles to a result of the study")

    def test_garbage_and_foreign_objects_are_misses(self):
        with tempfile.TemporaryDirectory() as root:
            _, original = run(root)
            first, second = unit_entries(root)[:2]
            first.write_bytes(b"not a pickle at all")
            second.write_bytes(pickle.dumps({"study": STUDY}))
            store, result = run(root)
            assert result.single() == original.single()
            assert result.executed == 2
            assert store.stats.corrupt == 2 and store.stats.misses == 2
