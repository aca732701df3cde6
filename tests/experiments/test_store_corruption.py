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

An entry pickled under an older class layout (here the frozen-dataclass
``BitFlip`` that preceded the tuple-backed one) fails to load the same
way and takes the same path: a counted miss and a re-execution.
"""

from __future__ import annotations

import dataclasses
import pickle
import tempfile

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.core import hammer
from repro.core.characterization import CharacterizationConfig
from repro.dram.geometry import ChipGeometry
from repro.dram.population import make_population
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


@dataclasses.dataclass(frozen=True)
class _DataclassBitFlip:
    """Stand-in for the frozen-dataclass ``BitFlip`` older stores pickled."""

    bank: int
    row: int
    bit_index: int
    offset_from_victim: int
    expected_bit: int
    observed_bit: int


_DataclassBitFlip.__module__ = hammer.BitFlip.__module__
_DataclassBitFlip.__qualname__ = _DataclassBitFlip.__name__ = hammer.BitFlip.__qualname__


class TestStaleLayoutEntries:
    CHAR_STUDY = "alg1-characterization"
    CHAR_CONFIG = CharacterizationConfig(hammer_counts=(150_000,))

    def chips(self):
        return make_population(
            chips_per_config=1,
            seed=4,
            geometry=ChipGeometry(banks=1, rows_per_bank=48, row_bytes=32),
            configurations=[("DDR4-new", "A")],
        )

    def run_char(self, root=None):
        store = ResultStore(root)
        session = ExperimentSession(self.chips(), executor=SerialExecutor(), store=store, seed=4)
        return store, session.run(self.CHAR_STUDY, self.CHAR_CONFIG)

    def test_dataclass_bitflip_entry_is_a_counted_miss(self, monkeypatch):
        _, fresh = self.run_char()
        with tempfile.TemporaryDirectory() as root:
            self.run_char(root)
            (entry,) = ResultStore(root).entry_paths(self.CHAR_STUDY, units_only=True)
            cached = pickle.loads(entry.read_bytes())
            records = cached.payload.records
            assert sum(len(record.flips) for record in records) > 0
            for record in records:
                record.flips = tuple(_DataclassBitFlip(*flip) for flip in record.flips)
            # Pickle resolves classes by module and qualname, so the stand-in
            # must be what ``repro.core.hammer.BitFlip`` names while dumping.
            monkeypatch.setattr(hammer, "BitFlip", _DataclassBitFlip)
            entry.write_bytes(pickle.dumps(cached))
            monkeypatch.undo()
            with pytest.raises(TypeError):
                pickle.loads(entry.read_bytes())

            store, rerun = self.run_char(root)
            assert store.stats.corrupt == 1 and store.stats.misses == 1
            assert rerun.executed == 1
            assert entry.with_name(entry.name + ResultStore.CORRUPT_SUFFIX).exists()
            assert rerun.payloads() == fresh.payloads()
            assert repr(rerun.payloads()) == repr(fresh.payloads())
