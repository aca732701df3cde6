"""Golden digests of the merged chip-study payloads.

The digests hash ``repr`` of every merged payload, the recipe of
``payload_digest`` in ``perfbench/workloads.py``, on a two-chip population
(one DDR4 chip without and one LPDDR4 chip with on-die ECC).  ``repr`` is
exact for these payloads, so any change to a payload value *or* to how a
record prints -- e.g. a numpy scalar leaking into a ``BitFlip`` field and
printing as ``np.int64(5)`` -- moves a digest.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.dram.geometry import ChipGeometry
from repro.dram.population import make_population
from repro.experiments import ExperimentSession

GOLDEN = {
    "fig8-hcfirst": "03e142a520758f66b20c7f445207d06bb8a8942b62ac3ac6d21b6517de50d8d2",
    "alg1-characterization": "4c2cabca9201ae5463692e3c11af436e8e2652e989c23d6c5b6bc91026c2abab",
}


def payload_digest(outcome) -> str:
    sha = hashlib.sha256()
    sha.update(outcome.study.encode())
    for payload in outcome.payloads():
        sha.update(repr(payload).encode())
    return sha.hexdigest()


@pytest.fixture(scope="module")
def session():
    population = make_population(
        chips_per_config=1,
        seed=3,
        geometry=ChipGeometry(banks=1, rows_per_bank=48, row_bytes=32),
        configurations=[("DDR4-new", "A"), ("LPDDR4-1y", "C")],
    )
    return ExperimentSession(population, seed=3)


@pytest.mark.parametrize("study", sorted(GOLDEN))
def test_merged_payload_digest_is_pinned(session, study):
    outcome = session.run(study)
    assert len(outcome.payloads()) == 2
    assert payload_digest(outcome) == GOLDEN[study]

