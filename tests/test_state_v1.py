"""Reading format-1 checkpoints (one exact Storing per guess, level and
sub-stream) into the live-table driver.

``fixtures/state_v1_exact.json`` is a service checkpoint written by the
format-1 code after the ops in ``fixtures/state_v1_exact.expected.json``
(k=3, d=2, Δ=32, one shard, auto guesses), which also records the answer
that code gave.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.io import read_json
from repro.service import ClusteringService, ServiceConfig
from repro.service.state import STATE_FORMAT_VERSION, streaming_state_to_dict

FIXTURES = Path(__file__).resolve().parent / "fixtures"


@pytest.fixture(scope="module")
def v1():
    return read_json(FIXTURES / "state_v1_exact.json")


@pytest.fixture(scope="module")
def expected():
    return json.loads((FIXTURES / "state_v1_exact.expected.json").read_text())


def _answer(svc):
    result, _ = svc.query()
    return json.loads(json.dumps(result.to_dict()))


def test_v1_loads_to_the_recorded_answer(v1, expected):
    assert v1["format_version"] == 1
    svc = ClusteringService.from_payload(copy.deepcopy(v1))
    assert _answer(svc) == expected["answer"]


def test_v1_table_equals_a_fresh_v2_replay(v1, expected):
    restored = ClusteringService.from_payload(copy.deepcopy(v1))
    fresh = ClusteringService(ServiceConfig.from_dict(v1["config"]))
    for op, rows in expected["ops"]:
        (fresh.insert if op == "insert" else fresh.delete)(np.asarray(rows))
    got = restored.state_payload()
    assert got["format_version"] == STATE_FORMAT_VERSION == 2
    tables = [streaming_state_to_dict(s.ingest.driver)["table"]
              for s in (restored, fresh)]
    assert tables[0] == tables[1]
    assert _answer(restored) == _answer(fresh) == expected["answer"]
    # Re-checkpointed as format 2, it round-trips to the same answer.
    again = ClusteringService.from_payload(json.loads(json.dumps(got)))
    assert _answer(again) == expected["answer"]


def test_v1_without_a_phi_one_store_is_refused(v1):
    from repro.core.io import params_from_dict

    broken = copy.deepcopy(v1)
    shard = broken["ingest"]["shards"][0]
    params = params_from_dict(shard["params"])
    hit = 0
    for rec in shard["instances"]:
        if any(params.phi(i, rec["o"]) >= 1.0 for i in range(params.L + 1)):
            rec["dead_reason"] = "killed mid-stream"
            hit += 1
    assert hit
    with pytest.raises(ValueError, match="phi=1"):
        ClusteringService.from_payload(broken)


def test_unknown_format_still_refused(v1):
    bad = copy.deepcopy(v1)
    bad["format_version"] = 999
    with pytest.raises(ValueError, match="format"):
        ClusteringService.from_payload(bad)
