"""Reading in-process checkpoints written with several shards.

The in-process backend once split its driver across ``num_shards`` shards.
``fixtures/state_4shard_exact.json`` is a service checkpoint that code wrote
with four shards after the ops in
``fixtures/state_4shard_exact.expected.json`` (k=3, d=2, Δ=32, auto
guesses, ``workers=0``, a churn trace), which also records the answer it
gave.  The shards are linear sketches of one ``(params, seed)``, so restore
folds them into the one driver.
"""

from __future__ import annotations

import copy
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.core.io import read_json
from repro.service import (
    ClusteringService,
    ServiceClient,
    ServiceConfig,
    TenantRegistry,
    start_async_server,
)
from repro.service.state import (
    STATE_FORMAT_VERSION,
    streaming_state_to_dict,
    tenant_checkpoint_filename,
)

FIXTURES = Path(__file__).resolve().parent / "fixtures"


@pytest.fixture(scope="module")
def legacy():
    return read_json(FIXTURES / "state_4shard_exact.json")


@pytest.fixture(scope="module")
def expected():
    return json.loads((FIXTURES / "state_4shard_exact.expected.json").read_text())


def _answer(svc):
    result, _ = svc.query()
    return json.loads(json.dumps(result.to_dict()))


def test_fixture_is_a_four_shard_in_process_checkpoint(legacy):
    assert legacy["config"]["workers"] == 0
    assert legacy["config"]["num_shards"] == 4
    assert legacy["ingest"]["num_shards"] == 4


def test_loads_to_the_recorded_answer(legacy, expected):
    svc = ClusteringService.from_payload(copy.deepcopy(legacy))
    assert svc.ingest.events_per_shard == [sum(legacy["ingest"]["events_per_shard"])]
    assert _answer(svc) == expected["answer"]


def test_table_equals_a_one_driver_replay(legacy, expected):
    restored = ClusteringService.from_payload(copy.deepcopy(legacy))
    fresh = ClusteringService(ServiceConfig.from_dict(legacy["config"]))
    for op, rows in expected["ops"]:
        (fresh.insert if op == "insert" else fresh.delete)(np.asarray(rows))
    assert restored.config == fresh.config
    tables = [streaming_state_to_dict(s.ingest.driver)["table"]
              for s in (restored, fresh)]
    assert tables[0] == tables[1]
    assert _answer(restored) == _answer(fresh) == expected["answer"]


def test_recheckpoints_as_one_shard_with_summed_counters(legacy, expected):
    svc = ClusteringService.from_payload(copy.deepcopy(legacy))
    got = json.loads(json.dumps(svc.state_payload()))
    old = legacy["ingest"]
    new = got["ingest"]
    assert got["format_version"] == new["format_version"] == STATE_FORMAT_VERSION
    assert "num_shards" not in got["config"]
    assert new["num_shards"] == len(new["shards"]) == 1
    assert new["version"] == old["version"]
    assert new["events_per_shard"] == [sum(old["events_per_shard"])]
    assert new["num_insertions"] == old["num_insertions"]
    assert new["num_deletions"] == old["num_deletions"]
    assert got["counters"] == legacy["counters"]
    again = ClusteringService.from_payload(got)
    assert _answer(again) == expected["answer"]


def test_restores_on_touch_from_a_tenants_dir(expected, tmp_path):
    shutil.copy(FIXTURES / "state_4shard_exact.json",
                tmp_path / tenant_checkpoint_filename("default"))
    base = ServiceConfig(k=3, d=2, delta=32, seed=5)
    registry = TenantRegistry(base, tenants_dir=tmp_path)
    server, thread = start_async_server(registry)
    try:
        with ServiceClient(*server.address) as cli:
            answer = cli.query()
            stats = cli.stats()
    finally:
        server.shutdown()
        thread.join(10)
        registry.close(persist=False)
    answer.pop("cache_hit")
    assert answer == expected["answer"]
    assert stats["restores"] == 1
    assert stats["num_shards"] == 1
    assert stats["events_per_shard"] == [stats["events"]]
    assert stats["version"] == expected["answer"]["version"]
