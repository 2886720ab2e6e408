"""Fleet subsystem tests: merge laws, wire ops, and real multi-process runs.

Three layers, cheapest first:

- **Merge properties** (hypothesis): the coordinator fan-in is addition of
  linear sketches, so merging ``s`` site states must be associative,
  site-permutation-independent, and bit-identical to a single process that
  ingested the concatenated stream — for random and adversarially skewed
  partitions, with and without deletions.
- **Wire ops**: ``pull_state`` / ``site_stats`` round-trip over the wire,
  and the pulled envelope is byte-identical to a local ``state_payload``.
- **Real fleet**: `run_fleet` spawns actual ``repro serve`` subprocesses;
  the merged state, the query answer, and the metered wire bits must all
  match the in-process reference/simulation — including after an injected
  ``site.kill`` with checkpoint + journal-replay recovery.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributed.fleet import (
    REQUEST_BITS,
    Coordinator,
    SITE_STATS_FIELDS,
    merge_sharded,
    plan_site_ops,
    pull_state_bits,
    run_fleet,
    simulate_fleet,
)
from repro.distributed.fleet import _merged_state_json, _reference_service
from repro.service import (
    ClusteringService,
    ServiceClient,
    ServiceConfig,
    TenantRegistry,
    start_async_server,
)
from repro.service import faults
from repro.service.faults import FaultPlan, FaultRule
from repro.service.state import (
    shard_drivers_from_dict,
    sharded_state_from_dict,
    streaming_state_to_dict,
)
from repro.streaming.merge import merge_many
from repro.utils.bits import float_bits

# Cheap in-process shape: 4 guess instances, sub-100ms per service.
CHEAP = dict(k=2, d=2, delta=32, seed=11,
             o_range=(1.0, 8.0), restarts=1)

# Real-fleet shape: no o_range (the serve CLI cannot express it, so
# spawned sites always run the auto-pilot guess schedule).
FLEET = dict(k=2, d=2, delta=32, seed=7, restarts=1)


def _site_states(config: ServiceConfig, site_ops) -> list[dict]:
    """Per-site ingest state dicts (the pull_state payloads, in-process)."""
    states = []
    for ops in site_ops:
        svc = ClusteringService(dataclasses.replace(config, workers=0))
        for op, rows in ops:
            (svc.insert if op == "insert" else svc.delete)(rows)
        states.append(svc.ingest.to_state_dict())
        svc.close()
    return states


def _canon(ingest) -> str:
    return json.dumps(ingest.to_state_dict(), sort_keys=True,
                      separators=(",", ":"))


def _fold(states, order) -> str:
    """Left fold of the site states in ``order``; canonical JSON result."""
    return _canon(merge_sharded(
        [sharded_state_from_dict(states[i]) for i in order]))


@st.composite
def fleet_plan(draw):
    """A small fleet workload: points, a partition, per-site batches."""
    n = draw(st.integers(min_value=16, max_value=48))
    s = draw(st.integers(min_value=2, max_value=4))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    mode = draw(st.sampled_from(["random", "skewed"]))
    delete_fraction = draw(st.sampled_from([0.0, 0.25]))
    rng = np.random.default_rng(seed)
    pts = rng.integers(0, CHEAP["delta"] + 1, size=(n, 2))
    ops = plan_site_ops(pts, s, seed=seed, mode=mode, batch_size=7,
                        delete_fraction=delete_fraction)
    perm = draw(st.permutations(range(s)))
    return ops, list(perm)


class TestMergeProperties:
    """Satellite: streaming/merge.py under fleet conditions."""

    @given(fleet_plan())
    @settings(max_examples=12, deadline=None)
    def test_merge_is_order_free_and_matches_unsharded(self, plan):
        ops, perm = plan
        cfg = ServiceConfig(**CHEAP)
        states = _site_states(cfg, ops)
        identity = list(range(len(states)))

        # Site-permutation independence (commutativity of sketch addition).
        merged = _fold(states, identity)
        assert _fold(states, perm) == merged

        # Associativity: right fold equals the left fold.
        acc = sharded_state_from_dict(states[-1])
        for i in reversed(identity[:-1]):
            acc = merge_sharded([sharded_state_from_dict(states[i]), acc])
        assert _canon(acc) == merged

        # Bit-identical to one process fed the concatenated stream.
        reference = _reference_service(cfg, ops)
        assert merged == _merged_state_json(reference)
        reference.close()

    @given(fleet_plan())
    @settings(max_examples=8, deadline=None)
    def test_merge_many_drivers_match_reference_shard(self, plan):
        """merge_many at the StreamingCoreset layer: summing the site
        drivers equals the driver of the single-process reference."""
        ops, perm = plan
        cfg = ServiceConfig(**CHEAP)
        states = _site_states(cfg, ops)
        drivers = [sharded_state_from_dict(states[i]).driver for i in perm]
        merged = merge_many(drivers)
        reference = _reference_service(cfg, ops)
        ref_shard = reference.ingest.driver
        assert json.dumps(streaming_state_to_dict(merged), sort_keys=True) == \
            json.dumps(streaming_state_to_dict(ref_shard), sort_keys=True)
        assert merged.num_updates == ref_shard.num_updates
        reference.close()


class TestWireOps:
    """pull_state / site_stats round-trip through the server."""

    def _workload(self, n=40):
        rng = np.random.default_rng(5)
        return rng.integers(0, CHEAP["delta"] + 1, size=(n, 2))

    def test_async_pull_state_is_the_checkpoint_envelope(self):
        cfg = ServiceConfig(**CHEAP)
        reg = TenantRegistry(cfg)
        server, _ = start_async_server(reg)
        host, port = server.address
        pts = self._workload()
        try:
            with ServiceClient(host, port) as cli:
                cli.insert(pts, batch_size=16)
                state = cli.pull_state()
                site = cli.site_stats()
        finally:
            server.shutdown()
            reg.close(persist=False)
        reference = ClusteringService(cfg)
        reference.insert(pts[:16]); reference.insert(pts[16:32])
        reference.insert(pts[32:])
        expected = reference.state_payload()
        got = dict(state)
        got.pop("tenant", None)  # registry stamps tenant metadata
        assert json.dumps(got, sort_keys=True) == \
            json.dumps(expected, sort_keys=True)
        assert tuple(sorted(site)) == tuple(sorted(
            SITE_STATS_FIELDS + ("stream_id",)))
        assert site["events"] == len(pts)
        assert site["num_shards"] == 1
        reference.close()
        # The pulled envelope is a complete checkpoint: it restores as is.
        restored = ClusteringService.from_payload(state)
        assert restored.ingest.num_events == len(pts)
        restored.close()

    def test_pull_state_bits_policy_is_structural(self):
        """The charge depends on sketch structure, not JSON encoding."""
        cfg = ServiceConfig(**CHEAP)
        svc = ClusteringService(cfg)
        svc.insert(self._workload(16))
        shards = shard_drivers_from_dict(svc.ingest.to_state_dict())
        assert pull_state_bits(shards) == \
            svc.ingest.space_bits() + float_bits(3 + 1)
        assert REQUEST_BITS == 16
        svc.close()

    def test_coordinator_folds_a_worker_pool_site(self):
        """A site running worker processes sends one shard per worker: the
        coordinator charges each shard as sent, then folds them into the
        site's one driver, which answers like an in-process site."""
        cfg = ServiceConfig(**CHEAP)
        reg = TenantRegistry(dataclasses.replace(cfg, workers=2))
        server, _ = start_async_server(reg)
        pts = self._workload()
        try:
            with ServiceClient(*server.address) as cli:
                cli.insert(pts, batch_size=16)
                cli.delete(pts[:8])
                sent = shard_drivers_from_dict(cli.pull_state()["ingest"])
            with Coordinator([server.address]) as coord:
                merged = coord.merged_service()
                bits = coord.network.uplink_bits
        finally:
            server.shutdown()
            reg.close(persist=False)
        assert len(sent) == 2
        assert bits == pull_state_bits(sent)
        reference = ClusteringService(cfg)
        for lo in range(0, len(pts), 16):
            reference.insert(pts[lo: lo + 16])
        reference.delete(pts[:8])
        try:
            assert (merged.ingest.num_shards, merged.ingest.num_events) == (
                1, len(pts) + 8)
            assert (streaming_state_to_dict(merged.ingest.driver)["table"]
                    == streaming_state_to_dict(reference.ingest.driver)["table"])
            assert merged.query()[0].to_dict() == reference.query()[0].to_dict()
        finally:
            merged.close()
            reference.close()


@pytest.mark.slow
class TestRealFleet:
    """End-to-end over real subprocesses (the acceptance criterion)."""

    def _points(self, n=140):
        rng = np.random.default_rng(2)
        return rng.integers(0, FLEET["delta"] + 1, size=(n, 2))

    def test_fleet_bit_identity_and_accounting(self, tmp_path):
        report = run_fleet(ServiceConfig(**FLEET), self._points(),
                           num_sites=2, batch_size=24,
                           delete_fraction=0.2, checkpoint_every=2,
                           workdir=tmp_path)
        assert report["state_identical"]
        assert report["answer_identical"]
        assert report["bits_match_simulation"]
        assert report["passed"]
        assert report["recoveries"] == 0
        assert report["uplink_bits"] == report["sim_uplink_bits"] > 0

    def test_fleet_survives_site_kill(self, tmp_path):
        faults.install(FaultPlan([FaultRule(point="site.kill",
                                            match={"site": 1},
                                            after=1, times=1)], seed=3))
        try:
            report = run_fleet(ServiceConfig(**FLEET), self._points(),
                               num_sites=2, batch_size=24,
                               delete_fraction=0.2, checkpoint_every=2,
                               workdir=tmp_path)
        finally:
            faults.uninstall()
        assert report["recoveries"] == 1
        assert report["restarts"] == 1
        assert report["state_identical"]
        assert report["answer_identical"]
        assert report["bits_match_simulation"]
        assert report["passed"]
