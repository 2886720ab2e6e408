"""Chaos acceptance test: the full service stack under a seeded fault plan.

One seeded :class:`FaultPlan` drives the whole failure menagerie against a
live async server — ≥2 worker kills (one SIGKILL, one soft error-exit),
≥5 connection resets (replies dropped after execution, plus one request
dropped before execution), and ≥1 checkpoint write failure — while a
resilient client ingests a churn workload.  The acceptance bar is the
paper's linearity promise, end to end: the faulted service's final answers
and its *entire serialized sketch state* must be bit-identical to a
fault-free in-process reference fed the same logical stream, with no event
lost or double-counted anywhere along the way.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.data.synthetic import gaussian_mixture
from repro.data.workloads import churn_stream
from repro.service import (
    ClusteringService,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    TenantRegistry,
    faults,
    start_async_server,
)
from repro.service.faults import FaultPlan, FaultRule
from tests.shard_oracle import routed_state


def _canonical(d: dict) -> str:
    return json.dumps(d, sort_keys=True)


CHAOS_PLAN = FaultPlan([
    # ≥2 worker deaths, both shapes: one SIGKILL, one error-and-exit.
    FaultRule(point="worker.kill", mode="hard", after=2, times=1),
    FaultRule(point="worker.kill", mode="soft", after=9, times=1),
    # ≥5 connection resets: three replies dropped after the insert applied
    # (the double-count trap), one after a delete, one request dropped
    # before execution (the lost-event trap).
    FaultRule(point="server.reset", after=2, times=3, match={"op": "insert"}),
    FaultRule(point="server.reset", after=1, times=1, match={"op": "delete"}),
    FaultRule(point="server.reset", mode="pre", times=1, match={"op": "insert"}),
    # ≥1 checkpoint write failure mid-run.
    FaultRule(point="checkpoint.write", times=1),
], seed=2024)


@pytest.mark.slow
def test_chaos_run_is_bit_identical_to_fault_free_reference(tmp_path):
    pts = np.unique(gaussian_mixture(3000, 2, 256, k=3, seed=31), axis=0)
    stream = list(churn_stream(pts, delete_fraction=0.3, seed=8))
    ins_pts = np.asarray([e.point for e in stream if e.sign > 0])
    del_pts = np.asarray([e.point for e in stream if e.sign < 0])
    inserts = np.array_split(ins_pts, 14)
    deletes = np.array_split(del_pts, 4)
    assert all(len(c) >= 10 for c in inserts)
    assert all(len(c) >= 10 for c in deletes)

    config = ServiceConfig(k=3, d=2, delta=256, workers=2, seed=17)
    # Fault-free single-tenant reference: the in-process backend answers
    # exactly as the worker pool (test_service_parallel), so it is the
    # oracle for the ledger and the answer; the pool's shards must equal
    # in-process drivers fed its routing, byte for byte.
    reference = ClusteringService(
        ServiceConfig(k=3, d=2, delta=256, workers=0, seed=17))
    ops = ([(c, 1) for c in inserts[:8]] + [(c, -1) for c in deletes]
           + [(c, 1) for c in inserts[8:]])
    want_state = routed_state(
        config.make_params(), np.concatenate([c for c, _ in ops]),
        np.concatenate([np.full(len(c), s) for c, s in ops]), 2,
        version=len(ops), seed=17)

    faults.install(CHAOS_PLAN)
    registry = TenantRegistry(config)
    server, _ = start_async_server(registry)
    host, port = server.address
    ckpt = tmp_path / "mid-run.ckpt.json"
    final_ckpt = tmp_path / "final.ckpt.json"
    try:
        with ServiceClient(host, port, retries=5, backoff_s=0.01,
                           timeout=60.0) as cli:
            # Interleave: inserts, a mid-run checkpoint (whose first write
            # fails), deletes, more inserts.
            for chunk in inserts[:8]:
                assert cli.insert(chunk) == len(chunk)
                reference.insert(chunk)
            with pytest.raises(ServiceError, match="injected checkpoint"):
                cli.checkpoint(ckpt)
            assert not ckpt.exists()
            cli.checkpoint(ckpt)  # rule exhausted: the retry lands
            assert ckpt.exists()
            for chunk in deletes:
                assert cli.delete(chunk) == len(chunk)
                reference.delete(chunk)
            for chunk in inserts[8:]:
                assert cli.insert(chunk) == len(chunk)
                reference.insert(chunk)

            # The plan fired everything the acceptance bar demands.
            fires = CHAOS_PLAN.fire_counts()
            assert fires["worker.kill"] >= 2
            assert fires["server.reset"] >= 5
            assert fires["checkpoint.write"] >= 1

            # Perfect ledger: counters agree event for event.
            stats = cli.stats()
            ref_stats = reference.stats()
            for key in ("events", "insertions", "deletions", "live_points",
                        "version", "bytes_ingested"):
                assert stats[key] == ref_stats[key], key
            assert stats["events_per_shard"] == want_state["events_per_shard"]
            assert stats["restarts"] >= 2
            assert len(stats["recovery_events"]) >= 2
            assert stats["fault_plan"]["fire_counts"] == fires

            # Bit-identical sketches: the faulted service's checkpoint
            # carries exactly the fault-free serialized shard states.
            cli.checkpoint(final_ckpt)
            payload = json.loads(final_ckpt.read_text(encoding="utf-8"))
            assert _canonical(payload["ingest"]) == _canonical(want_state)

            # And identical answers: the solved clustering matches field
            # for field (same merged sketch, same seeded solver).
            got = cli.query()
            want, _ = reference.query()
            want = want.to_dict()
            for key in ("centers", "cost", "capacity", "coreset_size",
                        "o", "version"):
                assert got[key] == want[key], key
    finally:
        server.shutdown()
        registry.close()
        reference.close()
        faults.uninstall()
