"""Tests for the process-parallel ingest backend (repro.service.workers).

The load-bearing claim: every worker builds its shard from the shared
``(params, seed)`` and sees exactly the events the pool routes to it, in
order, so each shard is *bit-identical* to an in-process driver fed the
same routed events (:func:`tests.shard_oracle.routed_drivers`), down to
the serialized state bytes; and the pool's fold answers exactly as the
in-process :class:`ShardedIngest` that saw the whole stream.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import CoresetParams
from repro.core.io import read_json
from repro.data.synthetic import gaussian_mixture
from repro.data.workloads import churn_stream
from repro.service import (
    ClusteringService,
    ServiceConfig,
    ShardedIngest,
    WorkerPoolIngest,
    streaming_state_to_dict,
)
from repro.streaming import StreamingCoreset, materialize
from repro.streaming.stream import events_to_arrays
from tests.shard_oracle import routed_drivers, routed_state


@pytest.fixture(scope="module")
def world():
    """Small dynamic-stream instance: (stream, survivors, params)."""
    pts = np.unique(gaussian_mixture(900, 2, 64, k=3, seed=21), axis=0)
    stream = churn_stream(pts, delete_fraction=0.35, seed=4)
    survivors = materialize(stream, d=2)
    params = CoresetParams.practical(k=3, d=2, delta=64)
    return stream, survivors, params


def _canonical(state_dict: dict) -> str:
    return json.dumps(state_dict, sort_keys=True)


def _coreset_points(cs):
    return sorted(map(tuple, cs.points.tolist()))


class TestParallelDeterminism:
    def test_four_workers_bit_identical_to_inprocess(self, world):
        """4 worker processes == 4 in-process drivers fed the pool's
        routing, down to the serialized state bytes (same per-shard event
        order, same fold)."""
        stream, _, params = world
        rows, signs = events_to_arrays(stream, d=2)
        want_state = routed_state(params, rows, signs, 4, version=1, seed=9)
        with WorkerPoolIngest(params, num_workers=4, seed=9) as pool:
            assert pool.apply_batch(stream) == len(stream)
            assert pool.events_per_shard == want_state["events_per_shard"]
            pool_state = pool.to_state_dict()
            pool_merged = pool.merged_state()
        assert _canonical(pool_state) == _canonical(want_state)
        drivers, _ = routed_drivers(params, rows, signs, 4, seed=9)
        want = ShardedIngest.from_shards(drivers).driver
        assert (_canonical(streaming_state_to_dict(pool_merged))
                == _canonical(streaming_state_to_dict(want)))

    def test_workers_match_single_shard_exactly(self, world):
        """The merged pool equals one unsharded driver that saw everything
        (the Section 4.3 streaming↔distributed bridge, across processes)."""
        stream, _, params = world
        single = StreamingCoreset(params, seed=9)
        single.process(stream)
        want = single.finalize()
        with WorkerPoolIngest(params, num_workers=3, seed=9) as pool:
            pool.apply_batch(stream)
            got = pool.merged_state().finalize()
        assert got.o == want.o
        assert _coreset_points(got) == _coreset_points(want)
        assert np.allclose(np.sort(got.weights), np.sort(want.weights))

    def test_query_results_identical_across_backends(self, world):
        """The full service answer (centers, cost, chosen o) is bit-identical
        between workers=N and the in-process workers=0 configuration."""
        stream, _, _ = world
        with ClusteringService(
                ServiceConfig(k=3, d=2, delta=64, workers=4, seed=17)) as par, \
            ClusteringService(
                ServiceConfig(k=3, d=2, delta=64, workers=0,
                              seed=17)) as ser:
            par.apply_events(stream)
            ser.apply_events(stream)
            got, _ = par.query()
            want, _ = ser.query()
        assert np.array_equal(got.centers, want.centers)
        assert got.cost == want.cost
        assert got.o == want.o
        assert got.capacity == want.capacity
        assert got.coreset_size == want.coreset_size

    def test_single_event_apply_and_version(self, world):
        stream, _, params = world
        events = list(stream)[:5]
        with WorkerPoolIngest(params, num_workers=2, seed=3) as pool:
            idx = pool.apply(events[0].point, events[0].sign)
            assert idx == pool.shard_of(events[0].point)
            assert pool.version == 1 and pool.num_events == 1
            pool.apply_batch(events[1:])
            assert pool.version == 2 and pool.num_events == 5


class TestWorkerCheckpointRestore:
    def test_pool_checkpoint_restore_roundtrip(self, world, tmp_path):
        """Checkpoint a live pool mid-stream, restore into a fresh pool,
        keep ingesting both — indistinguishable from never having stopped."""
        stream, _, _ = world
        events = list(stream)
        half = len(events) // 2
        ckpt = tmp_path / "pool.ckpt.json"
        with ClusteringService(
                ServiceConfig(k=3, d=2, delta=64, workers=2, seed=17)) as svc:
            svc.apply_events(events[:half])
            info = svc.checkpoint(ckpt)
            assert info["events"] == half

            twin = ClusteringService.restore(ckpt)
            try:
                assert isinstance(twin.ingest, WorkerPoolIngest)
                assert twin.ingest.num_events == half
                svc.apply_events(events[half:])
                twin.apply_events(events[half:])
                want, _ = svc.query()
                got, _ = twin.query()
            finally:
                twin.close()
        assert np.array_equal(got.centers, want.centers)
        assert got.cost == want.cost and got.o == want.o

    def test_checkpoints_interchangeable_across_backends(self, world, tmp_path):
        """A pool checkpoint restores into the in-process backend (and gives
        the same answers) when its config asks for workers=0."""
        stream, _, _ = world
        ckpt = tmp_path / "pool.ckpt.json"
        with ClusteringService(
                ServiceConfig(k=3, d=2, delta=64, workers=2, seed=17)) as svc:
            svc.apply_events(stream)
            want, _ = svc.query()
            svc.checkpoint(ckpt)
        payload = read_json(ckpt)
        payload["config"]["workers"] = 0
        (tmp_path / "inproc.ckpt.json").write_text(json.dumps(payload))
        twin = ClusteringService.restore(tmp_path / "inproc.ckpt.json")
        assert isinstance(twin.ingest, ShardedIngest)
        # The two shards were folded into the one driver.
        assert (twin.ingest.num_shards, twin.ingest.num_events) == (1, len(stream))
        got, _ = twin.query()
        assert np.array_equal(got.centers, want.centers)
        assert got.cost == want.cost and got.o == want.o

    def test_restore_rejects_worker_count_mismatch(self, world, tmp_path):
        stream, _, _ = world
        ckpt = tmp_path / "pool.ckpt.json"
        with ClusteringService(
                ServiceConfig(k=3, d=2, delta=64, workers=2, seed=17)) as svc:
            svc.apply_events(list(stream)[:10])
            svc.checkpoint(ckpt)
        payload = read_json(ckpt)
        payload["config"]["workers"] = 3
        bad = tmp_path / "bad.ckpt.json"
        bad.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="workers"):
            ClusteringService.restore(bad)


class TestPoolRobustness:
    def test_malformed_batch_rejected_before_any_send(self, world):
        """One bad event rejects the whole batch — no worker sees anything,
        no version bump, so nothing can partially corrupt the sketches."""
        stream, _, params = world
        good = [(ev.point, ev.sign) for ev in list(stream)[:4]]
        with WorkerPoolIngest(params, num_workers=2, seed=3) as pool:
            with pytest.raises(ValueError, match=r"\[0, 64\]"):
                pool.apply_batch(good + [((1, -1), 1)])
            assert pool.version == 0 and pool.num_events == 0
            assert pool.merged_state().num_updates == 0
            # The pool is still healthy afterwards.
            assert pool.apply_batch(good) == 4
            assert pool.merged_state().num_updates == 4

    def test_close_is_idempotent_and_blocks_further_use(self, world):
        _, _, params = world
        pool = WorkerPoolIngest(params, num_workers=2, seed=3)
        pool.close()
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            pool.apply((3, 3), 1)

    def test_stats_extra_shape(self, world):
        stream, _, params = world
        with WorkerPoolIngest(params, num_workers=2, seed=3) as pool:
            pool.apply_batch(list(stream)[:20])
            extra = pool.stats_extra()
        assert extra["mode"] == "parallel"
        assert len(extra["workers"]) == 2
        assert sum(w["events"] for w in extra["workers"]) == 20
        assert all(w["batch_latency_s"] >= 0.0 for w in extra["workers"])
        assert extra["space_bits"] > 0
