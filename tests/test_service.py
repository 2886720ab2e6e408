"""Tests for the long-lived clustering service (repro.service).

Covers the three load-bearing claims of the subsystem:

1. sharding is *exact* — N drivers built with shared randomness merge to the
   state of one driver that saw the whole stream, even when deletions land
   on a different shard than their insertions;
2. checkpoint/restore is *bit-identical* — a restored driver finalizes to
   the same coreset and can keep ingesting in lockstep with the original;
3. the wire service end-to-end: ingest over TCP, query quality vs the
   offline pipeline, checkpoint → kill → restore → identical answers, and
   the version-keyed query cache observable through ``stats``.
"""

from __future__ import annotations

import json
import socket
import subprocess
import sys
from contextlib import contextmanager

import numpy as np
import pytest

from repro.core import CoresetParams, build_coreset_auto
from repro.core.io import (
    atomic_write_json,
    load_streaming_state,
    read_json,
    save_streaming_state,
)
from repro.data.synthetic import gaussian_mixture
from repro.data.workloads import churn_stream
from repro.metrics.costs import capacitated_cost
from repro.service import (
    ClusteringService,
    ServiceClient,
    ServiceConfig,
    ShardedIngest,
    TenantRegistry,
    start_async_server,
)
from repro.service.aserver import _HANDLERS
from repro.service.client import ServiceError
from repro.service.protocol import OPS
from repro.service.state import (
    sharded_state_from_dict,
    sharded_state_to_dict,
    streaming_state_from_dict,
    streaming_state_to_dict,
)
from repro.service.workers import route_rows
from repro.solvers.capacitated_lloyd import CapacitatedKClustering
from repro.streaming import StreamingCoreset, materialize
from repro.streaming.merge import merge_streaming_states
from repro.streaming.stream import events_to_arrays
from tests.shard_oracle import routed_drivers


@pytest.fixture(scope="module")
def world():
    """Small dynamic-stream instance: (stream, survivors, params)."""
    pts = np.unique(gaussian_mixture(900, 2, 64, k=3, seed=21), axis=0)
    stream = churn_stream(pts, delete_fraction=0.35, seed=4)
    survivors = materialize(stream, d=2)
    params = CoresetParams.practical(k=3, d=2, delta=64)
    return stream, survivors, params


def _coreset_points(cs):
    return sorted(map(tuple, cs.points.tolist()))


class TestShardRouting:
    """The worker pool's routing (:func:`route_rows`), checked in-process."""

    def test_deterministic_and_spread(self, world):
        stream, _, params = world
        codec = StreamingCoreset(params, seed=3).grids.point_codec
        rows, _ = events_to_arrays(stream, d=2)
        routes = route_rows(codec, rows, 4)
        assert np.array_equal(routes, route_rows(codec, rows, 4))  # stable
        assert set(routes.tolist()) == {0, 1, 2, 3}  # every shard sees traffic

    def test_insert_and_delete_meet_in_same_shard(self, world):
        stream, _, params = world
        rows, signs = events_to_arrays(stream, d=2)
        codec = StreamingCoreset(params, seed=3).grids.point_codec
        shard_of = {}
        for row, s in zip(map(tuple, rows.tolist()),
                          route_rows(codec, rows, 5).tolist()):
            assert shard_of.setdefault(row, s) == s
        assert (signs < 0).any()
        # Routing by point key ⇒ per-shard signed counts are non-negative.
        drivers, _ = routed_drivers(params, rows, signs, 5, seed=3)
        for driver in drivers:
            _, counts = driver.live.table.contents()
            assert (counts >= 0).all()

    def test_version_bumps_per_batch_not_per_event(self, world):
        stream, _, params = world
        ing = ShardedIngest(params, seed=3)
        ing.apply_batch(list(stream)[:10])
        assert ing.version == 1
        ing.apply_batch(list(stream)[10:20])
        assert ing.version == 2
        ing.apply_batch(list(stream)[20:21])
        assert ing.version == 3 and ing.num_events == 21


class TestShardedMergeExact:
    @pytest.mark.parametrize("backend", ["exact", "sketch"])
    def test_three_shards_equal_unsharded(self, world, backend):
        """≥3 routed drivers of one logical stream, merged directly, give
        the unsharded answer."""
        stream, _, params = world
        ref = StreamingCoreset(params, seed=9, backend=backend)
        ref.process(stream)
        want = ref.finalize()

        rows, signs = events_to_arrays(stream, d=2)
        drivers, counts = routed_drivers(params, rows, signs, 3, seed=9,
                                         backend=backend)
        assert sum(counts) == len(stream) and min(counts) > 0
        merged = drivers[0]
        for other in drivers[1:]:
            merge_streaming_states(merged, other)
        got = merged.finalize()
        assert got.o == want.o
        assert _coreset_points(got) == _coreset_points(want)

    def test_deletions_crossing_shard_boundaries(self, world):
        """Round-robin routing sends deletions to different shards than the
        matching insertions; linearity makes the merged state exact anyway."""
        stream, _, params = world
        events = list(stream)
        shards = [StreamingCoreset(params, seed=9, backend="exact")
                  for _ in range(3)]
        for i, ev in enumerate(events):
            shards[i % 3].update(ev.point, ev.sign)
        # The round-robin shards really do hold negative entries (a deletion
        # whose insertion went to a different shard) — the case under test.
        assert any((sh.live.table.contents()[1] < 0).any() for sh in shards)

        ref = StreamingCoreset(params, seed=9, backend="exact")
        ref.process(events)
        want = ref.finalize()
        merged = shards[0]
        for other in shards[1:]:
            merge_streaming_states(merged, other)
        got = merged.finalize()
        assert got.o == want.o
        assert _coreset_points(got) == _coreset_points(want)

    def test_merged_state_does_not_disturb_ingest(self, world):
        stream, _, params = world
        ing = ShardedIngest(params, seed=9)
        events = list(stream)
        ing.apply_batch(events[: len(events) // 2])
        first = ing.merged_state().finalize()
        # Querying must not consume the driver: keep ingesting and the
        # final answer matches a fresh unsharded run of the whole stream.
        ing.apply_batch(events[len(events) // 2:])
        got = ing.merged_state().finalize()
        ref = StreamingCoreset(params, seed=9)
        ref.process(events)
        assert _coreset_points(got) == _coreset_points(ref.finalize())
        assert first is not None


class TestCheckpointRestore:
    @pytest.mark.parametrize("backend", ["exact", "sketch"])
    def test_roundtrip_bit_identical(self, world, backend):
        stream, _, params = world
        sc = StreamingCoreset(params, seed=11, backend=backend)
        sc.process(stream)
        blob = json.dumps(streaming_state_to_dict(sc))  # JSON-safe end to end
        restored = streaming_state_from_dict(json.loads(blob))
        want, got = sc.finalize(), restored.finalize()
        assert got.o == want.o
        assert _coreset_points(got) == _coreset_points(want)
        assert np.allclose(np.sort(got.weights), np.sort(want.weights))
        assert restored.num_updates == sc.num_updates

    def test_restore_then_continue_ingesting(self, world):
        """The invariant the service needs: checkpoint mid-stream, restore,
        keep ingesting — indistinguishable from never having stopped."""
        stream, _, params = world
        events = list(stream)
        half = len(events) // 2

        sc = StreamingCoreset(params, seed=11)
        sc.process(events[:half])
        restored = streaming_state_from_dict(streaming_state_to_dict(sc))
        restored.process(events[half:])

        ref = StreamingCoreset(params, seed=11)
        ref.process(events)
        want, got = ref.finalize(), restored.finalize()
        assert got.o == want.o
        assert _coreset_points(got) == _coreset_points(want)

    def test_file_roundtrip_is_atomic(self, world, tmp_path):
        stream, _, params = world
        sc = StreamingCoreset(params, seed=11)
        sc.process(stream)
        path = tmp_path / "state.json"
        save_streaming_state(path, sc)
        assert path.exists()
        assert not list(tmp_path.glob("*.tmp.*"))  # temp file cleaned up
        restored = load_streaming_state(path)
        assert _coreset_points(restored.finalize()) == _coreset_points(sc.finalize())

    def test_atomic_write_replaces_whole_file(self, tmp_path):
        path = tmp_path / "x.json"
        atomic_write_json(path, {"v": 1})
        atomic_write_json(path, {"v": 2, "payload": list(range(50))})
        assert read_json(path)["v"] == 2

    def test_sharded_roundtrip_preserves_counters(self, world):
        stream, _, params = world
        ing = ShardedIngest(params, seed=9)
        ing.apply_batch(stream)
        ing2 = sharded_state_from_dict(sharded_state_to_dict(ing))
        assert ing2.version == ing.version
        assert ing2.events_per_shard == ing.events_per_shard
        assert ing2.num_insertions == ing.num_insertions
        assert ing2.num_deletions == ing.num_deletions
        assert (_coreset_points(ing2.merged_state().finalize())
                == _coreset_points(ing.merged_state().finalize()))

    def test_bad_format_version_rejected(self, world):
        _, _, params = world
        sc = StreamingCoreset(params, seed=11)
        data = streaming_state_to_dict(sc)
        data["format_version"] = 999
        with pytest.raises(ValueError, match="format"):
            streaming_state_from_dict(data)


class TestQueryEngine:
    def test_cache_hit_until_ingest_invalidates(self, world):
        stream, _, params = world
        svc = ClusteringService(
            ServiceConfig(k=3, d=2, delta=64, seed=17))
        svc.apply_events(stream)
        r1, hit1 = svc.query()
        r2, hit2 = svc.query()
        assert not hit1 and hit2
        assert r2 is r1  # memoized object, O(1) path
        svc.delete(materialize(stream, d=2)[:3])
        r3, hit3 = svc.query()
        assert not hit3 and r3.version > r1.version
        stats = svc.stats()
        assert stats["queries"] == 3 and stats["cache_hits"] == 1

    def test_nondefault_slack_bypasses_cache(self, world):
        stream, _, params = world
        svc = ClusteringService(
            ServiceConfig(k=3, d=2, delta=64, seed=17))
        svc.apply_events(stream)
        svc.query()
        result, hit = svc.query(capacity_slack=2.0)
        assert not hit
        assert result.capacity > svc.query()[0].capacity

    def test_huge_finite_slack_caps_capacity_at_total_weight(self, world):
        """Regression: slack·W/k overflowed to inf for a huge finite slack
        and the LP refused the bound.  Capacity beyond the coreset's total
        weight W never binds, so it is capped at W."""
        stream, _, _ = world
        svc = ClusteringService(ServiceConfig(k=3, d=2, delta=64, seed=17))
        svc.apply_events(stream)
        huge, _ = svc.query(capacity_slack=1e308)
        at_k, _ = svc.query(capacity_slack=3.0)
        assert huge.capacity == svc.ingest.merged_state().finalize().total_weight
        assert np.array_equal(huge.centers, at_k.centers)
        assert huge.cost == at_k.cost

    def test_service_checkpoint_restore(self, world, tmp_path):
        stream, _, params = world
        svc = ClusteringService(
            ServiceConfig(k=3, d=2, delta=64, seed=17))
        svc.apply_events(stream)
        want, _ = svc.query()
        info = svc.checkpoint(tmp_path / "svc.json")
        assert info["version"] == svc.ingest.version

        twin = ClusteringService.restore(tmp_path / "svc.json")
        got, hit = twin.query()
        assert not hit  # the result cache is not part of the checkpoint
        assert np.allclose(got.centers, want.centers)
        assert got.cost == want.cost and got.o == want.o


@contextmanager
def serving(registry: TenantRegistry, **kwargs):
    """Serve ``registry`` on a free port; yields ``(host, port)``, then
    stops the server and closes the registry."""
    server, thread = start_async_server(registry, **kwargs)
    try:
        yield server.address
    finally:
        server.shutdown()
        thread.join(10)
        registry.close()


class TestServiceEndToEnd:
    """The acceptance-criterion scenario, over a real TCP socket."""

    def test_ingest_query_checkpoint_restore(self, world, tmp_path):
        stream, survivors, params = world
        config = ServiceConfig(k=3, d=2, delta=64, seed=17,
                               capacity_slack=1.2)
        inserts = np.array([ev.point for ev in stream if ev.sign > 0])
        deletes = np.array([ev.point for ev in stream if ev.sign < 0])
        ckpt = tmp_path / "e2e.ckpt.json"
        with serving(TenantRegistry(config)) as (host, port):
            with ServiceClient(host, port) as cli:
                assert cli.ping()
                assert cli.insert(inserts, batch_size=64) == len(inserts)
                assert cli.delete(deletes) == len(deletes)

                answer = cli.query()
                assert not answer["cache_hit"]
                centers = np.asarray(answer["centers"], dtype=float)
                assert centers.shape == (3, 2)

                # Quality vs the offline pipeline on the materialized set.
                t = len(survivors) / 3 * config.capacity_slack
                off_cs = build_coreset_auto(survivors, params, seed=17)
                solver = CapacitatedKClustering(
                    k=3, capacity=off_cs.total_weight / 3 * config.capacity_slack,
                    r=2.0, restarts=2, seed=17)
                off = solver.fit(off_cs.points.astype(float),
                                 weights=off_cs.weights)
                svc_cost = capacitated_cost(survivors, centers, t, r=2.0)
                off_cost = capacitated_cost(survivors, off.centers, t, r=2.0)
                assert svc_cost <= (1 + 4 * params.eps) * off_cost

                # Unchanged stream ⇒ second query is served from cache.
                again = cli.query()
                assert again["cache_hit"]
                assert again["centers"] == answer["centers"]
                assert cli.stats()["cache_hits"] == 1

                cli.checkpoint(ckpt)

        # "Kill" the server; a fresh one restores (as `repro serve
        # --restore` does) and answers identically.
        twin = TenantRegistry(config)
        twin.restore("default", ckpt)
        with serving(twin) as (host, port):
            with ServiceClient(host, port) as cli:
                restored = cli.query()
                assert restored["centers"] == answer["centers"]
                assert restored["cost"] == answer["cost"]
                assert restored["version"] == answer["version"]

    def test_out_of_range_insert_rejected_atomically(self, world):
        """Regression: an insert with a coordinate outside [0, Δ] used to
        alias to a different point's key mid-batch, corrupting the sketches
        and leaving a partially-applied batch behind.  The server must now
        answer a clean error envelope with *zero* events applied and keep
        both the connection and the state healthy."""
        config = ServiceConfig(k=3, d=2, delta=64, seed=1)
        with serving(TenantRegistry(config)) as (host, port):
            with ServiceClient(host, port) as cli:
                for bad in ([[3, 3], [1, -1]],   # negative coordinate
                            [[3, 3], [0, 65]],   # > Δ
                            [[2**70, 1]]):       # json int too big for int64
                    with pytest.raises(ServiceError, match="point"):
                        cli.request("insert", points=bad)
                    stats = cli.stats()
                    assert stats["events"] == 0 and stats["version"] == 0
                # The boundary coordinates 0 and Δ are legal.
                assert cli.insert(np.array([[0, 0], [64, 64]])) == 2
                assert cli.stats()["events"] == 2

    def test_oversized_request_line_rejected(self, world):
        """Regression: the handler read request lines with an unbounded
        ``readline()``, so one newline-free client could balloon server
        memory.  Over-long frames now get an error envelope and a close."""
        config = ServiceConfig(k=3, d=2, delta=64, seed=1)
        with serving(TenantRegistry(config),
                     max_request_bytes=2048) as (host, port):
            with socket.create_connection((host, port), timeout=10) as sock:
                fh = sock.makefile("rwb")
                fh.write(b'{"op": "insert", "points": [' + b"9" * 4096)
                fh.flush()
                resp = json.loads(fh.readline())
                assert resp["ok"] is False
                assert "exceeds 2048 bytes" in resp["error"]
                # Mid-frame resync is impossible: the server closes.
                assert fh.readline() == b""
            # The server itself survives and serves new connections.
            with socket.create_connection((host, port), timeout=10) as sock:
                fh = sock.makefile("rwb")
                fh.write(b'{"op": "ping"}\n')
                fh.flush()
                assert json.loads(fh.readline())["ok"] is True

    def test_malformed_requests_get_error_responses(self, world):
        config = ServiceConfig(k=3, d=2, delta=64, seed=1)
        with serving(TenantRegistry(config)) as (host, port):
            with socket.create_connection((host, port), timeout=10) as sock:
                fh = sock.makefile("rwb")
                for junk in (b"not json\n", b'{"op": "nope"}\n',
                             b'{"op": "insert", "points": "x"}\n'):
                    fh.write(junk)
                    fh.flush()
                    resp = json.loads(fh.readline())
                    assert resp["ok"] is False and resp["error"]
                # The connection survives all of that.
                fh.write(b'{"op": "ping"}\n')
                fh.flush()
                assert json.loads(fh.readline())["ok"] is True

    def test_bad_query_fields_rejected_before_the_registry(self):
        """Regression: ``capacity_slack`` went straight to the solver, so a
        slack below 1 (infeasible: balanced k-clustering needs k*t >= n),
        NaN, inf, a string or a bool either ran merge + solve and failed
        there — three such queries opened the tenant's circuit breaker —
        or was silently coerced.  Both fields are now vetted as protocol
        errors, which never reach the breaker."""
        config = ServiceConfig(k=2, d=2, delta=32, seed=3,
                               o_range=(1.0, 8.0), restarts=1)
        pts = np.random.default_rng(0).integers(0, 33, size=(40, 2))
        with serving(TenantRegistry(config)) as (host, port):
            with ServiceClient(host, port) as cli:
                assert cli.insert(pts) == len(pts)
                for bad in (0.5, 0, -2, float("nan"), float("inf"), 10**400,
                            "1.5", True, [1.5]):
                    with pytest.raises(ServiceError, match="capacity_slack"):
                        cli.request("query", capacity_slack=bad)
                for bad in ("false", 0, 1):
                    with pytest.raises(ServiceError, match="live_only"):
                        cli.request("tenants", live_only=bad)
                # The tenant is not degraded: it still ingests and solves.
                assert cli.stats()["breaker"]["state"] == "closed"
                assert cli.insert(pts[:5]) == 5
                assert cli.query(capacity_slack=1.0)["capacity"] > 0
                assert cli.query()["capacity"] > 0
                rows = cli.request("tenants", live_only=False)["tenants"]
                assert [r["stream_id"] for r in rows] == ["default"]

    def test_huge_finite_slack_answers_over_the_wire(self):
        """Regression: a finite slack passes the wire check, but slack·W/k
        overflowed in the solve, so each such query failed and counted
        against the tenant's breaker.  Capacity is now capped at W."""
        config = ServiceConfig(k=2, d=2, delta=32, seed=3,
                               o_range=(1.0, 8.0), restarts=1)
        pts = np.random.default_rng(0).integers(0, 33, size=(40, 2))
        with serving(TenantRegistry(config)) as (host, port):
            with ServiceClient(host, port) as cli:
                assert cli.insert(pts) == len(pts)
                for _ in range(3):
                    huge = cli.query(capacity_slack=1e308)
                at_k = cli.query(capacity_slack=2.0)
                assert huge["capacity"] >= at_k["capacity"] > 0
                assert huge["centers"] == at_k["centers"]
                assert huge["cost"] == at_k["cost"]
                assert cli.stats()["breaker"]["state"] == "closed"


def test_handler_table_covers_exactly_the_protocol_ops():
    assert tuple(_HANDLERS) == OPS


class TestModuleEntryPoint:
    def test_python_dash_m_repro(self):
        """Satellite: ``python -m repro`` must resolve to the CLI."""
        import os
        from pathlib import Path

        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "--help"],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert proc.returncode == 0
        assert "serve" in proc.stdout and "client" in proc.stdout
